// Foundations: aligned buffers, PRNG, CRC-32, stopwatch, error types.
#include <gtest/gtest.h>

#include <cstring>
#include <latch>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/buffer.h"
#include "common/crc32.h"
#include "common/error.h"
#include "common/prng.h"
#include "common/stopwatch.h"
#include "../support/crc32_reference.h"

namespace approx {
namespace {

// ---------------------------------------------------------------------------
// AlignedBuffer / StripeBuffers
// ---------------------------------------------------------------------------

TEST(AlignedBuffer, IsAlignedAndZeroed) {
  for (const std::size_t size : {1u, 63u, 64u, 65u, 4096u, 100000u}) {
    AlignedBuffer buf(size);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % 64, 0u) << size;
    EXPECT_EQ(buf.size(), size);
    for (std::size_t i = 0; i < size; ++i) ASSERT_EQ(buf[i], 0) << i;
  }
}

TEST(AlignedBuffer, EmptyBuffer) {
  AlignedBuffer buf;
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.size(), 0u);
  AlignedBuffer sized(0);
  EXPECT_TRUE(sized.empty());
}

TEST(AlignedBuffer, CopySemantics) {
  AlignedBuffer a(128);
  for (std::size_t i = 0; i < 128; ++i) a[i] = static_cast<std::uint8_t>(i);
  AlignedBuffer b(a);
  EXPECT_EQ(std::memcmp(a.data(), b.data(), 128), 0);
  b[0] = 0xff;
  EXPECT_EQ(a[0], 0);  // deep copy
  AlignedBuffer c(64);
  c = a;
  EXPECT_EQ(c.size(), 128u);
  EXPECT_EQ(std::memcmp(a.data(), c.data(), 128), 0);
}

TEST(AlignedBuffer, MoveSemantics) {
  AlignedBuffer a(64);
  a[5] = 42;
  const std::uint8_t* p = a.data();
  AlignedBuffer b(std::move(a));
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b[5], 42);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move): specified
}

TEST(AlignedBuffer, SelfAssignment) {
  AlignedBuffer a(32);
  a[0] = 7;
  a = a;
  EXPECT_EQ(a[0], 7);
  EXPECT_EQ(a.size(), 32u);
}

TEST(AlignedBuffer, ClearZeroes) {
  AlignedBuffer a(100);
  Rng rng(1);
  fill_random(a.data(), a.size(), rng);
  a.clear();
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], 0);
}

TEST(StripeBuffers, Geometry) {
  StripeBuffers s(5, 1024);
  EXPECT_EQ(s.nodes(), 5);
  EXPECT_EQ(s.bytes_per_node(), 1024u);
  EXPECT_EQ(s.spans().size(), 5u);
  EXPECT_EQ(s.const_spans().size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(s.node(i).size(), 1024u);
}

TEST(StripeBuffers, NodesAreIndependent) {
  StripeBuffers s(3, 64);
  s.node(1)[0] = 0xaa;
  EXPECT_EQ(s.node(0)[0], 0);
  EXPECT_EQ(s.node(2)[0], 0);
  s.clear_node(1);
  EXPECT_EQ(s.node(1)[0], 0);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    EXPECT_EQ(va, b());
    if (va != c()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Rng, BelowIsInRangeAndCoversValues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.below(10);
    ASSERT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, UniformIsInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, FillRandomCoversOddLengths) {
  Rng rng(13);
  std::vector<std::uint8_t> buf(37, 0);
  fill_random(buf.data(), buf.size(), rng);
  int nonzero = 0;
  for (const auto b : buf) nonzero += b != 0;
  EXPECT_GT(nonzero, 20);  // all-zero tail would indicate a fill bug
}

TEST(Rng, ZeroSeedIsWellMixed) {
  Rng rng(0);
  std::uint64_t acc = 0;
  for (int i = 0; i < 10; ++i) acc |= rng();
  EXPECT_NE(acc, 0u);
}

// ---------------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------------

// First in the suite on purpose: run alone (as ctest and the TSan job run
// it), these threads are the process's first crc32() callers and race the
// one-time rung selection.
TEST(Crc32, ConcurrentFirstCallsAgree) {
  std::vector<std::uint8_t> data(4096 + 5);
  Rng rng(31);
  fill_random(data.data(), data.size(), rng);
  constexpr int kThreads = 8;
  std::latch start(kThreads);
  std::vector<std::uint32_t> got(kThreads);
  std::vector<std::string> rung(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      got[static_cast<std::size_t>(t)] = crc32(data);
      rung[static_cast<std::size_t>(t)] = detail::crc32_rung_name();
    });
  }
  for (auto& th : threads) th.join();
  const std::uint32_t want = testsupport::crc32_bitwise(data);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[static_cast<std::size_t>(t)], want) << "thread " << t;
    EXPECT_EQ(rung[static_cast<std::size_t>(t)], rung[0]) << "thread " << t;
  }
}

TEST(Crc32, KnownVectors) {
  // IEEE CRC-32 of "123456789" is 0xCBF43926.
  const std::uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(digits), 0xcbf43926u);
  EXPECT_EQ(crc32({}), 0u);
  const std::uint8_t a[] = {'a'};
  EXPECT_EQ(crc32(a), 0xe8b7be43u);
}

TEST(Crc32, DetectsSingleBitFlips) {
  Rng rng(17);
  std::vector<std::uint8_t> data(256);
  fill_random(data.data(), data.size(), rng);
  const std::uint32_t base = crc32(data);
  for (int bit = 0; bit < 32; ++bit) {
    data[static_cast<std::size_t>(bit * 7 % 256)] ^=
        static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_NE(crc32(data), base);
    data[static_cast<std::size_t>(bit * 7 % 256)] ^=
        static_cast<std::uint8_t>(1u << (bit % 8));
  }
  EXPECT_EQ(crc32(data), base);
}

using Crc32Fn = std::uint32_t (*)(std::span<const std::uint8_t>,
                                  std::uint32_t) noexcept;

// One rung against the bitwise oracle: every length 0..1100 at every
// alignment 0..16, for several data and CRC seeds, plus 64 KiB and one
// chunk block with its 8-byte footer.  The oracle runs incrementally (one
// byte per length step), so only the rung under test pays per length.
void expect_rung_matches_oracle(Crc32Fn rung) {
  constexpr std::size_t kMaxLen = 1100;
  constexpr std::size_t kMaxAlign = 16;
  std::vector<std::uint8_t> buf(kMaxLen + kMaxAlign);
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    fill_random(buf.data(), buf.size(), rng);
    const auto crc_seed = seed == 1 ? 0u : static_cast<std::uint32_t>(rng());
    for (std::size_t align = 0; align <= kMaxAlign; ++align) {
      const std::uint8_t* p = buf.data() + align;
      std::uint32_t want = crc_seed;  // oracle CRC of p[0, len)
      for (std::size_t len = 0; len <= kMaxLen; ++len) {
        ASSERT_EQ(rung({p, len}, crc_seed), want)
            << "seed " << seed << " align " << align << " len " << len;
        if (len < kMaxLen) {
          want = testsupport::crc32_bitwise({p + len, 1}, want);
        }
      }
    }
  }
  std::vector<std::uint8_t> block(64 * 1024 + 8 + 1);
  Rng rng(4);
  fill_random(block.data(), block.size(), rng);
  for (const std::size_t len : {std::size_t{64 * 1024},
                                std::size_t{64 * 1024 + 8}}) {
    for (const std::size_t align : {std::size_t{0}, std::size_t{1}}) {
      const std::span<const std::uint8_t> s(block.data() + align, len);
      EXPECT_EQ(rung(s, 0), testsupport::crc32_bitwise(s))
          << "len " << len << " align " << align;
    }
  }
}

TEST(Crc32, Slice16MatchesBitwiseOracle) {
  expect_rung_matches_oracle(&detail::crc32_slice16);
}

TEST(Crc32, ClmulMatchesBitwiseOracle) {
  if (!detail::crc32_clmul_supported()) {
    GTEST_SKIP() << (detail::crc32_clmul_compiled()
                         ? "CPU lacks PCLMULQDQ or SSE4.1"
                         : "compiler lacks -mpclmul -msse4.1");
  }
  expect_rung_matches_oracle(&detail::crc32_clmul);
}

TEST(Crc32, SelectsFoldingRungWhenSupported) {
  EXPECT_STREQ(detail::crc32_rung_name(),
               detail::crc32_clmul_supported() ? "clmul" : "slice16");
}

// The store's stream CRCs continue a running CRC across stripes:
// crc32(B, crc32(A)) must equal crc32(A||B) on every rung, wherever the
// split falls relative to the 16- and 64-byte steps.
TEST(Crc32, SeedChainsAcrossSplits) {
  std::vector<std::uint8_t> data(3000);
  Rng rng(9);
  fill_random(data.data(), data.size(), rng);
  const std::span<const std::uint8_t> all(data);
  std::vector<Crc32Fn> rungs = {&detail::crc32_slice16};
  if (detail::crc32_clmul_supported()) rungs.push_back(&detail::crc32_clmul);
  for (const std::size_t split :
       {0u, 1u, 15u, 16u, 63u, 64u, 65u, 127u, 1000u, 2999u, 3000u}) {
    const auto a = all.subspan(0, split);
    const auto b = all.subspan(split);
    EXPECT_EQ(crc32(b, crc32(a)), crc32(all)) << "split " << split;
    for (const Crc32Fn rung : rungs) {
      EXPECT_EQ(rung(b, rung(a, 0)), crc32(all)) << "split " << split;
    }
  }
}

// ---------------------------------------------------------------------------
// Error machinery
// ---------------------------------------------------------------------------

TEST(Errors, RequireThrowsWithLocation) {
  try {
    APPROX_REQUIRE(1 == 2, "math is broken");
    FAIL() << "should have thrown";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("math is broken"), std::string::npos);
    EXPECT_NE(what.find("common_test.cpp"), std::string::npos);
    EXPECT_STREQ(e.reason(), "math is broken");
  }
}

TEST(Errors, HierarchyIsSane) {
  EXPECT_THROW(throw InvalidArgument("x"), Error);
  EXPECT_THROW(throw InternalError("x"), Error);
}

TEST(Stopwatch, MeasuresForwardTime) {
  Stopwatch sw;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(sw.seconds(), 0.0);
  EXPECT_GE(sw.millis(), sw.seconds());
}

}  // namespace
}  // namespace approx
