// Differential validation of the kernel engine: every backend the host
// exposes must agree byte-for-byte with an independent scalar model (built
// directly on gf::mul, not on the kernels' own scalar backend) across
// randomized lengths, alignment offsets, coefficients and source counts —
// including n == 0, n smaller than a vector register, and tail remainders.
// Each case also plants sentinel guard bytes after dst and asserts the
// kernels never write past n.
//
// A fast-but-wrong kernel is worse than a slow one; this suite is the
// reason the SIMD backends are allowed to exist.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/error.h"
#include "common/prng.h"
#include "gf/gf256.h"
#include "kernels/dispatch.h"

namespace approx {
namespace {

constexpr std::uint64_t kSeed = 0xC0DEC0DE5EEDull;
constexpr std::size_t kMaxLen = 600;    // covers several vector widths + tails
constexpr std::size_t kMaxAlign = 63;   // offset off a 64-byte boundary
constexpr std::uint8_t kGuard = 0xA5;
constexpr std::size_t kGuardBytes = 64;

// Lengths every sweep must hit in addition to random ones: empty, sub-word,
// sub-vector (SSE and AVX), exact vector multiples and off-by-one tails.
const std::size_t kEdgeLens[] = {0,  1,  7,  8,   15,  16,  17,  31, 32,
                                 33, 63, 64, 65,  127, 128, 129, 256};

struct Arena {
  explicit Arena(std::size_t bufs)
      : mem(bufs * (kMaxLen + kMaxAlign + kGuardBytes)) {}
  std::uint8_t* at(std::size_t buf, std::size_t align_off) {
    return mem.data() + buf * (kMaxLen + kMaxAlign + kGuardBytes) + align_off;
  }
  AlignedBuffer mem;
};

class KernelDiffTest : public ::testing::TestWithParam<kernels::Backend> {};

std::string case_label(std::size_t n, std::size_t d_off, std::size_t s_off,
                       unsigned c, std::uint64_t seed) {
  return "seed=" + std::to_string(seed) + " n=" + std::to_string(n) +
         " dst_off=" + std::to_string(d_off) + " src_off=" + std::to_string(s_off) +
         " c=" + std::to_string(c);
}

// One randomized (length, alignment, coefficient) draw; edge lengths are
// interleaved so they are exercised at many alignments.
struct Draw {
  std::size_t n, d_off, s_off;
  std::uint8_t c;
};

Draw draw_case(Rng& rng, std::size_t i) {
  Draw d;
  d.n = (i % 3 == 0) ? kEdgeLens[i / 3 % std::size(kEdgeLens)]
                     : static_cast<std::size_t>(rng.below(kMaxLen + 1));
  d.d_off = static_cast<std::size_t>(rng.below(kMaxAlign + 1));
  d.s_off = static_cast<std::size_t>(rng.below(kMaxAlign + 1));
  // Bias toward interesting coefficients but cover the whole field.
  const std::uint8_t picks[] = {0, 1, 2, 0x80, 0xff, rng.byte(), rng.byte()};
  d.c = picks[rng.below(std::size(picks))];
  return d;
}

TEST_P(KernelDiffTest, MulRegionMatchesScalarModel) {
  kernels::BackendGuard guard(GetParam());
  Rng rng(kSeed);
  Arena arena(2);
  std::vector<std::uint8_t> expected(kMaxLen);
  for (std::size_t i = 0; i < 2500; ++i) {
    const Draw d = draw_case(rng, i);
    SCOPED_TRACE(case_label(d.n, d.d_off, d.s_off, d.c, kSeed));
    std::uint8_t* dst = arena.at(0, d.d_off);
    std::uint8_t* src = arena.at(1, d.s_off);
    fill_random(src, d.n, rng);
    std::memset(dst, kGuard, d.n + kGuardBytes);
    for (std::size_t b = 0; b < d.n; ++b) expected[b] = gf::mul(d.c, src[b]);

    gf::mul_region(dst, src, d.n, d.c);

    ASSERT_EQ(0, std::memcmp(dst, expected.data(), d.n));
    for (std::size_t g = 0; g < kGuardBytes; ++g) {
      ASSERT_EQ(kGuard, dst[d.n + g]) << "guard byte " << g << " clobbered";
    }
  }
}

TEST_P(KernelDiffTest, MulAccRegionMatchesScalarModel) {
  kernels::BackendGuard guard(GetParam());
  Rng rng(kSeed + 1);
  Arena arena(2);
  std::vector<std::uint8_t> expected(kMaxLen);
  for (std::size_t i = 0; i < 2500; ++i) {
    const Draw d = draw_case(rng, i);
    SCOPED_TRACE(case_label(d.n, d.d_off, d.s_off, d.c, kSeed + 1));
    std::uint8_t* dst = arena.at(0, d.d_off);
    std::uint8_t* src = arena.at(1, d.s_off);
    fill_random(src, d.n, rng);
    fill_random(dst, d.n, rng);
    std::memset(dst + d.n, kGuard, kGuardBytes);
    for (std::size_t b = 0; b < d.n; ++b) {
      expected[b] = static_cast<std::uint8_t>(dst[b] ^ gf::mul(d.c, src[b]));
    }

    gf::mul_acc_region(dst, src, d.n, d.c);

    ASSERT_EQ(0, std::memcmp(dst, expected.data(), d.n));
    for (std::size_t g = 0; g < kGuardBytes; ++g) {
      ASSERT_EQ(kGuard, dst[d.n + g]) << "guard byte " << g << " clobbered";
    }
  }
}

TEST_P(KernelDiffTest, XorAccMatchesScalarModel) {
  kernels::BackendGuard guard(GetParam());
  Rng rng(kSeed + 2);
  Arena arena(2);
  std::vector<std::uint8_t> expected(kMaxLen);
  for (std::size_t i = 0; i < 2000; ++i) {
    const Draw d = draw_case(rng, i);
    SCOPED_TRACE(case_label(d.n, d.d_off, d.s_off, d.c, kSeed + 2));
    std::uint8_t* dst = arena.at(0, d.d_off);
    std::uint8_t* src = arena.at(1, d.s_off);
    fill_random(src, d.n, rng);
    fill_random(dst, d.n, rng);
    std::memset(dst + d.n, kGuard, kGuardBytes);
    for (std::size_t b = 0; b < d.n; ++b) {
      expected[b] = static_cast<std::uint8_t>(dst[b] ^ src[b]);
    }

    kernels::xor_acc(dst, src, d.n);

    ASSERT_EQ(0, std::memcmp(dst, expected.data(), d.n));
    for (std::size_t g = 0; g < kGuardBytes; ++g) {
      ASSERT_EQ(kGuard, dst[d.n + g]) << "guard byte " << g << " clobbered";
    }
  }
}

TEST_P(KernelDiffTest, XorAcc2MatchesScalarModel) {
  kernels::BackendGuard guard(GetParam());
  Rng rng(kSeed + 3);
  Arena arena(3);
  std::vector<std::uint8_t> expected(kMaxLen);
  for (std::size_t i = 0; i < 1500; ++i) {
    const Draw d = draw_case(rng, i);
    SCOPED_TRACE(case_label(d.n, d.d_off, d.s_off, d.c, kSeed + 3));
    std::uint8_t* dst = arena.at(0, d.d_off);
    std::uint8_t* a = arena.at(1, d.s_off);
    std::uint8_t* b = arena.at(2, static_cast<std::size_t>(rng.below(kMaxAlign + 1)));
    fill_random(a, d.n, rng);
    fill_random(b, d.n, rng);
    fill_random(dst, d.n, rng);
    std::memset(dst + d.n, kGuard, kGuardBytes);
    for (std::size_t i2 = 0; i2 < d.n; ++i2) {
      expected[i2] = static_cast<std::uint8_t>(dst[i2] ^ a[i2] ^ b[i2]);
    }

    kernels::xor_acc2(dst, a, b, d.n);

    ASSERT_EQ(0, std::memcmp(dst, expected.data(), d.n));
    for (std::size_t g = 0; g < kGuardBytes; ++g) {
      ASSERT_EQ(kGuard, dst[d.n + g]) << "guard byte " << g << " clobbered";
    }
  }
}

TEST_P(KernelDiffTest, XorGatherMatchesScalarModel) {
  kernels::BackendGuard guard(GetParam());
  Rng rng(kSeed + 4);
  constexpr std::size_t kMaxSources = 9;
  Arena arena(1 + kMaxSources);
  std::vector<std::uint8_t> expected(kMaxLen);
  for (std::size_t i = 0; i < 1500; ++i) {
    const Draw d = draw_case(rng, i);
    const std::size_t count = rng.below(kMaxSources + 1);  // includes 0
    SCOPED_TRACE(case_label(d.n, d.d_off, d.s_off, d.c, kSeed + 4) +
                 " sources=" + std::to_string(count));
    std::uint8_t* dst = arena.at(0, d.d_off);
    std::vector<const std::uint8_t*> srcs;
    std::fill(expected.begin(), expected.begin() + static_cast<std::ptrdiff_t>(d.n), 0);
    for (std::size_t s = 0; s < count; ++s) {
      std::uint8_t* p =
          arena.at(1 + s, static_cast<std::size_t>(rng.below(kMaxAlign + 1)));
      fill_random(p, d.n, rng);
      for (std::size_t b = 0; b < d.n; ++b) expected[b] ^= p[b];
      srcs.push_back(p);
    }
    std::memset(dst, kGuard, d.n + kGuardBytes);

    kernels::xor_gather(dst, srcs, d.n);

    ASSERT_EQ(0, std::memcmp(dst, expected.data(), d.n));
    for (std::size_t g = 0; g < kGuardBytes; ++g) {
      ASSERT_EQ(kGuard, dst[d.n + g]) << "guard byte " << g << " clobbered";
    }
  }
}

// The per-backend byte counters must attribute traffic to the backend that
// actually served it.
TEST_P(KernelDiffTest, BytesProcessedCounterAdvances) {
  kernels::BackendGuard guard(GetParam());
  const std::uint64_t before = kernels::bytes_processed(GetParam());
  AlignedBuffer dst(4096), src(4096);
  gf::mul_acc_region(dst.data(), src.data(), 4096, 2);
#ifndef APPROX_OBS_OFF
  EXPECT_GE(kernels::bytes_processed(GetParam()), before + 4096);
#else
  (void)before;
#endif
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, KernelDiffTest,
    ::testing::ValuesIn(kernels::available_backends()),
    [](const ::testing::TestParamInfo<kernels::Backend>& info) {
      return std::string(kernels::backend_name(info.param));
    });

// Fixed XOR sizes up to 4096 bytes (beyond the randomized sweep's 600-byte
// cap, so every unrolled main loop runs several iterations), on every
// backend.
class XorKernelTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(XorKernelTest, XorAccMatchesScalar) {
  const std::size_t n = GetParam();
  for (const kernels::Backend b : kernels::available_backends()) {
    kernels::BackendGuard guard(b);
    Rng rng(n + 1);
    std::vector<std::uint8_t> dst(n), src(n), expect(n);
    fill_random(dst.data(), n, rng);
    fill_random(src.data(), n, rng);
    for (std::size_t i = 0; i < n; ++i) {
      expect[i] = static_cast<std::uint8_t>(dst[i] ^ src[i]);
    }
    kernels::xor_acc(dst.data(), src.data(), n);
    EXPECT_EQ(dst, expect) << kernels::backend_name(b);
  }
}

TEST_P(XorKernelTest, XorAcc2MatchesTwoSingleCalls) {
  const std::size_t n = GetParam();
  for (const kernels::Backend b : kernels::available_backends()) {
    kernels::BackendGuard guard(b);
    Rng rng(n + 2);
    std::vector<std::uint8_t> dst(n), a(n), c(n);
    fill_random(dst.data(), n, rng);
    fill_random(a.data(), n, rng);
    fill_random(c.data(), n, rng);
    auto expect = dst;
    kernels::xor_acc(expect.data(), a.data(), n);
    kernels::xor_acc(expect.data(), c.data(), n);
    kernels::xor_acc2(dst.data(), a.data(), c.data(), n);
    EXPECT_EQ(dst, expect) << kernels::backend_name(b);
  }
}

TEST_P(XorKernelTest, GatherMatchesSequentialAcc) {
  const std::size_t n = GetParam();
  for (const kernels::Backend b : kernels::available_backends()) {
    kernels::BackendGuard guard(b);
    Rng rng(n + 3);
    std::vector<std::vector<std::uint8_t>> srcs(5, std::vector<std::uint8_t>(n));
    std::vector<const std::uint8_t*> ptrs;
    for (auto& src : srcs) {
      fill_random(src.data(), n, rng);
      ptrs.push_back(src.data());
    }
    std::vector<std::uint8_t> expect(n, 0);
    for (const auto& src : srcs) kernels::xor_acc(expect.data(), src.data(), n);
    std::vector<std::uint8_t> dst(n, 0xFF);  // gather overwrites
    kernels::xor_gather(dst.data(), ptrs, n);
    EXPECT_EQ(dst, expect) << kernels::backend_name(b);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, XorKernelTest,
                         ::testing::Values(0, 1, 7, 8, 9, 31, 32, 33, 63, 64,
                                           65, 255, 256, 1 << 12),
                         [](const auto& in) {
                           return "n" + std::to_string(in.param);
                         });

// The gather's source-count edges, pinned on every backend: one source is
// a copy, none zeroes dst.
TEST(XorKernels, GatherSingleSourceIsCopy) {
  for (const kernels::Backend b : kernels::available_backends()) {
    kernels::BackendGuard guard(b);
    Rng rng(44);
    std::vector<std::uint8_t> src(64);
    fill_random(src.data(), src.size(), rng);
    std::vector<std::uint8_t> dst(64, 0);
    const std::uint8_t* p = src.data();
    kernels::xor_gather(dst.data(), std::span<const std::uint8_t* const>(&p, 1),
                        64);
    EXPECT_EQ(dst, src) << kernels::backend_name(b);
  }
}

TEST(XorKernels, GatherNoSourcesZeroes) {
  for (const kernels::Backend b : kernels::available_backends()) {
    kernels::BackendGuard guard(b);
    std::vector<std::uint8_t> dst(32, 0xAB);
    kernels::xor_gather(dst.data(), {}, 32);
    EXPECT_EQ(dst, std::vector<std::uint8_t>(32, 0)) << kernels::backend_name(b);
  }
}

TEST(KernelDispatchTest, ScalarAlwaysAvailable) {
  EXPECT_TRUE(kernels::backend_available(kernels::Backend::kScalar));
  const auto backends = kernels::available_backends();
  ASSERT_FALSE(backends.empty());
  EXPECT_EQ(kernels::Backend::kScalar, backends.front());
}

TEST(KernelDispatchTest, SetBackendRejectsUnavailable) {
  for (const kernels::Backend b :
       {kernels::Backend::kSsse3, kernels::Backend::kAvx2,
        kernels::Backend::kAvx512, kernels::Backend::kGfni}) {
    if (!kernels::backend_available(b)) {
      EXPECT_THROW(kernels::set_backend(b), InvalidArgument);
    }
  }
}

TEST(KernelDispatchTest, BackendGuardRestores) {
  const kernels::Backend before = kernels::active_backend();
  {
    kernels::BackendGuard guard(kernels::Backend::kScalar);
    EXPECT_EQ(kernels::Backend::kScalar, kernels::active_backend());
  }
  EXPECT_EQ(before, kernels::active_backend());
}

}  // namespace
}  // namespace approx
