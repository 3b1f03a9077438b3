// Aliasing-contract tests for the GF region ops: dst == src (the in-place
// normalization the repair solver performs) must behave exactly like the
// out-of-place call on every backend, for lengths covering vector main
// loops and scalar tails.  Partial overlap is documented as undefined and
// is deliberately not exercised.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/prng.h"
#include "gf/gf256.h"
#include "kernels/dispatch.h"

namespace approx {
namespace {

constexpr std::uint64_t kSeed = 0xA11A5ull;
const std::size_t kLens[] = {0, 1, 5, 16, 31, 32, 33, 64, 100, 256, 1000};
const std::uint8_t kCoeffs[] = {0, 1, 2, 3, 0x53, 0x80, 0xff};

class OverlapTest : public ::testing::TestWithParam<kernels::Backend> {};

TEST_P(OverlapTest, MulRegionInPlaceEqualsOutOfPlace) {
  kernels::BackendGuard guard(GetParam());
  Rng rng(kSeed);
  for (const std::size_t n : kLens) {
    for (const std::uint8_t c : kCoeffs) {
      SCOPED_TRACE("n=" + std::to_string(n) + " c=" + std::to_string(c) +
                   " seed=" + std::to_string(kSeed));
      AlignedBuffer inplace(n + 64), out(n + 64), src(n + 64);
      fill_random(src.data(), n, rng);
      std::memcpy(inplace.data(), src.data(), n);

      gf::mul_region(out.data(), src.data(), n, c);
      gf::mul_region(inplace.data(), inplace.data(), n, c);  // dst == src

      EXPECT_EQ(0, std::memcmp(inplace.data(), out.data(), n));
    }
  }
}

TEST_P(OverlapTest, MulAccRegionInPlaceMatchesElementwiseModel) {
  kernels::BackendGuard guard(GetParam());
  Rng rng(kSeed + 1);
  for (const std::size_t n : kLens) {
    for (const std::uint8_t c : kCoeffs) {
      SCOPED_TRACE("n=" + std::to_string(n) + " c=" + std::to_string(c) +
                   " seed=" + std::to_string(kSeed + 1));
      AlignedBuffer buf(n + 64);
      fill_random(buf.data(), n, rng);
      // dst == src: every byte becomes x ^ c*x, independently.
      std::vector<std::uint8_t> expected(n + 1);
      for (std::size_t i = 0; i < n; ++i) {
        expected[i] = static_cast<std::uint8_t>(buf[i] ^ gf::mul(c, buf[i]));
      }

      gf::mul_acc_region(buf.data(), buf.data(), n, c);

      EXPECT_EQ(0, std::memcmp(buf.data(), expected.data(), n));
    }
  }
}

TEST_P(OverlapTest, XorAccInPlaceZeroes) {
  kernels::BackendGuard guard(GetParam());
  Rng rng(kSeed + 2);
  for (const std::size_t n : kLens) {
    SCOPED_TRACE("n=" + std::to_string(n) + " seed=" + std::to_string(kSeed + 2));
    AlignedBuffer buf(n + 64);
    fill_random(buf.data(), n, rng);

    kernels::xor_acc(buf.data(), buf.data(), n);  // x ^ x == 0

    EXPECT_TRUE(std::all_of(buf.data(), buf.data() + n,
                            [](std::uint8_t b) { return b == 0; }));
  }
}

// dst appearing as the *sole* source must be exact: every backend's gather
// accumulates all sources for a chunk before storing it, so the read of
// sources[0] happens before the aliased dst chunk is overwritten.
TEST_P(OverlapTest, XorGatherDstAsOnlySourceIsIdentity) {
  kernels::BackendGuard guard(GetParam());
  Rng rng(kSeed + 3);
  for (const std::size_t n : kLens) {
    SCOPED_TRACE("n=" + std::to_string(n) + " seed=" + std::to_string(kSeed + 3));
    AlignedBuffer buf(n + 64);
    fill_random(buf.data(), n, rng);
    std::vector<std::uint8_t> before(buf.data(), buf.data() + n + 1);

    const std::uint8_t* srcs[] = {buf.data()};
    kernels::xor_gather(buf.data(), srcs, n);

    EXPECT_EQ(0, std::memcmp(buf.data(), before.data(), n));
  }
}

// The full gather aliasing contract: dst identical to *any one* source —
// first, middle, or last — must match the fully disjoint gather on every
// backend, since no dst chunk is stored until every source's chunk was read.
TEST_P(OverlapTest, XorGatherDstAliasingEachSourceMatchesOutOfPlace) {
  kernels::BackendGuard guard(GetParam());
  Rng rng(kSeed + 4);
  constexpr std::size_t kCount = 3;
  for (const std::size_t n : kLens) {
    for (std::size_t alias = 0; alias < kCount; ++alias) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " alias=" + std::to_string(alias) +
                   " seed=" + std::to_string(kSeed + 4));
      AlignedBuffer a(n + 64), b(n + 64), c(n + 64), out(n + 64);
      fill_random(a.data(), n, rng);
      fill_random(b.data(), n, rng);
      fill_random(c.data(), n, rng);
      AlignedBuffer* bufs[kCount] = {&a, &b, &c};
      const std::uint8_t* srcs[kCount] = {a.data(), b.data(), c.data()};

      kernels::xor_gather(out.data(), srcs, n);           // disjoint reference
      kernels::xor_gather(bufs[alias]->data(), srcs, n);  // dst == sources[alias]

      EXPECT_EQ(0, std::memcmp(bufs[alias]->data(), out.data(), n));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, OverlapTest,
    ::testing::ValuesIn(kernels::available_backends()),
    [](const ::testing::TestParamInfo<kernels::Backend>& info) {
      return std::string(kernels::backend_name(info.param));
    });

}  // namespace
}  // namespace approx
