// Property-based round-trip suite over the kernel matrix: for every code
// family at small (k, r), enumerate *all* erasure patterns up to the code's
// fault tolerance and assert decode == original under every kernel backend
// the host exposes.  Block lengths are deliberately not multiples of the vector width so SIMD
// main loops and scalar tails are both on the repaired path.  Data is
// seeded; the seed is part of every failure message.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "codes/array_codes.h"
#include "codes/crs_code.h"
#include "codes/lrc_code.h"
#include "codes/mixed_code.h"
#include "codes/rs_code.h"
#include "common/buffer.h"
#include "common/prng.h"
#include "kernels/dispatch.h"

namespace approx {
namespace {

constexpr std::uint64_t kSeed = 0x5EED12345ull;
// Odd on purpose: exercises the 64/32/16-byte main loops *and* tails.
constexpr std::size_t kBlock = 200;

// Enumerate all subsets of {0..n-1} with size in [1, max_size].
void for_each_erasure(int n, int max_size,
                      const std::function<void(const std::vector<int>&)>& fn) {
  std::vector<int> pattern;
  std::function<void(int)> rec = [&](int start) {
    if (!pattern.empty()) fn(pattern);
    if (static_cast<int>(pattern.size()) == max_size) return;
    for (int i = start; i < n; ++i) {
      pattern.push_back(i);
      rec(i + 1);
      pattern.pop_back();
    }
  };
  rec(0);
  fn({});  // also assert the trivial pattern is handled
}

std::string pattern_label(const std::vector<int>& erased) {
  std::string s = "{";
  for (const int e : erased) s += std::to_string(e) + ",";
  s += "}";
  return s;
}

// Encode once with pristine data, then for every erasure pattern wipe the
// lost nodes and repair; every byte of every node must come back.
template <typename Code>
void roundtrip_all_patterns(const Code& code, const std::string& name) {
  const std::size_t node_bytes =
      kBlock * static_cast<std::size_t>(code.rows());
  StripeBuffers buf(code.total_nodes(), node_bytes);
  Rng rng(kSeed);
  for (int n = 0; n < code.total_nodes(); ++n) {
    auto s = buf.node(n);
    fill_random(s.data(), s.size(), rng);
  }
  {
    auto spans = buf.spans();
    code.encode_blocks(spans, kBlock);
  }
  const StripeBuffers pristine = buf;  // deep copy of the encoded stripe

  for_each_erasure(
      code.total_nodes(), code.fault_tolerance(),
      [&](const std::vector<int>& erased) {
        SCOPED_TRACE(name + " erased=" + pattern_label(erased) +
                     " seed=" + std::to_string(kSeed) + " backend=" +
                     std::string(kernels::backend_name(kernels::active_backend())));
        for (const int e : erased) {
          auto s = buf.node(e);
          std::memset(s.data(), 0xEE, s.size());
        }
        auto spans = buf.spans();
        ASSERT_TRUE(code.repair_blocks(spans, kBlock, erased));
        for (int n = 0; n < code.total_nodes(); ++n) {
          ASSERT_EQ(0, std::memcmp(buf.node(n).data(), pristine.node(n).data(),
                                   node_bytes))
              << "node " << n << " differs after repair";
        }
      });
}

class CodecRoundtripTest : public ::testing::TestWithParam<kernels::Backend> {
 protected:
  void SetUp() override { kernels::set_backend(GetParam()); }
  void TearDown() override { kernels::set_backend(prev_); }

  kernels::Backend prev_ = kernels::active_backend();
};

TEST_P(CodecRoundtripTest, Rs) {
  roundtrip_all_patterns(*codes::make_rs(5, 3), "RS(5,3)");
}

TEST_P(CodecRoundtripTest, Crs) {
  roundtrip_all_patterns(*codes::make_cauchy_rs(4, 2), "CRS(4,2)");
}

TEST_P(CodecRoundtripTest, Lrc) {
  roundtrip_all_patterns(*codes::make_lrc(4, 2, 2), "LRC(4,2,2)");
}

TEST_P(CodecRoundtripTest, Star) {
  roundtrip_all_patterns(*codes::make_star(5), "STAR(5)");
}

TEST_P(CodecRoundtripTest, Evenodd) {
  roundtrip_all_patterns(*codes::make_evenodd(5), "EVENODD(5)");
}

TEST_P(CodecRoundtripTest, MixedXcode) {
  roundtrip_all_patterns(*codes::make_xcode(5), "X-code(5)");
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, CodecRoundtripTest,
    ::testing::ValuesIn(kernels::available_backends()),
    [](const ::testing::TestParamInfo<kernels::Backend>& info) {
      return std::string(kernels::backend_name(info.param));
    });

}  // namespace
}  // namespace approx
