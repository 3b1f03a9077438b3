// Schedule-compiler suite: structural invariants of compiled XOR programs,
// compiled encode/repair against the per-byte reference interpreter,
// degraded-read slices of compiled repair programs, blocked-execution
// equivalence on odd lengths, the dst-aliasing contract, and a golden
// XOR-count pin for a fixed CRS matrix (the CSE win the optimizer exists
// for).
#include "codes/schedule_opt.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "codes/array_codes.h"
#include "codes/crs_code.h"
#include "codes/lrc_code.h"
#include "codes/rs_code.h"
#include "codes/verify.h"
#include "common/buffer.h"
#include "common/prng.h"
#include "../support/reference_schedule.h"

namespace approx::codes {
namespace {

constexpr std::uint64_t kSeed = 0xC0DE5EEDull;

using testsupport::reference_run;

// Encode statements of every parity node of `code`.
std::vector<RepairPlan::Target> encode_statements(const LinearCode& code) {
  std::vector<int> parities;
  for (int p = code.data_nodes(); p < code.total_nodes(); ++p) {
    parities.push_back(p);
  }
  return code.encode_statements(parities);
}

std::vector<NodeView> views_of(StripeBuffers& buf, std::size_t len) {
  std::vector<NodeView> v;
  for (int n = 0; n < buf.nodes(); ++n) v.push_back(full_view(buf.node(n), len));
  return v;
}

StripeBuffers random_stripe(int nodes, std::size_t node_bytes) {
  StripeBuffers buf(nodes, node_bytes);
  Rng rng(kSeed);
  for (int n = 0; n < nodes; ++n) {
    auto s = buf.node(n);
    fill_random(s.data(), s.size(), rng);
  }
  return buf;
}

void poison(StripeBuffers& buf, const std::vector<int>& erased) {
  for (const int e : erased) {
    auto s = buf.node(e);
    std::memset(s.data(), 0xEE, s.size());
  }
}

// Every temp is defined before use; every program-written element is read
// only after its own statement ran (the dependency order repair schedules
// rely on).
void check_program_order(const XorProgram& prog) {
  std::set<std::pair<int, int>> all_dsts;
  for (const auto& s : prog.stmts) {
    if (s.dst.node != XorProgram::kTempNode) {
      all_dsts.insert({s.dst.node, s.dst.row});
    }
  }
  std::set<int> temps_defined;
  std::set<std::pair<int, int>> elems_written;
  for (const auto& s : prog.stmts) {
    for (const auto& src : s.sources) {
      if (src.ref.node == XorProgram::kTempNode) {
        EXPECT_TRUE(temps_defined.contains(src.ref.row))
            << "temp " << src.ref.row << " read before definition";
      } else if (all_dsts.contains({src.ref.node, src.ref.row})) {
        EXPECT_TRUE(elems_written.contains({src.ref.node, src.ref.row}))
            << "element (" << src.ref.node << "," << src.ref.row
            << ") read before its rebuilding statement";
      }
    }
    if (s.dst.node == XorProgram::kTempNode) {
      temps_defined.insert(s.dst.row);
    } else {
      elems_written.insert({s.dst.node, s.dst.row});
    }
  }
}

TEST(ScheduleCompile, CrsEncodeSharesSubexpressions) {
  auto code = make_cauchy_rs(6, 3);
  auto prog = compile_schedule(encode_statements(*code));
  ASSERT_NE(prog, nullptr);
  EXPECT_GT(prog->temp_count, 0);
  EXPECT_LT(prog->compiled_xors, prog->naive_xors);
  check_program_order(*prog);
}

// Golden pin for a fixed CRS matrix: the Cauchy layout of make_cauchy_rs is
// frozen, and greedy CSE with deterministic tie-breaking always produces the
// same program, so the counts are exact.  A change here means the optimizer
// (or the CRS construction) changed behavior - update deliberately.
TEST(ScheduleCompile, GoldenCrsXorCounts) {
  auto code = make_cauchy_rs(4, 2);
  auto prog = compile_schedule(encode_statements(*code));
  ASSERT_NE(prog, nullptr);
  EXPECT_EQ(prog->naive_xors, 219u);
  EXPECT_EQ(prog->compiled_xors, 107u);  // 51% fewer XOR passes
  EXPECT_EQ(prog->temp_count, 41);
  EXPECT_LT(prog->compiled_xors, prog->naive_xors);
}

TEST(ScheduleCompile, SingleStatementCompilesVerbatim) {
  auto code = make_cauchy_rs(4, 2);
  auto stmts = encode_statements(*code);
  stmts.resize(1);
  auto prog = compile_schedule(stmts);
  EXPECT_EQ(prog->temp_count, 0);
  EXPECT_EQ(prog->stmts.size(), 1u);
  EXPECT_EQ(prog->compiled_xors, prog->naive_xors);
}

TEST(ScheduleCompile, DensePairCapSkipsCse) {
  // Two statements sharing 400 operands: ~80k operand pairs, past the CSE
  // cap, so the program must come out verbatim (blocking still applies).
  std::vector<RepairPlan::Target> stmts(2);
  stmts[0].elem = {500, 0};
  stmts[1].elem = {501, 0};
  for (int i = 0; i < 400; ++i) {
    stmts[0].sources.push_back({ElemRef{i, 0}, 1});
    stmts[1].sources.push_back({ElemRef{i, 0}, 1});
  }
  auto prog = compile_schedule(stmts);
  EXPECT_EQ(prog->temp_count, 0);
  EXPECT_EQ(prog->compiled_xors, prog->naive_xors);
}

TEST(ScheduleCompile, RepairPlanDependencyOrderSurvives) {
  auto code = make_star(7, 3);
  for (const auto& erased :
       {std::vector<int>{0, 1}, {0, 1, 2}, {2, 7, 8}, {7, 8, 9}}) {
    auto plan = code->plan_repair(erased);
    ASSERT_NE(plan, nullptr);
    auto prog = compile_schedule(plan->targets);
    check_program_order(*prog);
  }
}

// Execute a program twice - default block size vs a tiny one that forces
// many partial blocks on an odd length - and require identical bytes.
TEST(ScheduleRun, BlockedExecutionMatchesDefault) {
  auto code = make_cauchy_rs(5, 3);
  const std::size_t len = 333;  // odd: exercises partial-block tails
  const std::size_t node_bytes = len * static_cast<std::size_t>(code->rows());
  StripeBuffers a = random_stripe(code->total_nodes(), node_bytes);
  StripeBuffers b = a;

  auto prog = compile_schedule(encode_statements(*code));
  run_program(*prog, views_of(a, len), len);
  run_program(*prog, views_of(b, len), len, {}, /*block_bytes=*/7);
  for (int n = 0; n < code->total_nodes(); ++n) {
    ASSERT_EQ(0, std::memcmp(a.node(n).data(), b.node(n).data(), node_bytes))
        << "node " << n;
  }
}

// dst may alias a source (the kernel gather contract): a statement of the
// form "x = x ^ y" must behave like an in-place accumulate.
TEST(ScheduleRun, DstAliasingSourceIsInPlaceAccumulate) {
  const std::size_t len = 97;
  std::vector<std::uint8_t> x(len), y(len), expect(len);
  Rng rng(kSeed);
  fill_random(x.data(), len, rng);
  fill_random(y.data(), len, rng);
  for (std::size_t i = 0; i < len; ++i) {
    expect[i] = static_cast<std::uint8_t>(x[i] ^ y[i]);
  }

  std::vector<RepairPlan::Target> stmts(1);
  stmts[0].elem = {0, 0};
  stmts[0].sources = {{ElemRef{0, 0}, 1}, {ElemRef{1, 0}, 1}};
  auto prog = compile_schedule(stmts);
  const NodeView views[] = {{x.data(), len, len}, {y.data(), len, len}};
  run_program(*prog, views, len);
  EXPECT_EQ(0, std::memcmp(x.data(), expect.data(), len));
}

// Compiled encode and repair must match the per-byte reference interpreter
// for every code family and every erasure pattern up to the fault tolerance.
template <typename CodePtr>
void diff_all_patterns(const CodePtr& code, const std::string& name) {
  const std::size_t len = 200;  // odd vector multiple: main loops + tails
  const std::size_t node_bytes = len * static_cast<std::size_t>(code->rows());

  StripeBuffers compiled = random_stripe(code->total_nodes(), node_bytes);
  StripeBuffers oracle = compiled;
  {
    auto spans = compiled.spans();
    code->encode_blocks(spans, len);
  }
  reference_run(encode_statements(*code), views_of(oracle, len));
  for (int n = 0; n < code->total_nodes(); ++n) {
    ASSERT_EQ(0, std::memcmp(oracle.node(n).data(), compiled.node(n).data(),
                             node_bytes))
        << name << " encode differs on node " << n;
  }

  const StripeBuffers pristine = compiled;
  for (int failures = 1; failures <= code->fault_tolerance(); ++failures) {
    for_each_subset(
        code->total_nodes(), failures,
        [&](const std::vector<int>& erased) {
          SCOPED_TRACE(name);
          auto plan = code->plan_repair(erased);
          EXPECT_NE(plan, nullptr);
          if (plan == nullptr) return true;
          poison(compiled, erased);
          poison(oracle, erased);
          code->apply(*plan, views_of(compiled, len));
          reference_run(plan->targets, views_of(oracle, len));
          for (int n = 0; n < code->total_nodes(); ++n) {
            EXPECT_EQ(0, std::memcmp(oracle.node(n).data(),
                                     compiled.node(n).data(), node_bytes))
                << "node " << n << " differs from the reference after repair";
            EXPECT_EQ(0, std::memcmp(compiled.node(n).data(),
                                     pristine.node(n).data(), node_bytes))
                << "node " << n << " differs from pristine";
          }
          return true;
        });
  }
}

TEST(ScheduleDiff, Crs) { diff_all_patterns(make_cauchy_rs(4, 2), "CRS(4,2)"); }
TEST(ScheduleDiff, Star) { diff_all_patterns(make_star(5, 3), "STAR(5,3)"); }
TEST(ScheduleDiff, Evenodd) { diff_all_patterns(make_evenodd(5), "EVENODD(5)"); }
TEST(ScheduleDiff, Rs) { diff_all_patterns(make_rs(5, 3), "RS(5,3)"); }
TEST(ScheduleDiff, Lrc) { diff_all_patterns(make_lrc(4, 2, 2), "LRC(4,2,2)"); }

// apply_for_element runs a slice of the compiled repair program.  For every
// erasure pattern up to the fault tolerance and every target element, the
// slice alone must rebuild its element byte-exact while every other erased
// element still holds poison, and must agree with the full apply: a slice
// that drops a CSE temporary or an earlier target it reads fails here.
template <typename CodePtr>
void slice_all_patterns(const CodePtr& code, const std::string& name) {
  const std::size_t len = 200;
  const std::size_t node_bytes = len * static_cast<std::size_t>(code->rows());
  StripeBuffers pristine = random_stripe(code->total_nodes(), node_bytes);
  {
    auto spans = pristine.spans();
    code->encode_blocks(spans, len);
  }
  for (int failures = 1; failures <= code->fault_tolerance(); ++failures) {
    for_each_subset(
        code->total_nodes(), failures,
        [&](const std::vector<int>& erased) {
          SCOPED_TRACE(name);
          auto plan = code->plan_repair(erased);
          EXPECT_NE(plan, nullptr);
          if (plan == nullptr) return true;
          StripeBuffers full = pristine;
          poison(full, erased);
          code->apply(*plan, views_of(full, len));
          for (const auto& target : plan->targets) {
            const ElemRef e = target.elem;
            SCOPED_TRACE("element (" + std::to_string(e.node) + "," +
                         std::to_string(e.row) + ")");
            StripeBuffers sliced = pristine;
            poison(sliced, erased);
            const int executed =
                code->apply_for_element(*plan, views_of(sliced, len), e);
            EXPECT_GE(executed, 1);
            EXPECT_LE(executed, static_cast<int>(plan->targets.size()));
            const std::size_t at = static_cast<std::size_t>(e.row) * len;
            EXPECT_EQ(0, std::memcmp(sliced.node(e.node).data() + at,
                                     pristine.node(e.node).data() + at, len));
            EXPECT_EQ(0, std::memcmp(sliced.node(e.node).data() + at,
                                     full.node(e.node).data() + at, len));
          }
          return true;
        });
  }
}

TEST(ScheduleSlice, Rs) { slice_all_patterns(make_rs(5, 3), "RS(5,3)"); }
TEST(ScheduleSlice, Crs) { slice_all_patterns(make_cauchy_rs(4, 2), "CRS(4,2)"); }
TEST(ScheduleSlice, Lrc) { slice_all_patterns(make_lrc(4, 2, 2), "LRC(4,2,2)"); }
TEST(ScheduleSlice, Star) { slice_all_patterns(make_star(5, 3), "STAR(5,3)"); }
TEST(ScheduleSlice, Evenodd) {
  slice_all_patterns(make_evenodd(5), "EVENODD(5)");
}

}  // namespace
}  // namespace approx::codes
