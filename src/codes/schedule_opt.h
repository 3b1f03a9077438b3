// Schedule compiler: turns the statement lists the codes execute (encode
// statements and repair schedules) into an optimized XOR program.
//
// Two transformations, in the spirit of Uezato's XOR-scheduling work:
//
//  1. Common-subexpression elimination.  Parity rows of bit-matrix codes
//     (CRS, EVENODD, STAR) share long runs of identical XOR pairs; a greedy
//     pass repeatedly hoists the most frequent operand pair into a temporary
//     (`t = a ^ b`) and rewrites every statement that contains both.  Only
//     coefficient-1 operands that are never *written* by the program are
//     eligible, so every temporary can be computed up front without
//     disturbing the dependency order repair schedules rely on (a repair
//     target may read earlier targets; those stay inline).
//  2. Cache-blocked fusion.  Instead of streaming each statement over the
//     full element length (evicting every operand between statements), the
//     executor walks the element range in ~32 KiB blocks and runs the whole
//     program per block, so temporaries and shared operands stay resident
//     in L1/L2.  Temporaries need one block of scratch each - a single
//     allocation per run, not per statement.
//
// run_program() is the only statement executor in src/codes: encode,
// repair, degraded-read slices and scrub of LinearCode and MixedCode all
// run through it.  Each statement is a multi-source XOR gather (dst may
// alias any single source, per the kernel contract) followed by GF
// multiply-accumulates for non-unit coefficients, so the result equals the
// per-byte sum dst = sum(coeff * src).  Coefficients survive compilation
// untouched - CSE only ever merges pure XOR operands.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "codes/linear_code.h"
#include "codes/node_view.h"

namespace approx::codes {

// Default execution block.  32 KiB keeps (operands + dst + temps) of typical
// programs inside L1/L2 while still amortizing per-statement pointer setup.
inline constexpr std::size_t kScheduleBlockBytes = 32 * 1024;

// A compiled XOR program.  Statements run in order; temporaries are scratch
// elements local to one execution block.
struct XorProgram {
  static constexpr std::int32_t kTempNode = -1;

  struct Ref {
    std::int32_t node;  // >= 0: element (node, row); kTempNode: temp, index
    std::int32_t row;   //       in `row`
  };
  struct Source {
    Ref ref;
    std::uint8_t coeff;  // 1 = pure XOR operand
  };
  struct Stmt {
    Ref dst;
    std::vector<Source> sources;
  };

  std::vector<Stmt> stmts;  // temp definitions first (temp t is defined by
                            // stmts[t]), then the original statements in
                            // input order
  int temp_count = 0;

  // XOR-pass accounting (sum over statements of max(sources - 1, 0)): the
  // byte passes a straight-line executor performs.  GF multiply terms are
  // unaffected by CSE and counted in both.
  std::size_t naive_xors = 0;
  std::size_t compiled_xors = 0;
};

// Compile a statement list (each target: dst element = combination of source
// elements).  Always succeeds; when no sharing exists the program is the
// input verbatim (still gains cache blocking).  Statement order is
// preserved, so repair-schedule dependency order is respected.
std::shared_ptr<const XorProgram> compile_schedule(
    std::span<const RepairPlan::Target> stmts);

// The program of a repair plan, compiled on first use and cached in the
// plan (feasibility probes that never execute a plan never compile it).
const XorProgram& plan_program(const RepairPlan& plan);

// Execute a compiled program over strided node views.  `nodes` is indexed by
// Ref::node; every view must have element length `len`.  A non-empty
// `slice` lists the statements to run (ascending indices into prog.stmts,
// closed under dependencies); empty runs the whole program.  `block_bytes`
// is a test hook (odd lengths / tiny blocks); callers use the default.
void run_program(const XorProgram& prog, std::span<const NodeView> nodes,
                 std::size_t len, std::span<const std::uint32_t> slice = {},
                 std::size_t block_bytes = kScheduleBlockBytes);

}  // namespace approx::codes
