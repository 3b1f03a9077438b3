// Per-byte reference interpreter for statement lists: the oracle the
// compiled XOR programs (codes/schedule_opt.h) are checked against.  It
// multiplies through the gf::mul table, never the SIMD kernels, so a bug in
// the kernels or the schedule compiler cannot hide on both sides.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "codes/linear_code.h"
#include "gf/gf256.h"

namespace approx::testsupport {

// Run `stmts` in order: each target element becomes the sum of
// coeff * source over its sources.  A statement may read elements written
// by earlier statements (repair schedules do).
inline void reference_run(std::span<const codes::RepairPlan::Target> stmts,
                          std::span<const codes::NodeView> nodes) {
  const std::size_t len = nodes[0].len;
  std::vector<std::uint8_t> acc(len);
  for (const auto& t : stmts) {
    std::fill(acc.begin(), acc.end(), std::uint8_t{0});
    for (const auto& src : t.sources) {
      const std::uint8_t* p =
          nodes[static_cast<std::size_t>(src.elem.node)].elem(src.elem.row);
      for (std::size_t i = 0; i < len; ++i) acc[i] ^= gf::mul(src.coeff, p[i]);
    }
    std::copy(acc.begin(), acc.end(),
              nodes[static_cast<std::size_t>(t.elem.node)].elem(t.elem.row));
  }
}

}  // namespace approx::testsupport
