// MixedCode: element-mapped linear codes with distributed parity.
//
// LinearCode assumes dedicated parity nodes.  A second family of array
// codes - X-code, B-code, the original TIP layout - stores parity cells
// *inside* the data columns, which is what makes them update-optimal
// (tools/tip_search.cpp shows dedicated columns cannot be).  MixedCode
// drops the systematic-node assumption: every (node, row) element is
// declared either an information element or a parity combination, and
// repair runs the same peel-then-eliminate schedule construction over the
// surviving elements.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "codes/linear_code.h"

namespace approx::codes {

class MixedCode {
 public:
  struct Element {
    bool is_parity = false;
    int info = -1;                      // information index when !is_parity
    std::vector<LinearCode::Term> terms;  // combination when is_parity
  };

  // table[node * rows + row] describes every element.  Information indices
  // must form exactly 0..info_count-1; parity terms reference information
  // indices only.
  MixedCode(std::string name, int nodes, int rows, std::vector<Element> table,
            int fault_tolerance);

  const std::string& name() const noexcept { return name_; }
  int total_nodes() const noexcept { return nodes_; }
  int rows() const noexcept { return rows_; }
  int fault_tolerance() const noexcept { return fault_tolerance_; }
  int info_count() const noexcept { return info_count_; }
  const Element& element(int node, int row) const;

  // Total stored elements / information elements.
  double storage_overhead() const noexcept;
  // Element writes per information update (1 + parity memberships).
  double avg_single_write_cost() const noexcept;

  // Compute every parity element from the information elements.
  void encode(std::span<const NodeView> nodes) const;

  bool can_repair(std::span<const int> erased_nodes) const;
  std::shared_ptr<const RepairPlan> plan_repair(
      std::span<const int> erased_nodes) const;
  void apply(const RepairPlan& plan, std::span<const NodeView> nodes) const;
  bool repair(std::span<const NodeView> nodes,
              std::span<const int> erased_nodes) const;

  // Contiguous-buffer convenience (like LinearCode::*_blocks).
  void encode_blocks(std::span<std::span<std::uint8_t>> nodes,
                     std::size_t block_size) const;
  bool repair_blocks(std::span<std::span<std::uint8_t>> nodes,
                     std::size_t block_size,
                     std::span<const int> erased_nodes) const;

 private:
  std::shared_ptr<const RepairPlan> compute_plan(const std::vector<int>& erased) const;

  std::string name_;
  int nodes_;
  int rows_;
  int fault_tolerance_;
  int info_count_;
  std::vector<Element> table_;
  // info index -> (node, row)
  std::vector<ElemRef> info_home_;
  // Every parity element from its information terms, compiled once.
  std::shared_ptr<const XorProgram> encode_prog_;

  mutable std::mutex cache_mu_;
  mutable std::map<std::vector<int>, std::shared_ptr<const RepairPlan>> plan_cache_;
};

// X-code(p): p x p array over prime p; rows 0..p-3 hold data, rows p-2 and
// p-1 hold the two diagonal parities (slopes +1 and -1) - distributed
// parity with optimal update complexity (every data cell in exactly two
// parity cells).  Tolerance 2; verified exhaustively in tests.
std::shared_ptr<const MixedCode> make_xcode(int p);

}  // namespace approx::codes
