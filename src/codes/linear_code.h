// LinearCode: the single execution engine behind every erasure code in
// approxcode.
//
// A code instance is a systematic linear map over GF(2^8): k data nodes and
// m parity nodes, each holding `rows` elements.  Every parity element is a
// sparse combination of data ("info") elements; XOR codes are the special
// case where every coefficient is 1 (adjuster chains such as EVENODD's S
// are expanded into data terms at construction time, so parities never
// reference other parities).
//
// Encoding runs the combination lists over strided NodeViews.  Repair of
// an arbitrary erasure pattern is an exact linear solve (see solver.h) that
// yields an XOR/GF *schedule*; schedules are cached per erasure pattern, so
// repeated repairs of the same pattern pay elimination cost once — the same
// design as Jerasure's bit-matrix scheduling.  Every encode, repair and
// scrub executes as a compiled XOR program (schedule_opt.h).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "codes/node_view.h"
#include "codes/solver.h"

namespace approx::codes {

struct XorProgram;  // compiled XOR schedule (schedule_opt.h)

// A repair schedule for one erasure pattern: for every lost element, the
// elements (with coefficients) whose combination rebuilds it.
//
// Targets are ordered for sequential execution: a target's sources may
// reference *earlier targets* (already-rebuilt elements) in addition to
// surviving elements - that is what keeps schedules near-minimal (peeling
// resolves one unknown per parity chain instead of emitting the dense
// Gaussian combination).
struct RepairPlan {
  struct Source {
    ElemRef elem;
    std::uint8_t coeff;
  };
  struct Target {
    ElemRef elem;
    std::vector<Source> sources;
  };

  std::vector<int> erased;      // sorted node ids this plan repairs
  std::vector<Target> targets;  // every element of every erased node, in
                                // dependency order

  // Cost-model aggregates (used by the cluster simulator and the paper's
  // I/O accounting).
  std::vector<int> source_nodes;     // distinct surviving nodes read
  std::size_t source_elements = 0;   // total source terms across targets
  std::size_t target_elements = 0;   // number of rebuilt elements

  // Compiled XOR program for `targets` (CSE + cache-blocked execution, see
  // schedule_opt.h).  Filled lazily by plan_program() on first execution,
  // so feasibility probes (can_repair sweeps over every erasure pattern)
  // never pay compilation.
  mutable std::once_flag compile_once;
  mutable std::shared_ptr<const XorProgram> compiled;
};

class LinearCode {
 public:
  struct Term {
    int info;            // data element index: node * rows + row
    std::uint8_t coeff;  // non-zero
  };

  // parity_elems[(p - k)*rows + row] lists the terms of parity element
  // (node p, row).  fault_tolerance is the code's guaranteed tolerance
  // (callers may still repair luckier patterns beyond it when the algebra
  // allows; can_repair() answers exactly).
  LinearCode(std::string name, int k, int m, int rows,
             std::vector<std::vector<Term>> parity_elems, int fault_tolerance);

  const std::string& name() const noexcept { return name_; }
  int data_nodes() const noexcept { return k_; }
  int parity_nodes() const noexcept { return m_; }
  int total_nodes() const noexcept { return k_ + m_; }
  int rows() const noexcept { return rows_; }
  int fault_tolerance() const noexcept { return fault_tolerance_; }
  bool is_binary() const noexcept { return binary_; }
  int info_count() const noexcept { return k_ * rows_; }

  // --- Coding over strided views -----------------------------------------
  // `nodes` must have total_nodes() entries with equal element length.

  // Compute every parity element.
  void encode(std::span<const NodeView> nodes) const;

  // Compute only the parity elements of the listed parity nodes.
  void encode_parity_nodes(std::span<const NodeView> nodes,
                           std::span<const int> parity_nodes) const;

  // The statements encode_parity_nodes() compiles: one per element of the
  // listed parity nodes, dst = that element, sources = its data terms.
  std::vector<RepairPlan::Target> encode_statements(
      std::span<const int> parity_nodes) const;

  // Exact decodability of an erasure pattern (node granularity).
  bool can_repair(std::span<const int> erased_nodes) const;

  // Schedule for an erasure pattern; nullptr when unrecoverable.
  // Thread-safe; plans are cached per pattern.
  std::shared_ptr<const RepairPlan> plan_repair(
      std::span<const int> erased_nodes) const;

  // Execute a schedule.  The erased nodes' views must be writable; all
  // surviving element data must be present.
  void apply(const RepairPlan& plan, std::span<const NodeView> nodes) const;

  // Execute only the slice of the plan's compiled program needed to
  // rebuild `elem`: its own statement, the earlier targets it reads and the
  // temporaries those statements read, in program order.  Used by degraded
  // reads, which decode one element instead of whole nodes.  Returns the
  // number of targets executed (temporaries not counted); 0 when `elem` is
  // not a target of the plan.
  int apply_for_element(const RepairPlan& plan, std::span<const NodeView> nodes,
                        ElemRef elem) const;

  // plan_repair + apply.  Returns false when unrecoverable.
  bool repair(std::span<const NodeView> nodes,
              std::span<const int> erased_nodes) const;

  // --- Incremental updates -------------------------------------------------
  // Overwrite bytes [offset, offset+new_bytes.size()) of data element
  // (data_node, row) and incrementally patch every affected parity element
  // of the listed parity nodes (read-modify-write, the paper's single-write
  // path).  Returns the number of parity elements patched.
  int update_element(std::span<const NodeView> nodes, int data_node, int row,
                     std::size_t offset, std::span<const std::uint8_t> new_bytes,
                     std::span<const int> parity_nodes) const;

  // Patch parity elements of the listed parity nodes for a data change
  // whose XOR delta over bytes [offset, offset+delta.size()) of element
  // (data_node, row) is `delta`.  The data element itself is NOT written.
  // Returns the number of parity elements patched.
  int apply_update_delta(std::span<const NodeView> nodes, int data_node, int row,
                         std::size_t offset, std::span<const std::uint8_t> delta,
                         std::span<const int> parity_nodes) const;

  // --- Scrubbing ------------------------------------------------------------
  struct ScrubResult {
    std::vector<ElemRef> mismatched;  // parity elements whose recomputation
                                      // disagrees with the stored value
    bool clean() const { return mismatched.empty(); }
  };

  // Recompute the parity elements of the listed parity nodes and compare
  // with the stored values (silent-corruption detection).  Read-only.
  ScrubResult scrub(std::span<const NodeView> nodes,
                    std::span<const int> parity_nodes) const;
  ScrubResult scrub(std::span<const NodeView> nodes) const;  // all parities

  // Position-based localization: if the mismatch signature matches exactly
  // one data element's parity membership, that element is the culprit.
  // Works for array codes whose elements have distinctive signatures
  // (EVENODD/STAR/TIP/CRS); returns nullopt when ambiguous (e.g. RS with
  // rows == 1, where every data element touches every parity).
  std::optional<ElemRef> locate_single_corruption(
      std::span<const NodeView> nodes) const;

  // --- Convenience for contiguous buffers --------------------------------
  void encode_blocks(std::span<std::span<std::uint8_t>> nodes,
                     std::size_t block_size) const;
  bool repair_blocks(std::span<std::span<std::uint8_t>> nodes,
                     std::size_t block_size,
                     std::span<const int> erased_nodes) const;

  // --- Analytic metrics ---------------------------------------------------
  // Total stored volume / data volume = n/k.
  double storage_overhead() const noexcept;
  // Average element writes per single data-element update (the data element
  // itself plus every parity element containing it): the paper's
  // "single write cost".
  double avg_single_write_cost() const noexcept;
  // Sum over parity elements of term-list length (encoding work volume).
  std::size_t total_parity_terms() const noexcept { return total_terms_; }

  // Term list of one parity element (for analysis and composition).
  const std::vector<Term>& parity_terms(int parity_node, int row) const;

 private:
  SparseRow element_row(ElemRef e) const;
  std::shared_ptr<const RepairPlan> compute_plan(const std::vector<int>& erased) const;

  // Compiled program computing the listed parity nodes from the data,
  // cached per parity-node list (bounded: one entry per distinct list
  // callers use).
  std::shared_ptr<const XorProgram> encode_program(
      std::span<const int> parity_nodes) const;

  std::string name_;
  int k_;
  int m_;
  int rows_;
  int fault_tolerance_;
  bool binary_;
  std::size_t total_terms_;
  std::vector<std::vector<Term>> parity_elems_;

  mutable std::mutex cache_mu_;
  mutable std::map<std::vector<int>, std::shared_ptr<const RepairPlan>> plan_cache_;
  mutable std::map<std::vector<int>, std::shared_ptr<const XorProgram>>
      encode_prog_cache_;
  mutable bool cache_enabled_ = true;

  // Lazily built reverse index: info element -> (parity element id, coeff),
  // with parity element id = (parity_node - k) * rows + row.
  const std::vector<std::vector<std::pair<int, std::uint8_t>>>& update_index() const;
  mutable std::once_flag update_index_once_;
  mutable std::vector<std::vector<std::pair<int, std::uint8_t>>> update_index_;

 public:
  // Benchmark hook (ablation): disable the schedule cache.
  void set_plan_cache_enabled(bool enabled) const;

  // Benchmark hook (ablation): disable the peeling stage so every target
  // is solved by Gaussian elimination alone (dense schedules).
  void set_peeling_enabled(bool enabled) const;

 private:
  mutable bool peeling_enabled_ = true;
};

// Helpers shared by code constructions.
inline int info_index(int node, int row, int rows) { return node * rows + row; }

}  // namespace approx::codes
