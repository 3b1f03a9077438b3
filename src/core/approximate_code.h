// ApproximateCode: the paper's primary contribution.
//
// An Approximate Code instance APPR.<Family>(k, r, g, h, structure) stores
// h local stripes of k data + r local-parity nodes plus g global parity
// nodes.  Exactly 1/h of the data is "important" (video I-frames); the
// global parities protect only that fraction, so:
//   - any  r          node failures: everything is repaired locally;
//   - any  r+g        node failures: important data is always repaired
//                     (through the base code formed by data + local + global
//                     parities); unimportant data beyond the local tolerance
//                     is reported lost (and handed to the video-recovery
//                     module at a higher layer);
//   - the framework never reads more nodes than the selected plan needs,
//     which is where the paper's recovery-speed gains come from.
//
// Geometry.  Each node holds rows() elements of block_size bytes.  Under
// the Even structure the important fraction is the first block_size/h bytes
// of *every* element of every data node, and global parity nodes are split
// into h per-stripe segments; parity equations hold byte-wise, so the
// important byte range of stripe s plus segment s of the globals forms a
// complete base-code stripe at element length block_size/h ("virtual
// stripe").  Under the Uneven structure stripe 0 holds all important data
// and the globals are whole-node parities over stripe 0.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "codes/linear_code.h"
#include "core/appr_params.h"

namespace approx::core {

// Outcome of one stripe's repair within a failure pattern.
struct StripeOutcome {
  enum class Kind {
    Intact,               // no failures in this stripe
    LocalRepair,          // <= local tolerance: full repair via local parities
    ImportantOnlyRepair,  // important range repaired via globals; unimportant lost
    Unrecoverable         // nothing repairable in this stripe
  };
  int stripe = 0;
  Kind kind = Kind::Intact;
  std::vector<int> failed_members;  // real node ids (data + local parities)
  // Schedule to execute: in local-stripe coordinates for LocalRepair, in
  // base-code (virtual stripe) coordinates for ImportantOnlyRepair.
  std::shared_ptr<const codes::RepairPlan> plan;
};

// Full repair schedule + bookkeeping for one failure pattern.
struct RepairReport {
  std::vector<int> erased;               // sorted node ids
  std::vector<StripeOutcome> stripes;    // one entry per stripe (always h)
  std::vector<int> failed_globals;       // failed global parity indices
  // Global parity segments to re-encode: (global index, stripe).
  std::vector<std::pair<int, int>> reencode_segments;
  // Stripes whose local parities are recomputed after the repair left
  // zero-filled holes, so the stripe stays self-consistent for scrubbing
  // and degraded reads.  full_range covers Unrecoverable stripes (even the
  // important byte range may hold holes); otherwise only the unimportant
  // range is recomputed.
  struct Normalization {
    int stripe = 0;
    bool full_range = false;
  };
  std::vector<Normalization> normalize_stripes;

  bool fully_recovered = true;        // every erased byte restored
  bool all_important_recovered = true;
  std::size_t important_data_bytes_lost = 0;    // data nodes only
  std::size_t unimportant_data_bytes_lost = 0;  // data nodes only

  // I/O + compute accounting (drives the cluster simulator and the paper's
  // recovery-time experiments).
  std::vector<std::size_t> bytes_read_per_node;
  std::vector<std::size_t> bytes_written_per_node;  // restored bytes per node
  std::size_t bytes_read = 0;
  std::size_t bytes_written = 0;
  std::size_t compute_bytes = 0;  // XOR/GF-processed source bytes
};

class ApproximateCode {
 public:
  // Throws InvalidArgument unless params.validate(block_size) passes.
  ApproximateCode(ApprParams params, std::size_t block_size);

  const ApprParams& params() const noexcept { return params_; }
  std::string name() const { return params_.name(); }
  int total_nodes() const noexcept { return params_.total_nodes(); }
  int rows() const noexcept { return rows_; }
  std::size_t block_size() const noexcept { return block_size_; }
  std::size_t node_bytes() const noexcept {
    return block_size_ * static_cast<std::size_t>(rows_);
  }

  const codes::LinearCode& local_code() const noexcept { return *local_; }
  const codes::LinearCode& base_code() const noexcept { return *base_; }

  // --- Logical data layout ------------------------------------------------
  // Important capacity equals one stripe's worth of data (k nodes);
  // unimportant capacity is the remaining (h-1)/h fraction.
  std::size_t important_capacity() const noexcept;
  std::size_t unimportant_capacity() const noexcept;

  // Global stripes ("chunks") needed to hold `important_len` important and
  // `unimportant_len` unimportant bytes: at least one, enough for each
  // stream.  Throws InvalidArgument for unimportant bytes when the code
  // has no unimportant capacity (h = 1).
  std::uint64_t chunk_count(std::uint64_t important_len,
                            std::uint64_t unimportant_len) const;

  struct Range {
    std::size_t offset = 0;
    std::size_t len = 0;
  };
  // Contiguous range a data node occupies in the logical important /
  // unimportant byte streams (len 0 when the node holds none).
  Range node_important_range(int node) const;
  Range node_unimportant_range(int node) const;

  // Copy logical streams into / out of node buffers (sizes must equal the
  // respective capacities; node buffers must be node_bytes() each).
  void scatter(std::span<const std::uint8_t> important,
               std::span<const std::uint8_t> unimportant,
               std::span<std::span<std::uint8_t>> nodes) const;
  void gather(std::span<std::span<std::uint8_t>> nodes,
              std::span<std::uint8_t> important,
              std::span<std::uint8_t> unimportant) const;

  // --- Coding --------------------------------------------------------------
  // Compute all h*r local parity nodes and g global parity nodes.
  void encode(std::span<std::span<std::uint8_t>> nodes) const;

  struct RepairOptions {
    // Recompute local parities over zero-filled holes so repaired stripes
    // scrub clean.  Off by default: like HDFS-EC, lost ranges are normally
    // tracked in metadata and the extra parity I/O is not spent (this also
    // matches the paper's recovery-cost accounting).
    bool normalize_parity = false;
  };

  // Build the repair schedule for a failure pattern without touching data.
  RepairReport plan_repair(std::span<const int> erased) const;
  RepairReport plan_repair(std::span<const int> erased,
                           RepairOptions options) const;

  // Execute a schedule produced by plan_repair on actual buffers.
  void execute(const RepairReport& report,
               std::span<std::span<std::uint8_t>> nodes) const;

  // plan_repair + execute.
  RepairReport repair(std::span<std::span<std::uint8_t>> nodes,
                      std::span<const int> erased) const;
  RepairReport repair(std::span<std::span<std::uint8_t>> nodes,
                      std::span<const int> erased, RepairOptions options) const;

  // --- Incremental updates (the single-write path of Fig. 8) --------------
  // Precondition: the stripes being updated carry consistent parity.  After
  // a repair that left zero-filled holes, either the repair must have run
  // with RepairOptions::normalize_parity or the caller must re-encode
  // before updating, otherwise delta-patching compounds the stale parity
  // (see tests/core/soak_test.cpp).
  struct UpdateReport {
    std::size_t data_bytes_written = 0;
    std::size_t parity_bytes_written = 0;
    int parity_elements_touched = 0;
    bool touched_globals = false;
  };

  // Overwrite bytes [offset, offset+data.size()) of the logical important
  // stream, patching local parities and the global parity segments
  // incrementally (no re-encode).
  UpdateReport update_important(std::span<std::span<std::uint8_t>> nodes,
                                std::size_t offset,
                                std::span<const std::uint8_t> data) const;

  // Overwrite bytes of the logical unimportant stream; only local parities
  // are touched - the source of the framework's low update cost.
  UpdateReport update_unimportant(std::span<std::span<std::uint8_t>> nodes,
                                  std::size_t offset,
                                  std::span<const std::uint8_t> data) const;

  // --- Degraded reads -------------------------------------------------------
  // Serve a logical-stream read while `erased` nodes are unavailable,
  // decoding the minimum schedule slice on the fly into scratch memory.
  // The stored node buffers are never modified.
  struct DegradedReadReport {
    bool ok = true;                  // false: range unrecoverable
    std::size_t bytes_decoded = 0;   // bytes served through repair math
    std::size_t bytes_direct = 0;    // bytes served by plain reads
    bool used_global_repair = false; // some piece needed the global tier
  };

  DegradedReadReport degraded_read_important(
      std::span<std::span<std::uint8_t>> nodes, std::span<const int> erased,
      std::size_t offset, std::span<std::uint8_t> out) const;

  DegradedReadReport degraded_read_unimportant(
      std::span<std::span<std::uint8_t>> nodes, std::span<const int> erased,
      std::size_t offset, std::span<std::uint8_t> out) const;

  // --- Scrubbing -------------------------------------------------------------
  struct ScrubReport {
    // Real (node, row) coordinates of parity elements whose recomputation
    // disagrees with the stored bytes.  For global parity nodes the row is
    // reported once per disagreeing stripe segment.
    std::vector<codes::ElemRef> mismatched;
    bool clean() const { return mismatched.empty(); }
  };

  // Verify every local parity and every global parity segment against the
  // stored data (silent-corruption detection).  Read-only.
  ScrubReport scrub(std::span<std::span<std::uint8_t>> nodes) const;

 private:
  std::size_t seg() const noexcept { return block_size_ / static_cast<std::size_t>(params_.h); }

  std::vector<codes::NodeView> local_views(std::span<std::span<std::uint8_t>> nodes,
                                           int stripe) const;
  std::vector<codes::NodeView> virtual_views(std::span<std::span<std::uint8_t>> nodes,
                                             int stripe) const;
  void account_plan(const codes::RepairPlan& plan, int stripe, bool is_virtual,
                    RepairReport& report) const;
  int virtual_to_real(int stripe, int virtual_node) const;

  ApprParams params_;
  std::size_t block_size_;
  int rows_;
  std::shared_ptr<const codes::LinearCode> local_;  // family_make(k, r)
  std::shared_ptr<const codes::LinearCode> base_;   // family_make(k, r+g)
};

}  // namespace approx::core
