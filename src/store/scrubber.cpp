#include "store/scrubber.h"

#include <algorithm>
#include <map>

#include "common/buffer.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "store/pipeline.h"

namespace approx::store {

std::vector<int> ScrubReport::damaged_nodes() const {
  std::vector<int> nodes;
  nodes.reserve(damaged.size());
  for (const auto& d : damaged) nodes.push_back(d.node);
  return nodes;
}

// ---------------------------------------------------------------------------
// Scrub
// ---------------------------------------------------------------------------

ScrubReport ScrubService::scrub() {
  APPROX_OBS_SPAN(span_total, "store.scrub");
  // Scrub scans are background work: yield pool slots to interactive reads.
  ThreadPool::TaskClassScope bulk_scope(TaskClass::kBulk);
  static obs::ShardedCounter& c_bytes =
      obs::registry().sharded_counter("store.scrub.bytes");
  static obs::Counter& c_corrupt =
      obs::registry().counter("store.scrub.corruptions");

  const int total = vol_.code().total_nodes();
  ScrubReport report;
  report.integrity_checked = vol_.version() == kVolumeV2;

  // One independent scan task per node file; slots are disjoint, so the
  // workers need no lock beyond the pool's join barrier.
  struct NodeScan {
    bool damaged = false;
    bool missing = false;
    std::vector<std::uint64_t> bad_blocks;
    std::uint64_t bytes = 0;
  };
  std::vector<NodeScan> scans(static_cast<std::size_t>(total));

  vol_.pool().parallel_for(0, static_cast<std::size_t>(total),
                           [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      NodeScan& scan = scans[i];
      ChunkFileReader reader = vol_.make_reader(static_cast<int>(i));
      IoStatus st = reader.open();
      if (!st.ok()) {
        // Absent, truncated, or unreadable after retries: all of these
        // queue the node for repair rather than aborting the scan.
        scan.damaged = true;
        scan.missing = true;
        continue;
      }
      st = reader.verify(scan.bad_blocks, scan.bytes);
      if (!st.ok()) {
        scan.damaged = true;
        scan.missing = true;
      } else if (!scan.bad_blocks.empty()) {
        scan.damaged = true;
      }
      c_bytes.add(scan.bytes);
    }
  });

  for (int n = 0; n < total; ++n) {
    NodeScan& scan = scans[static_cast<std::size_t>(n)];
    report.bytes_scanned += scan.bytes;
    if (!scan.damaged) continue;
    report.damaged.push_back(
        {n, scan.missing, std::move(scan.bad_blocks)});
    report.corrupt_blocks += report.damaged.back().bad_blocks.size();
    if (scan.missing) ++report.missing_nodes;
  }
  c_corrupt.add(report.corrupt_blocks + report.missing_nodes);
  return report;
}

// ---------------------------------------------------------------------------
// Repair
// ---------------------------------------------------------------------------

RepairOutcome ScrubService::repair(const RepairOptions& opts) {
  return repair_damage(scrub(), opts);
}

RepairOutcome ScrubService::repair_damage(const ScrubReport& report,
                                          const RepairOptions& opts) {
  RepairOutcome outcome;
  if (report.clean()) return outcome;
  outcome.attempted = true;

  APPROX_OBS_SPAN(span_total, "store.repair");
  ThreadPool::TaskClassScope bulk_scope(TaskClass::kBulk);
  static obs::ShardedCounter& c_rebuilt =
      obs::registry().sharded_counter("store.repair.bytes_rebuilt");

  const core::ApproximateCode& code = vol_.code();
  const int total = code.total_nodes();
  const std::uint64_t nb = code.node_bytes();

  std::vector<bool> missing(static_cast<std::size_t>(total), false);
  std::vector<bool> damaged(static_cast<std::size_t>(total), false);
  std::vector<int> erased_union;
  for (const auto& d : report.damaged) {
    damaged[static_cast<std::size_t>(d.node)] = true;
    if (d.missing) missing[static_cast<std::size_t>(d.node)] = true;
    erased_union.push_back(d.node);
  }
  std::sort(erased_union.begin(), erased_union.end());

  // The union plan bounds which surviving files repair may touch: the
  // per-stripe erasure sets streamed below are subsets of the union, so
  // their writes (including parity normalization) land inside this set.
  core::ApproximateCode::RepairOptions code_opts;
  code_opts.normalize_parity = opts.normalize_parity;
  const auto union_plan = code.plan_repair(erased_union, code_opts);
  std::vector<int> rewrite;
  for (int n = 0; n < total; ++n) {
    if (damaged[static_cast<std::size_t>(n)] ||
        union_plan.bytes_written_per_node[static_cast<std::size_t>(n)] > 0) {
      rewrite.push_back(n);
    }
  }

  std::vector<std::unique_ptr<ChunkFileReader>> readers(
      static_cast<std::size_t>(total));
  for (int n = 0; n < total; ++n) {
    if (missing[static_cast<std::size_t>(n)]) continue;
    readers[static_cast<std::size_t>(n)] =
        std::make_unique<ChunkFileReader>(vol_.make_reader(n));
    const IoStatus st = readers[static_cast<std::size_t>(n)]->open();
    if (!st.ok()) {
      throw StoreError(st.code, "repair source became unreadable: " + st.message);
    }
  }

  std::vector<std::unique_ptr<ChunkFileWriter>> writers;
  const auto abort_writers = [&] {
    for (auto& w : writers) w->abort();
  };
  for (const int n : rewrite) {
    writers.push_back(std::make_unique<ChunkFileWriter>(
        vol_.io(), vol_.node_path(n), vol_.options().io_payload,
        vol_.version() == kVolumeV2, vol_.options().retry));
    const IoStatus st = writers.back()->open();
    if (!st.ok()) {
      abort_writers();
      throw StoreError(st.code, "opening repair output: " + st.message);
    }
  }

  // Pipeline slots: sequential reads fill a slot and record its per-stripe
  // erasure set, repair math runs concurrently, and the ordered write
  // stage appends the rebuilt stripes and folds each slot's outcome.
  ThreadPool& pipeline_pool = vol_.pool();
  const int depth =
      resolve_pipeline_depth(vol_.options().pipeline_depth, pipeline_pool);

  struct Slot {
    StripeBuffers stripe;
    std::vector<int> erased;
    std::vector<std::uint64_t> bad;
    // Repair outcome of this chunk, folded in by the write stage.
    bool repaired = false;
    bool fully_recovered = true;
    bool all_important_recovered = true;
    std::uint64_t unimportant_bytes_lost = 0;
  };
  std::vector<Slot> slots;
  slots.reserve(static_cast<std::size_t>(depth));
  for (int d = 0; d < depth; ++d) {
    slots.push_back(Slot{StripeBuffers(total, nb), {}, {}});
  }

  PipelineStages stages;
  stages.read = [&](std::uint64_t c, int si) -> IoStatus {
    Slot& slot = slots[static_cast<std::size_t>(si)];
    slot.erased.clear();
    for (int n = 0; n < total; ++n) {
      if (missing[static_cast<std::size_t>(n)]) {
        slot.stripe.clear_node(n);
        slot.erased.push_back(n);
        continue;
      }
      slot.bad.clear();
      const IoStatus st = readers[static_cast<std::size_t>(n)]->read(
          c * nb, slot.stripe.node(n), &slot.bad);
      if (!st.ok()) return st;
      if (!slot.bad.empty()) {
        // Erased for this stripe only; other stripes still use this node.
        slot.stripe.clear_node(n);
        slot.erased.push_back(n);
      }
    }
    return IoStatus::success();
  };
  stages.process = [&](std::uint64_t, int si) -> IoStatus {
    Slot& slot = slots[static_cast<std::size_t>(si)];
    auto spans = slot.stripe.spans();
    slot.repaired = !slot.erased.empty();
    slot.fully_recovered = true;
    slot.all_important_recovered = true;
    slot.unimportant_bytes_lost = 0;
    if (slot.repaired) {
      APPROX_OBS_SPAN(span_chunk, "store.stripe_repair");
      const auto rep = code.repair(spans, slot.erased, code_opts);
      slot.fully_recovered = rep.fully_recovered;
      slot.all_important_recovered = rep.all_important_recovered;
      slot.unimportant_bytes_lost = rep.unimportant_data_bytes_lost;
    }
    return IoStatus::success();
  };
  stages.write = [&](std::uint64_t, int si) -> IoStatus {
    Slot& slot = slots[static_cast<std::size_t>(si)];
    if (slot.repaired) {
      outcome.fully_recovered &= slot.fully_recovered;
      outcome.all_important_recovered &= slot.all_important_recovered;
      outcome.unimportant_bytes_lost += slot.unimportant_bytes_lost;
      ++outcome.stripes_repaired;
    }
    for (std::size_t w = 0; w < writers.size(); ++w) {
      const IoStatus st =
          writers[w]->append(slot.stripe.node(rewrite[w]));
      if (!st.ok()) return st;
      c_rebuilt.add(nb);
    }
    return IoStatus::success();
  };
  stages.reset = [&](int si) {
    Slot& slot = slots[static_cast<std::size_t>(si)];
    slot.erased.clear();
    slot.bad.clear();
    slot.repaired = false;
    for (int n = 0; n < total; ++n) slot.stripe.clear_node(n);
  };

  IoStatus st = run_pipeline(pipeline_pool, vol_.manifest().chunks, depth, stages);
  if (!st.ok()) {
    abort_writers();
    throw StoreError(st.code, "repairing volume: " + st.message);
  }
  for (auto& w : writers) {
    st = w->finish();
    if (!st.ok()) {
      abort_writers();
      throw StoreError(st.code, "committing repaired chunk file: " + st.message);
    }
  }
  outcome.rebuilt_nodes = rewrite;
  // Rebuilt nodes leave the self-healing damage queue and shed any
  // quarantine debris a degraded read left behind.
  vol_.note_repaired(rewrite);
  return outcome;
}

// ---------------------------------------------------------------------------
// Background drain of the self-healing damage queue
// ---------------------------------------------------------------------------

RepairOutcome ScrubService::drain_pending(const RepairOptions& opts) {
  ThreadPool::TaskClassScope bulk_scope(TaskClass::kBulk);
  const std::vector<int> pending = vol_.take_pending_repairs();
  if (pending.empty()) return {};

  // Re-scrub only the queued nodes: a node may have been repaired (or
  // falsely accused by a transient read error) since it was enqueued.
  ScrubReport report;
  report.integrity_checked = vol_.version() == kVolumeV2;
  std::vector<int> healthy;
  for (const int n : pending) {
    DamageRecord rec;
    rec.node = n;
    ChunkFileReader reader = vol_.make_reader(n);
    IoStatus st = reader.open();
    if (!st.ok()) {
      rec.missing = true;
    } else {
      std::uint64_t bytes = 0;
      st = reader.verify(rec.bad_blocks, bytes);
      report.bytes_scanned += bytes;
      if (!st.ok()) rec.missing = true;
    }
    if (rec.missing || !rec.bad_blocks.empty()) {
      report.corrupt_blocks += rec.bad_blocks.size();
      if (rec.missing) ++report.missing_nodes;
      report.damaged.push_back(std::move(rec));
    } else {
      healthy.push_back(n);
    }
  }
  // Healthy nodes just leave the queue (and lose any stale quarantine
  // debris); the rest go through the normal streaming repair.
  if (!healthy.empty()) vol_.note_repaired(healthy);
  return repair_damage(report, opts);
}

}  // namespace approx::store
