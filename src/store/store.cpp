#include "store/store.h"

#include <algorithm>
#include <cstring>
#include <set>

#include "common/buffer.h"
#include "common/crc32.h"
#include "obs/metrics.h"
#include "obs/slow_ops.h"
#include "obs/span.h"
#include "store/pipeline.h"
#include "store/read_cache.h"

namespace approx::store {

namespace {

[[noreturn]] void throw_io(const IoStatus& st, const std::string& context) {
  throw StoreError(st.code, context + ": " + st.message);
}

// Robustness instruments, registered eagerly (first VolumeStore touch) so
// `approxcli stats` and the bench --json dumps always carry them, even for
// a run that never hit a fault.
struct RobustnessMetrics {
  obs::Counter& degraded_reads =
      obs::registry().counter("store.degraded_reads");
  obs::Counter& quarantined =
      obs::registry().counter("store.quarantined_chunks");
  obs::Counter& crash_recoveries =
      obs::registry().counter("store.crash_recoveries");
  obs::Gauge& queue_depth = obs::registry().gauge("store.repair.queue_depth");
  // Slow-op counters (bumped by obs::SlowOps when an operation crosses the
  // APPROX_SLOW_OP_US threshold), registered here so they always appear.
  obs::Counter& read_slow = obs::registry().counter("store.read.slow");
  obs::Counter& decode_slow = obs::registry().counter("store.decode.slow");

  static RobustnessMetrics& get() {
    static RobustnessMetrics m;
    return m;
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

VolumeStore::VolumeStore(IoBackend& io, std::filesystem::path dir,
                         StoreOptions opts)
    : VolumeStore(io, dir, opts, Manifest::load(io, dir)) {
  // Opening a committed volume is the "reboot" moment: clear whatever a
  // crashed writer left behind before serving reads.
  sweep_crash_debris();
}

VolumeStore::VolumeStore(IoBackend& io, std::filesystem::path dir,
                         StoreOptions opts, Manifest manifest)
    : io_(io),
      dir_(std::move(dir)),
      opts_(std::move(opts)),
      manifest_(std::move(manifest)),
      code_(std::make_unique<core::ApproximateCode>(manifest_.params,
                                                    manifest_.block)),
      cache_tag_(dir_.string()),
      flights_(opts_.pool != nullptr ? opts_.pool : &ThreadPool::global()) {
  // Hot-tier cache: a shared instance wins; otherwise the resolved
  // capacity knob (StoreOptions.cache_mb / APPROX_CACHE_MB) creates a
  // store-private one.
  if (opts_.cache != nullptr) {
    cache_ = opts_.cache;
  } else if (const std::size_t cap = resolve_cache_capacity(opts_.cache_mb);
             cap > 0) {
    ReadCacheOptions copts;
    copts.capacity_bytes = cap;
    cache_ = std::make_shared<ReadCache>(copts);
  }
  // Touching any volume registers the robustness instruments, so stats and
  // bench dumps always carry them (at zero) even for fault-free runs.
  (void)RobustnessMetrics::get();
  if (manifest_.version == kVolumeV2) {
    opts_.io_payload = manifest_.io_payload;
    // The superblock is the binary authority on the layout; a manifest
    // that disagrees with it means the volume was hand-edited or mixed
    // from two volumes.
    const std::filesystem::path sb_path = dir_ / kSuperblockFile;
    if (io_.exists(sb_path)) {
      std::array<std::uint8_t, kSuperblockBytes> raw{};
      std::unique_ptr<IoFile> f;
      IoStatus st = io_.open(sb_path, IoBackend::OpenMode::kRead, f);
      if (st.ok()) st = f->pread(0, raw);
      if (!st.ok()) throw_io(st, "reading superblock");
      const Superblock sb = Superblock::deserialize(raw);
      if (sb.params.family != manifest_.params.family ||
          sb.params.k != manifest_.params.k ||
          sb.params.r != manifest_.params.r ||
          sb.params.g != manifest_.params.g ||
          sb.params.h != manifest_.params.h ||
          sb.params.structure != manifest_.params.structure ||
          sb.block_size != manifest_.block ||
          sb.io_payload != manifest_.io_payload) {
        throw Error("superblock and manifest disagree in " + dir_.string());
      }
    } else {
      throw Error("v2 volume without superblock in " + dir_.string());
    }
  }
}

ThreadPool& VolumeStore::pool() const noexcept {
  return opts_.pool != nullptr ? *opts_.pool : ThreadPool::global();
}

// ---------------------------------------------------------------------------
// Self-healing bookkeeping
// ---------------------------------------------------------------------------

std::filesystem::path VolumeStore::quarantine_path(int node) const {
  return node_path(node).string() + kQuarantineSuffix;
}

void VolumeStore::sweep_crash_debris() {
  RobustnessMetrics& m = RobustnessMetrics::get();
  std::uint64_t swept = 0;

  // Stale ".tmp" staging files: a crashed writer never renamed them, so
  // they are garbage under any circumstance (finish() is tmp -> final).
  std::vector<std::filesystem::path> tmp_candidates = {
      dir_ / (std::string(kManifestFile) + kTmpSuffix),
      dir_ / (std::string(kSuperblockFile) + kTmpSuffix)};
  for (int n = 0; n < code_->total_nodes(); ++n) {
    tmp_candidates.push_back(node_path(n).string() + kTmpSuffix);
  }
  for (const auto& p : tmp_candidates) {
    if (io_.exists(p)) {
      (void)io_.remove(p);
      ++swept;
    }
  }

  // Quarantine files: debris once their node was rebuilt; otherwise the
  // damage survived the crash, so re-arm the repair queue with it.
  for (int n = 0; n < code_->total_nodes(); ++n) {
    const auto q = quarantine_path(n);
    if (!io_.exists(q)) continue;
    if (node_present(n)) {
      (void)io_.remove(q);
      ++swept;
    } else {
      enqueue_repair(n);
      ++swept;
    }
  }
  if (swept > 0) m.crash_recoveries.add(1);
}

bool VolumeStore::quarantine_node(int node) {
  if (!node_present(node)) return false;
  const IoStatus st = io_.rename(node_path(node), quarantine_path(node));
  if (!st.ok()) {
    // A dying disk may refuse the rename; fall back to removing the rotten
    // file so scrub cannot keep trusting it.  If even that fails the next
    // scrub still flags the node through its CRC failures.
    (void)io_.remove(node_path(node));
  }
  RobustnessMetrics::get().quarantined.add(1);
  return true;
}

void VolumeStore::enqueue_repair(int node) {
  // Traced so a degraded read's causal tree shows the repair hand-off it
  // triggered, not just the read work itself.
  APPROX_OBS_SPAN(span_enqueue, "store.repair.enqueue");
  std::lock_guard<std::mutex> lock(mu_);
  const auto it =
      std::lower_bound(pending_repair_.begin(), pending_repair_.end(), node);
  if (it != pending_repair_.end() && *it == node) return;
  pending_repair_.insert(it, node);
  publish_queue_depth();
}

std::vector<int> VolumeStore::take_pending_repairs() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> out = std::move(pending_repair_);
  pending_repair_.clear();
  publish_queue_depth();
  return out;
}

std::size_t VolumeStore::pending_repairs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_repair_.size();
}

void VolumeStore::publish_queue_depth() const {
  RobustnessMetrics::get().queue_depth.set(
      static_cast<double>(pending_repair_.size()));
}

void VolumeStore::note_repaired(std::span<const int> nodes) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const int n : nodes) {
      const auto it =
          std::lower_bound(pending_repair_.begin(), pending_repair_.end(), n);
      if (it != pending_repair_.end() && *it == n) pending_repair_.erase(it);
      const auto q = quarantine_path(n);
      if (io_.exists(q)) (void)io_.remove(q);
    }
    publish_queue_depth();
  }
  // Repair rewrote chunk bytes: drop every cached block of this volume so
  // post-repair reads refill from the (now healthy) chunk files instead of
  // serving stale degraded fills.
  if (cache_ != nullptr && !nodes.empty()) cache_->invalidate(cache_tag_);
}

std::uint64_t VolumeStore::node_stream_bytes() const noexcept {
  return manifest_.chunks * code_->node_bytes();
}

std::filesystem::path VolumeStore::node_path(int node) const {
  return dir_ / node_file_name(manifest_.version, node);
}

bool VolumeStore::node_present(int node) const {
  return io_.exists(node_path(node));
}

ChunkFileReader VolumeStore::make_reader(int node) const {
  return ChunkFileReader(io_, node_path(node), opts_.io_payload,
                         manifest_.version == kVolumeV2, node_stream_bytes(),
                         opts_.retry);
}

ChunkFileWriter VolumeStore::make_writer(int node) const {
  return ChunkFileWriter(io_, node_path(node), opts_.io_payload,
                         manifest_.version == kVolumeV2, opts_.retry);
}

// ---------------------------------------------------------------------------
// Streaming encode
// ---------------------------------------------------------------------------

VolumeStore VolumeStore::encode_file(IoBackend& io,
                                     const std::filesystem::path& input,
                                     const std::filesystem::path& dir,
                                     const core::ApprParams& params,
                                     std::size_t block,
                                     std::optional<std::uint64_t> split,
                                     StoreOptions opts) {
  APPROX_OBS_SPAN(span_total, "store.encode");
  // Encoding is throughput work: its pipeline tasks must not delay
  // interactive reads sharing the pool.
  ThreadPool::TaskClassScope bulk_scope(TaskClass::kBulk);
  static obs::ShardedCounter& c_in =
      obs::registry().sharded_counter("store.encode.bytes_in");

  core::ApproximateCode code(params, block);
  Manifest m;
  m.params = params;
  m.block = block;
  m.io_payload = opts.io_payload;

  IoStatus st = io.file_size(input, m.file_size);
  if (!st.ok()) throw_io(st, "opening input");
  m.important_len = std::min<std::uint64_t>(
      m.file_size,
      split.value_or(m.file_size / static_cast<std::uint64_t>(params.h)));
  const std::uint64_t unimp_len = m.file_size - m.important_len;
  const std::uint64_t icap = code.important_capacity();
  const std::uint64_t ucap = code.unimportant_capacity();
  m.chunks = code.chunk_count(m.important_len, unimp_len);

  st = io.create_directories(dir);
  if (!st.ok()) throw_io(st, "creating volume directory");

  std::unique_ptr<IoFile> in;
  st = io.open(input, IoBackend::OpenMode::kRead, in);
  if (!st.ok()) throw_io(st, "opening input");

  // One atomically-replaced writer per node; nothing lands under a final
  // name until every chunk encoded cleanly.
  std::vector<std::unique_ptr<ChunkFileWriter>> writers;
  for (int n = 0; n < code.total_nodes(); ++n) {
    writers.push_back(std::make_unique<ChunkFileWriter>(
        io, dir / node_file_name(kVolumeV2, n), opts.io_payload,
        /*footers=*/true, opts.retry));
    st = writers.back()->open();
    if (!st.ok()) throw_io(st, "opening chunk file for write");
  }

  // Pipelined staging: the sequential read stage fills slot c % depth and
  // chains the two running stream CRCs; the concurrent process stage
  // scatters + encodes the slot's stripe; the ordered write stage appends
  // the stripe to every node file in chunk order.
  ThreadPool& pool = opts.pool != nullptr ? *opts.pool : ThreadPool::global();
  const int depth = resolve_pipeline_depth(opts.pipeline_depth, pool);

  struct Staged {
    std::vector<std::uint8_t> imp, unimp;
    StripeBuffers stripe;
  };
  std::vector<Staged> slots;
  slots.reserve(static_cast<std::size_t>(depth));
  for (int d = 0; d < depth; ++d) {
    slots.push_back(Staged{std::vector<std::uint8_t>(icap),
                           std::vector<std::uint8_t>(ucap),
                           StripeBuffers(code.total_nodes(), code.node_bytes())});
  }
  std::uint32_t crc_imp = 0, crc_unimp = 0;

  PipelineStages stages;
  stages.read = [&](std::uint64_t c, int slot) -> IoStatus {
    auto& s = slots[static_cast<std::size_t>(slot)];
    std::fill(s.imp.begin(), s.imp.end(), std::uint8_t{0});
    std::fill(s.unimp.begin(), s.unimp.end(), std::uint8_t{0});
    const std::uint64_t ioff = c * icap;
    if (ioff < m.important_len) {
      const std::size_t len = static_cast<std::size_t>(
          std::min<std::uint64_t>(icap, m.important_len - ioff));
      IoStatus rst = in->pread(ioff, {s.imp.data(), len});
      if (!rst.ok()) return rst;
      crc_imp = crc32({s.imp.data(), len}, crc_imp);
      c_in.add(len);
    }
    const std::uint64_t uoff = c * ucap;
    if (uoff < unimp_len) {
      const std::size_t len = static_cast<std::size_t>(
          std::min<std::uint64_t>(ucap, unimp_len - uoff));
      IoStatus rst = in->pread(m.important_len + uoff, {s.unimp.data(), len});
      if (!rst.ok()) return rst;
      crc_unimp = crc32({s.unimp.data(), len}, crc_unimp);
      c_in.add(len);
    }
    return IoStatus::success();
  };
  stages.process = [&](std::uint64_t, int slot) -> IoStatus {
    APPROX_OBS_SPAN(span_chunk, "store.stripe_encode");
    auto& s = slots[static_cast<std::size_t>(slot)];
    auto spans = s.stripe.spans();
    code.scatter(s.imp, s.unimp, spans);
    code.encode(spans);
    return IoStatus::success();
  };
  stages.write = [&](std::uint64_t, int slot) -> IoStatus {
    auto& s = slots[static_cast<std::size_t>(slot)];
    for (int n = 0; n < code.total_nodes(); ++n) {
      IoStatus wst = writers[static_cast<std::size_t>(n)]->append(s.stripe.node(n));
      if (!wst.ok()) return wst;
    }
    return IoStatus::success();
  };
  stages.reset = [&](int slot) {
    auto& s = slots[static_cast<std::size_t>(slot)];
    std::fill(s.imp.begin(), s.imp.end(), std::uint8_t{0});
    std::fill(s.unimp.begin(), s.unimp.end(), std::uint8_t{0});
    for (int n = 0; n < s.stripe.nodes(); ++n) s.stripe.clear_node(n);
  };

  st = run_pipeline(pool, m.chunks, depth, stages);
  if (!st.ok()) {
    for (auto& w : writers) w->abort();
    throw_io(st, "encoding volume");
  }
  m.file_crc = crc32_combine(crc_imp, crc_unimp, unimp_len);

  // Commit order: superblock, chunk files, manifest (the commit point).
  const Superblock sb{params, block, static_cast<std::uint32_t>(opts.io_payload)};
  const auto sb_bytes = sb.serialize();
  std::unique_ptr<IoFile> sbf;
  st = io.open(dir / kSuperblockFile, IoBackend::OpenMode::kTruncate, sbf);
  if (st.ok()) st = sbf->pwrite(0, sb_bytes);
  if (st.ok()) st = sbf->sync();
  sbf.reset();
  if (!st.ok()) {
    for (auto& w : writers) w->abort();
    throw_io(st, "writing superblock");
  }
  for (auto& w : writers) {
    st = w->finish();
    if (!st.ok()) {
      for (auto& other : writers) other->abort();
      throw_io(st, "finishing chunk file");
    }
  }
  st = m.save(io, dir, opts.retry);
  if (!st.ok()) throw_io(st, "writing manifest");

  // A shared cache may hold blocks from a previous volume at this path.
  if (opts.cache != nullptr) opts.cache->invalidate(dir.string());

  return VolumeStore(io, dir, std::move(opts), std::move(m));
}

// ---------------------------------------------------------------------------
// Streaming decode
// ---------------------------------------------------------------------------

namespace {

// Shared state of one degraded decode pass: which nodes are serving, which
// are gone for good, and which were caught with corrupt blocks.  Only the
// read stage mutates it (read stages run one at a time), so no lock.
struct DegradedState {
  std::vector<bool> dead;       // unopened or permanently erroring nodes
  std::vector<bool> corrupt;    // served at least one CRC-bad block
  bool any_degraded = false;
};

// Quarantine + queue the casualties of one degraded pass and fold them
// into the result.
void finish_degraded(VolumeStore& vol, const DegradedState& deg,
                     const VolumeStore::DecodeOptions& opts,
                     VolumeStore::DecodeResult& result) {
  for (int n = 0; n < vol.code().total_nodes(); ++n) {
    const bool dead = deg.dead[static_cast<std::size_t>(n)];
    const bool corrupt = deg.corrupt[static_cast<std::size_t>(n)];
    if (!dead && !corrupt) continue;
    result.degraded_nodes.push_back(n);
    if (corrupt && opts.quarantine && vol.quarantine_node(n)) {
      result.quarantined_nodes.push_back(n);
    }
    vol.enqueue_repair(n);
  }
  if (deg.any_degraded || !result.degraded_nodes.empty()) {
    RobustnessMetrics::get().degraded_reads.add(1);
  }
}

}  // namespace

VolumeStore::DecodeResult VolumeStore::decode_file(
    const std::filesystem::path& output, const DecodeOptions& opts) {
  // A named span object (not the macro) so the span's trace id can key the
  // slow-op record below; with APPROX_OBS_OFF this is the zero-cost stub.
  obs::ObsSpan span_total("store.decode");
  const double slow_t0 = obs::now_us();
  static obs::ShardedCounter& c_read =
      obs::registry().sharded_counter("store.read.bytes");

  DecodeResult result;
  const int total = code_->total_nodes();
  const std::uint64_t nb = code_->node_bytes();
  const std::uint64_t icap = code_->important_capacity();
  const std::uint64_t ucap = code_->unimportant_capacity();
  const std::uint64_t unimp_len = manifest_.file_size - manifest_.important_len;

  DegradedState deg;
  deg.dead.assign(static_cast<std::size_t>(total), false);
  deg.corrupt.assign(static_cast<std::size_t>(total), false);

  std::vector<std::unique_ptr<ChunkFileReader>> readers;
  std::string open_errors;
  for (int n = 0; n < total; ++n) {
    readers.push_back(std::make_unique<ChunkFileReader>(make_reader(n)));
    const IoStatus st = readers.back()->open();
    if (!st.ok()) {
      result.missing_nodes.push_back(n);
      deg.dead[static_cast<std::size_t>(n)] = true;
      open_errors += " [node " + std::to_string(n) + ": " + st.message + "]";
    }
  }
  if (!result.missing_nodes.empty() && !opts.allow_degraded) {
    throw StoreError(IoCode::kNotFound,
                     std::to_string(result.missing_nodes.size()) +
                         " node file(s) missing or unreadable - repair first:" +
                         open_errors);
  }

  std::unique_ptr<IoFile> out;
  IoStatus st = io_.open(output, IoBackend::OpenMode::kTruncate, out);
  if (!st.ok()) throw_io(st, "opening output");

  // Pipeline slots: the sequential read stage fills the slot's stripe and
  // tracks per-stripe erasures; the concurrent process stage repairs and
  // gathers into slot-local stream buffers; the ordered write stage
  // pwrites them, chains the output CRCs and folds the slot's repair
  // bookkeeping into the shared result.
  ThreadPool& pipeline_pool = pool();
  const int depth = resolve_pipeline_depth(opts_.pipeline_depth, pipeline_pool);

  struct Slot {
    StripeBuffers stripe;
    std::vector<std::uint64_t> bad;
    std::vector<int> erased;  // erased members of this stripe, ascending
    std::vector<std::uint8_t> imp, unimp;
    // Repair outcome of this chunk, folded in by the write stage.
    bool repaired = false;
    bool important_ok = true;
    std::uint64_t lost_bytes = 0;
  };
  std::vector<Slot> slots;
  slots.reserve(static_cast<std::size_t>(depth));
  for (int d = 0; d < depth; ++d) {
    slots.push_back(Slot{StripeBuffers(total, nb),
                         {},
                         {},
                         std::vector<std::uint8_t>(icap),
                         std::vector<std::uint8_t>(ucap)});
  }
  std::uint32_t crc_imp = 0, crc_unimp = 0;

  PipelineStages stages;
  stages.read = [&](std::uint64_t c, int si) -> IoStatus {
    Slot& slot = slots[static_cast<std::size_t>(si)];
    slot.erased.clear();
    for (int n = 0; n < total; ++n) {
      if (deg.dead[static_cast<std::size_t>(n)]) {
        slot.stripe.clear_node(n);
        slot.erased.push_back(n);
        continue;
      }
      slot.bad.clear();
      IoStatus rst = readers[static_cast<std::size_t>(n)]->read(
          c * nb, slot.stripe.node(n), &slot.bad);
      if (!rst.ok()) {
        if (!opts.allow_degraded) return rst;
        // Retries are already spent: treat the device as gone for the
        // rest of the stream and reconstruct its share.
        deg.dead[static_cast<std::size_t>(n)] = true;
        slot.stripe.clear_node(n);
        slot.erased.push_back(n);
        continue;
      }
      c_read.add(nb);
      if (!slot.bad.empty()) {
        result.corrupt_blocks += slot.bad.size();
        if (!opts.allow_degraded) continue;  // keep legacy zero-fill behavior
        // Erased for this stripe only; other stripes still use this node.
        deg.corrupt[static_cast<std::size_t>(n)] = true;
        slot.stripe.clear_node(n);
        slot.erased.push_back(n);
      }
    }
    deg.any_degraded |= !slot.erased.empty();
    return IoStatus::success();
  };
  stages.process = [&](std::uint64_t, int si) -> IoStatus {
    APPROX_OBS_SPAN(span_chunk, "store.stripe_decode");
    Slot& slot = slots[static_cast<std::size_t>(si)];
    auto spans = slot.stripe.spans();
    slot.repaired = !slot.erased.empty();
    slot.important_ok = true;
    slot.lost_bytes = 0;
    if (slot.repaired) {
      // Exact reconstruction of the erased members in scratch memory; the
      // on-disk files are untouched.  Anything the code cannot restore
      // stays zero-filled and is reported as explicit loss below.
      const auto rep = code_->repair(spans, slot.erased);
      slot.important_ok = rep.all_important_recovered;
      slot.lost_bytes =
          rep.important_data_bytes_lost + rep.unimportant_data_bytes_lost;
    }
    code_->gather(spans, slot.imp, slot.unimp);
    return IoStatus::success();
  };
  stages.write = [&](std::uint64_t c, int si) -> IoStatus {
    Slot& slot = slots[static_cast<std::size_t>(si)];
    if (slot.repaired) {
      ++result.degraded_stripes;
      result.important_ok &= slot.important_ok;
      result.unrecoverable_bytes += slot.lost_bytes;
    }
    const std::uint64_t ioff = c * icap;
    if (ioff < manifest_.important_len) {
      const std::size_t len = static_cast<std::size_t>(
          std::min<std::uint64_t>(icap, manifest_.important_len - ioff));
      const IoStatus wst = out->pwrite(ioff, {slot.imp.data(), len});
      if (!wst.ok()) return wst;
      crc_imp = crc32({slot.imp.data(), len}, crc_imp);
      result.bytes += len;
    }
    const std::uint64_t uoff = c * ucap;
    if (uoff < unimp_len) {
      const std::size_t len = static_cast<std::size_t>(
          std::min<std::uint64_t>(ucap, unimp_len - uoff));
      const IoStatus wst =
          out->pwrite(manifest_.important_len + uoff, {slot.unimp.data(), len});
      if (!wst.ok()) return wst;
      crc_unimp = crc32({slot.unimp.data(), len}, crc_unimp);
      result.bytes += len;
    }
    return IoStatus::success();
  };
  stages.reset = [&](int si) {
    Slot& slot = slots[static_cast<std::size_t>(si)];
    slot.erased.clear();
    slot.bad.clear();
    slot.repaired = false;
    slot.important_ok = true;
    slot.lost_bytes = 0;
    for (int n = 0; n < total; ++n) slot.stripe.clear_node(n);
  };

  st = run_pipeline(pipeline_pool, manifest_.chunks, depth, stages);
  if (!st.ok()) throw_io(st, "decoding volume");
  st = out->sync();
  if (!st.ok()) throw_io(st, "syncing output");

  finish_degraded(*this, deg, opts, result);
  result.crc_ok =
      crc32_combine(crc_imp, crc_unimp, unimp_len) == manifest_.file_crc;
  obs::SlowOps::note("store.decode", span_total.trace_id(),
                     obs::now_us() - slow_t0);
  return result;
}

// ---------------------------------------------------------------------------
// Random-access (degraded) read
// ---------------------------------------------------------------------------

VolumeStore::DecodeResult VolumeStore::read(std::uint64_t offset,
                                            std::span<std::uint8_t> out,
                                            const DecodeOptions& opts) {
  if (offset + out.size() > manifest_.file_size) {
    throw Error("read past end of stored file");
  }
  // Degraded-off reads bypass the cache: the caller is asking for exact
  // chunk-file semantics (throw on missing nodes), while cached bytes may
  // have been filled by an earlier degraded pass.
  if (cache_ != nullptr && opts.allow_degraded && !out.empty()) {
    return read_cached(offset, out, opts);
  }
  return read_uncached(offset, out, opts);
}

VolumeStore::DecodeResult VolumeStore::read_cached(std::uint64_t offset,
                                                   std::span<std::uint8_t> out,
                                                   const DecodeOptions& opts) {
  const std::size_t bs = cache_->block_bytes();
  const std::uint64_t first = offset / bs;
  const std::uint64_t last = (offset + out.size() - 1) / bs;

  // Fast path: every block of the request is resident.
  {
    std::vector<ReadCache::Block> blocks;
    blocks.reserve(static_cast<std::size_t>(last - first + 1));
    bool all_hit = true;
    for (std::uint64_t b = first; b <= last; ++b) {
      ReadCache::Block blk = cache_->get(cache_tag_, b);
      if (blk == nullptr) {
        all_hit = false;
        break;
      }
      blocks.push_back(std::move(blk));
    }
    if (all_hit) {
      std::size_t written = 0;
      for (std::uint64_t b = first; b <= last; ++b) {
        const ReadCache::Block& blk = blocks[static_cast<std::size_t>(b - first)];
        const std::uint64_t blk_base = b * bs;
        const std::uint64_t lo = std::max<std::uint64_t>(offset, blk_base);
        const std::uint64_t hi =
            std::min<std::uint64_t>(offset + out.size(), blk_base + blk->size());
        if (lo >= hi) continue;
        std::memcpy(out.data() + (lo - offset),
                    blk->data() + (lo - blk_base),
                    static_cast<std::size_t>(hi - lo));
        written += static_cast<std::size_t>(hi - lo);
      }
      DecodeResult result;
      result.bytes = written;
      result.crc_ok = written == out.size();
      return result;
    }
  }

  // Miss: fill the aligned block span once per concurrent cohort.  The
  // leader runs the full degraded machinery (reconstruction, quarantine,
  // repair enqueue); followers copy their slice out of the leader's
  // buffer, so N concurrent misses of a hot range cost one backend read.
  struct Fill {
    std::uint64_t base = 0;
    std::vector<std::uint8_t> buf;
    DecodeResult res;
  };
  const std::string key = std::to_string(first) + ":" + std::to_string(last) +
                          (opts.quarantine ? ":q" : ":n");
  const auto fill = flights_.run_as<Fill>(key, [&]() -> std::shared_ptr<Fill> {
    auto f = std::make_shared<Fill>();
    f->base = first * bs;
    const std::uint64_t span_end =
        std::min<std::uint64_t>((last + 1) * bs, manifest_.file_size);
    f->buf.resize(static_cast<std::size_t>(span_end - f->base));
    f->res = read_uncached(f->base, f->buf, opts);
    // Only exact bytes are admitted: a fill with explicit loss must not
    // pin zero-filled data past the repair that restores it.
    if (f->res.unrecoverable_bytes == 0) {
      for (std::uint64_t b = first; b <= last; ++b) {
        const std::uint64_t lo = b * bs - f->base;
        const std::uint64_t hi =
            std::min<std::uint64_t>((b + 1) * bs - f->base, f->buf.size());
        auto block = std::make_shared<const std::vector<std::uint8_t>>(
            f->buf.begin() + static_cast<std::ptrdiff_t>(lo),
            f->buf.begin() + static_cast<std::ptrdiff_t>(hi));
        const bool important = b * bs < manifest_.important_len;
        cache_->put(cache_tag_, b, std::move(block), important);
      }
    }
    return f;
  });

  std::memcpy(out.data(), fill->buf.data() + (offset - fill->base), out.size());
  DecodeResult result = fill->res;  // degraded bookkeeping rides along
  result.bytes = out.size();
  return result;
}

VolumeStore::DecodeResult VolumeStore::read_uncached(
    std::uint64_t offset, std::span<std::uint8_t> out,
    const DecodeOptions& opts) {
  // Named span (see decode_file) so the trace id can key slow-op records.
  obs::ObsSpan span_total("store.ranged_read");
  const double slow_t0 = obs::now_us();
  static obs::ShardedCounter& c_read =
      obs::registry().sharded_counter("store.read.bytes");
  if (offset + out.size() > manifest_.file_size) {
    throw Error("read past end of stored file");
  }

  DecodeResult result;
  const int total = code_->total_nodes();
  const std::uint64_t nb = code_->node_bytes();
  const std::uint64_t icap = code_->important_capacity();
  const std::uint64_t ucap = code_->unimportant_capacity();

  DegradedState deg;
  deg.dead.assign(static_cast<std::size_t>(total), false);
  deg.corrupt.assign(static_cast<std::size_t>(total), false);

  std::vector<std::unique_ptr<ChunkFileReader>> readers;
  std::string open_errors;
  for (int n = 0; n < total; ++n) {
    readers.push_back(std::make_unique<ChunkFileReader>(make_reader(n)));
    const IoStatus st = readers.back()->open();
    if (!st.ok()) {
      result.missing_nodes.push_back(n);
      deg.dead[static_cast<std::size_t>(n)] = true;
      open_errors += " [node " + std::to_string(n) + ": " + st.message + "]";
    }
  }
  if (!result.missing_nodes.empty() && !opts.allow_degraded) {
    throw StoreError(IoCode::kNotFound,
                     std::to_string(result.missing_nodes.size()) +
                         " node file(s) missing or unreadable - repair first:" +
                         open_errors);
  }

  // Chunk range covered by the request in either stream.
  std::uint64_t first = manifest_.chunks, last = 0;
  if (offset < manifest_.important_len && !out.empty()) {
    first = std::min(first, offset / icap);
    const std::uint64_t hi = std::min<std::uint64_t>(
        offset + out.size(), manifest_.important_len);
    last = std::max(last, (hi - 1) / icap);
  }
  if (offset + out.size() > manifest_.important_len && !out.empty()) {
    const std::uint64_t lo =
        offset > manifest_.important_len ? offset - manifest_.important_len : 0;
    const std::uint64_t hi = offset + out.size() - manifest_.important_len;
    first = std::min(first, lo / ucap);
    last = std::max(last, (hi - 1) / ucap);
  }
  const std::uint64_t covered =
      first < manifest_.chunks
          ? std::min(last, manifest_.chunks - 1) - first + 1
          : 0;

  // Chunks c and c+1 never share bytes of the logical stream, so the
  // chunks are pipelined independently: the concurrent process stage
  // serves each chunk's intersection with the request (disjoint sub-spans
  // of `out`) through the codec's degraded-read plans, which pull the
  // minimum schedule slice for whatever is erased.  The (I/O-free) write
  // stage folds per-slot bookkeeping into the result in chunk order.
  ThreadPool& pipeline_pool = pool();
  const int depth = resolve_pipeline_depth(opts_.pipeline_depth, pipeline_pool);

  struct Slot {
    StripeBuffers stripe;
    std::vector<std::uint64_t> bad;
    std::vector<int> erased;
    std::uint64_t bytes = 0;
    std::uint64_t unrecoverable = 0;
    bool important_ok = true;
  };
  std::vector<Slot> slots;
  slots.reserve(static_cast<std::size_t>(depth));
  for (int d = 0; d < depth; ++d) {
    slots.push_back(Slot{StripeBuffers(total, nb), {}, {}});
  }

  PipelineStages stages;
  stages.read = [&](std::uint64_t index, int si) -> IoStatus {
    const std::uint64_t c = first + index;
    Slot& slot = slots[static_cast<std::size_t>(si)];
    slot.erased.clear();
    for (int n = 0; n < total; ++n) {
      if (deg.dead[static_cast<std::size_t>(n)]) {
        slot.stripe.clear_node(n);
        slot.erased.push_back(n);
        continue;
      }
      slot.bad.clear();
      IoStatus rst = readers[static_cast<std::size_t>(n)]->read(
          c * nb, slot.stripe.node(n), &slot.bad);
      if (!rst.ok()) {
        if (!opts.allow_degraded) return rst;
        deg.dead[static_cast<std::size_t>(n)] = true;
        slot.stripe.clear_node(n);
        slot.erased.push_back(n);
        continue;
      }
      c_read.add(nb);
      if (!slot.bad.empty()) {
        result.corrupt_blocks += slot.bad.size();
        if (!opts.allow_degraded) continue;
        deg.corrupt[static_cast<std::size_t>(n)] = true;
        slot.stripe.clear_node(n);
        slot.erased.push_back(n);
      }
    }
    if (!slot.erased.empty()) {
      deg.any_degraded = true;
      ++result.degraded_stripes;
    }
    return IoStatus::success();
  };
  stages.process = [&](std::uint64_t index, int si) -> IoStatus {
    APPROX_OBS_SPAN(span_chunk, "store.stripe_read");
    const std::uint64_t c = first + index;
    Slot& slot = slots[static_cast<std::size_t>(si)];
    slot.bytes = 0;
    slot.unrecoverable = 0;
    slot.important_ok = true;
    auto spans = slot.stripe.spans();

    // Intersect the requested range with this chunk's important slice.
    const std::uint64_t req_lo = offset;
    const std::uint64_t req_hi = offset + out.size();
    const std::uint64_t imp_lo = c * icap;
    const std::uint64_t imp_hi =
        std::min<std::uint64_t>((c + 1) * icap, manifest_.important_len);
    if (req_lo < imp_hi && imp_lo < std::min(req_hi, manifest_.important_len)) {
      const std::uint64_t lo = std::max(req_lo, imp_lo);
      const std::uint64_t hi = std::min(std::min(req_hi, imp_hi),
                                        manifest_.important_len);
      auto dst = out.subspan(static_cast<std::size_t>(lo - req_lo),
                             static_cast<std::size_t>(hi - lo));
      const auto rep = code_->degraded_read_important(
          spans, slot.erased, static_cast<std::size_t>(lo - imp_lo), dst);
      if (!rep.ok) {
        std::memset(dst.data(), 0, dst.size());
        slot.important_ok = false;
        slot.unrecoverable += dst.size();
      }
      slot.bytes += dst.size();
    }

    // ... and with its unimportant slice (stream offsets shifted by
    // important_len).
    const std::uint64_t unimp_len =
        manifest_.file_size - manifest_.important_len;
    const std::uint64_t ureq_lo =
        req_lo > manifest_.important_len ? req_lo - manifest_.important_len : 0;
    const std::uint64_t ureq_hi =
        req_hi > manifest_.important_len ? req_hi - manifest_.important_len : 0;
    const std::uint64_t un_lo = c * ucap;
    const std::uint64_t un_hi = std::min<std::uint64_t>((c + 1) * ucap, unimp_len);
    if (ureq_lo < un_hi && un_lo < ureq_hi) {
      const std::uint64_t lo = std::max(ureq_lo, un_lo);
      const std::uint64_t hi = std::min(ureq_hi, un_hi);
      auto dst = out.subspan(
          static_cast<std::size_t>(lo + manifest_.important_len - req_lo),
          static_cast<std::size_t>(hi - lo));
      const auto rep = code_->degraded_read_unimportant(
          spans, slot.erased, static_cast<std::size_t>(lo - un_lo), dst);
      if (!rep.ok) {
        std::memset(dst.data(), 0, dst.size());
        slot.unrecoverable += dst.size();
      }
      slot.bytes += dst.size();
    }
    return IoStatus::success();
  };
  stages.write = [&](std::uint64_t, int si) -> IoStatus {
    Slot& slot = slots[static_cast<std::size_t>(si)];
    result.bytes += slot.bytes;
    result.unrecoverable_bytes += slot.unrecoverable;
    result.important_ok &= slot.important_ok;
    return IoStatus::success();
  };
  stages.reset = [&](int si) {
    Slot& slot = slots[static_cast<std::size_t>(si)];
    slot.erased.clear();
    slot.bad.clear();
    slot.bytes = 0;
    slot.unrecoverable = 0;
    slot.important_ok = true;
    for (int n = 0; n < total; ++n) slot.stripe.clear_node(n);
  };

  const IoStatus st = run_pipeline(pipeline_pool, covered, depth, stages);
  if (!st.ok()) throw_io(st, "degraded read");

  finish_degraded(*this, deg, opts, result);
  // No whole-file CRC applies to a sub-range: crc_ok here means "every
  // requested byte was served exactly".
  result.crc_ok = result.unrecoverable_bytes == 0;
  obs::SlowOps::note("store.read", span_total.trace_id(),
                     obs::now_us() - slow_t0);
  return result;
}

// ---------------------------------------------------------------------------
// Parity scrub
// ---------------------------------------------------------------------------

VolumeStore::ParityScrubResult VolumeStore::parity_scrub() {
  APPROX_OBS_SPAN(span_total, "store.parity_scrub");
  // Background integrity work yields to interactive reads.
  ThreadPool::TaskClassScope bulk_scope(TaskClass::kBulk);
  ParityScrubResult result;
  const std::uint64_t nb = code_->node_bytes();

  std::vector<std::unique_ptr<ChunkFileReader>> readers;
  for (int n = 0; n < code_->total_nodes(); ++n) {
    readers.push_back(std::make_unique<ChunkFileReader>(make_reader(n)));
    const IoStatus st = readers.back()->open();
    if (!st.ok()) {
      throw StoreError(st.code, "parity scrub needs every node file: " +
                                    st.message);
    }
  }
  // Stripes are verified independently: sequential reads feed the ring,
  // scrub math runs concurrently, and the (I/O-free) write stage folds the
  // per-stripe mismatch counts in order.
  ThreadPool& pipeline_pool = pool();
  const int depth = resolve_pipeline_depth(opts_.pipeline_depth, pipeline_pool);

  struct Slot {
    StripeBuffers stripe;
    std::uint64_t mismatched = 0;
  };
  std::vector<Slot> slots;
  slots.reserve(static_cast<std::size_t>(depth));
  for (int d = 0; d < depth; ++d) {
    slots.push_back(Slot{StripeBuffers(code_->total_nodes(), nb)});
  }

  PipelineStages stages;
  stages.read = [&](std::uint64_t c, int si) -> IoStatus {
    Slot& slot = slots[static_cast<std::size_t>(si)];
    for (int n = 0; n < code_->total_nodes(); ++n) {
      const IoStatus st = readers[static_cast<std::size_t>(n)]->read(
          c * nb, slot.stripe.node(n), nullptr);
      if (!st.ok()) return st;
    }
    return IoStatus::success();
  };
  stages.process = [&](std::uint64_t, int si) -> IoStatus {
    Slot& slot = slots[static_cast<std::size_t>(si)];
    auto spans = slot.stripe.spans();
    slot.mismatched = code_->scrub(spans).mismatched.size();
    return IoStatus::success();
  };
  stages.write = [&](std::uint64_t, int si) -> IoStatus {
    result.mismatched_elements += slots[static_cast<std::size_t>(si)].mismatched;
    ++result.stripes;
    return IoStatus::success();
  };

  const IoStatus st = run_pipeline(pipeline_pool, manifest_.chunks, depth, stages);
  if (!st.ok()) throw_io(st, "parity scrub read");
  return result;
}

}  // namespace approx::store
