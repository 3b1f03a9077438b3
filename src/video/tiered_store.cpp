#include "video/tiered_store.h"

#include <algorithm>
#include <cstring>

#include "common/crc32.h"
#include "common/error.h"
#include "common/thread_pool.h"
#include "store/scrubber.h"

namespace approx::video {

namespace {

// Strict digit-only parse of a manifest extra value.
std::size_t parse_meta(const std::map<std::string, std::string>& extra,
                       const std::string& key) {
  const auto it = extra.find(key);
  if (it == extra.end()) throw Error("spilled volume is missing " + key);
  std::size_t v = 0;
  for (const char c : it->second) {
    if (c < '0' || c > '9') throw Error("spilled volume has bad " + key);
    v = v * 10 + static_cast<std::size_t>(c - '0');
  }
  return v;
}

}  // namespace

TieredVideoStore::TieredVideoStore(core::ApprParams params, std::size_t block_size)
    : code_(std::make_unique<core::ApproximateCode>(params, block_size)) {}

void TieredVideoStore::put(const EncodedVideo& video, ImportancePolicy policy) {
  const ClassifiedStream classified = classify(video, policy);
  // Derived before any state changes: throws when the stream does not fit
  // the code (unimportant frames under h = 1).
  const std::size_t chunks = code_->chunk_count(classified.important.size(),
                                                classified.unimportant.size());
  important_len_ = classified.important.size();
  unimportant_len_ = classified.unimportant.size();
  frame_count_ = classified.frame_count;
  width_ = video.width;
  height_ = video.height;
  gop_ = video.gop;
  failed_.clear();
  chunks_.clear();

  const std::size_t imp_cap = code_->important_capacity();
  const std::size_t unimp_cap = code_->unimportant_capacity();

  // Chunks are independent global stripes, so they scatter + encode in
  // parallel across the pool (each worker owns its chunk's buffers).
  // Ingest is throughput work - run it at bulk priority.
  ThreadPool::TaskClassScope bulk_scope(TaskClass::kBulk);
  chunks_.resize(chunks);
  ThreadPool::global().parallel_for(0, chunks, [&](std::size_t lo,
                                                   std::size_t hi) {
    for (std::size_t c = lo; c < hi; ++c) {
      std::vector<std::uint8_t> imp(imp_cap, 0);
      std::vector<std::uint8_t> unimp(unimp_cap, 0);
      const std::size_t imp_off = c * imp_cap;
      if (imp_off < important_len_) {
        const std::size_t len = std::min(imp_cap, important_len_ - imp_off);
        std::memcpy(imp.data(), classified.important.data() + imp_off, len);
      }
      const std::size_t unimp_off = c * unimp_cap;
      if (unimp_off < unimportant_len_) {
        const std::size_t len = std::min(unimp_cap, unimportant_len_ - unimp_off);
        std::memcpy(unimp.data(), classified.unimportant.data() + unimp_off, len);
      }
      StripeBuffers buffers(code_->total_nodes(), code_->node_bytes());
      auto spans = buffers.spans();
      code_->scatter(imp, unimp, spans);
      code_->encode(spans);
      chunks_[c] = std::move(buffers);
    }
  });
}

void TieredVideoStore::fail_nodes(std::span<const int> nodes) {
  for (const int n : nodes) {
    APPROX_REQUIRE(n >= 0 && n < code_->total_nodes(), "failed node out of range");
    if (std::find(failed_.begin(), failed_.end(), n) == failed_.end()) {
      failed_.push_back(n);
    }
    for (auto& chunk : chunks_) chunk.clear_node(n);
  }
}

TieredVideoStore::RepairSummary TieredVideoStore::repair() {
  ThreadPool::TaskClassScope bulk_scope(TaskClass::kBulk);
  RepairSummary summary;
  summary.chunks = chunks_.size();
  // One repair task per chunk; the per-chunk partials fold deterministically
  // in chunk order afterwards (sums and ANDs, so order is moot anyway).
  std::vector<RepairSummary> partial(chunks_.size());
  ThreadPool::global().parallel_for(
      0, chunks_.size(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t c = lo; c < hi; ++c) {
          auto spans = chunks_[c].spans();
          const auto report = code_->repair(spans, failed_);
          RepairSummary& p = partial[c];
          p.fully_recovered = report.fully_recovered;
          p.all_important_recovered = report.all_important_recovered;
          p.unimportant_data_bytes_lost = report.unimportant_data_bytes_lost;
          p.important_data_bytes_lost = report.important_data_bytes_lost;
          p.bytes_read = report.bytes_read;
          p.bytes_written = report.bytes_written;
        }
      });
  for (const RepairSummary& p : partial) {
    summary.fully_recovered &= p.fully_recovered;
    summary.all_important_recovered &= p.all_important_recovered;
    summary.unimportant_data_bytes_lost += p.unimportant_data_bytes_lost;
    summary.important_data_bytes_lost += p.important_data_bytes_lost;
    summary.bytes_read += p.bytes_read;
    summary.bytes_written += p.bytes_written;
  }
  if (summary.fully_recovered) failed_.clear();
  return summary;
}

ReassembledVideo TieredVideoStore::get_degraded() {
  std::vector<std::uint8_t> imp(chunks_.size() * code_->important_capacity(), 0);
  std::vector<std::uint8_t> unimp(chunks_.size() * code_->unimportant_capacity(), 0);
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    std::vector<std::uint8_t> ci(code_->important_capacity());
    std::vector<std::uint8_t> cu(code_->unimportant_capacity());
    auto spans = chunks_[c].spans();
    code_->degraded_read_important(spans, failed_, 0, ci);
    code_->degraded_read_unimportant(spans, failed_, 0, cu);  // holes stay zero
    std::memcpy(imp.data() + c * ci.size(), ci.data(), ci.size());
    std::copy(cu.begin(), cu.end(), unimp.begin() + c * cu.size());  // h = 1: empty
  }
  imp.resize(std::min(imp.size(), important_len_));
  unimp.resize(std::min(unimp.size(), unimportant_len_));
  return reassemble(imp, unimp, frame_count_);
}

void TieredVideoStore::spill(store::IoBackend& io,
                             const std::filesystem::path& dir) {
  APPROX_REQUIRE(!chunks_.empty(), "nothing to spill: call put() first");
  APPROX_REQUIRE(failed_.empty(), "repair before spilling a degraded store");

  const store::StoreOptions opts;
  store::Manifest m;
  m.params = code_->params();
  m.block = code_->block_size();
  m.io_payload = opts.io_payload;
  m.file_size = important_len_ + unimportant_len_;
  m.important_len = important_len_;
  m.chunks = code_->chunk_count(important_len_, unimportant_len_);
  m.extra["video.frame_count"] = std::to_string(frame_count_);
  m.extra["video.width"] = std::to_string(width_);
  m.extra["video.height"] = std::to_string(height_);
  m.extra["video.gop"] = gop_.str();

  // Whole-file CRC over the logical byte stream (important || unimportant),
  // so the generic decode path can validate a spilled video end to end.
  std::uint32_t crc_imp = 0, crc_unimp = 0;
  std::vector<std::uint8_t> imp(code_->important_capacity());
  std::vector<std::uint8_t> unimp(code_->unimportant_capacity());
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    auto spans = chunks_[c].spans();
    code_->gather(spans, imp, unimp);
    const std::size_t ioff = c * imp.size();
    if (ioff < important_len_) {
      crc_imp = crc32({imp.data(), std::min(imp.size(), important_len_ - ioff)},
                      crc_imp);
    }
    const std::size_t uoff = c * unimp.size();
    if (uoff < unimportant_len_) {
      crc_unimp = crc32(
          {unimp.data(), std::min(unimp.size(), unimportant_len_ - uoff)},
          crc_unimp);
    }
  }
  m.file_crc = crc32_combine(crc_imp, crc_unimp, unimportant_len_);

  store::IoStatus st = io.create_directories(dir);
  if (!st.ok()) throw store::StoreError(st.code, "creating spill directory");

  const store::Superblock sb{m.params, m.block,
                             static_cast<std::uint32_t>(m.io_payload)};
  const auto sb_bytes = sb.serialize();
  std::unique_ptr<store::IoFile> sbf;
  st = io.open(dir / store::kSuperblockFile, store::IoBackend::OpenMode::kTruncate,
               sbf);
  if (st.ok()) st = sbf->pwrite(0, sb_bytes);
  if (st.ok()) st = sbf->sync();
  if (!st.ok()) throw store::StoreError(st.code, "writing spill superblock");
  sbf.reset();

  std::vector<std::unique_ptr<store::ChunkFileWriter>> writers;
  const auto abort_all = [&] {
    for (auto& w : writers) w->abort();
  };
  for (int n = 0; n < code_->total_nodes(); ++n) {
    writers.push_back(std::make_unique<store::ChunkFileWriter>(
        io, dir / store::node_file_name(store::kVolumeV2, n), opts.io_payload,
        /*footers=*/true, opts.retry));
    st = writers.back()->open();
    if (!st.ok()) {
      abort_all();
      throw store::StoreError(st.code, "opening spill chunk file");
    }
  }
  for (auto& chunk : chunks_) {
    for (int n = 0; n < code_->total_nodes(); ++n) {
      st = writers[static_cast<std::size_t>(n)]->append(chunk.node(n));
      if (!st.ok()) {
        abort_all();
        throw store::StoreError(st.code, "spilling chunk data");
      }
    }
  }
  for (auto& w : writers) {
    st = w->finish();
    if (!st.ok()) {
      abort_all();
      throw store::StoreError(st.code, "committing spill chunk file");
    }
  }
  st = m.save(io, dir, opts.retry);
  if (!st.ok()) throw store::StoreError(st.code, "writing spill manifest");
}

TieredVideoStore TieredVideoStore::load_spill(store::IoBackend& io,
                                              const std::filesystem::path& dir,
                                              bool allow_degraded) {
  // Tier promotion is background bulk work relative to interactive reads.
  ThreadPool::TaskClassScope bulk_scope(TaskClass::kBulk);
  store::VolumeStore vol(io, dir);
  const store::Manifest& m = vol.manifest();
  const auto gop_it = m.extra.find("video.gop");
  if (gop_it == m.extra.end()) {
    throw Error("not a spilled video volume: no video.gop in manifest");
  }

  TieredVideoStore out(m.params, m.block);
  out.important_len_ = m.important_len;
  out.unimportant_len_ = m.file_size - m.important_len;
  out.frame_count_ = parse_meta(m.extra, "video.frame_count");
  out.width_ = static_cast<int>(parse_meta(m.extra, "video.width"));
  out.height_ = static_cast<int>(parse_meta(m.extra, "video.height"));
  out.gop_ = GopPattern(gop_it->second);

  const std::uint64_t nb = out.code_->node_bytes();
  for (std::uint64_t c = 0; c < m.chunks; ++c) {
    out.chunks_.emplace_back(out.code_->total_nodes(), nb);
  }

  // Per-chunk erasure sets: a node that is missing/unreadable is erased
  // everywhere, while a corrupt block only erases the node for the chunk
  // it sits in (its other chunks still serve as repair sources).
  std::vector<std::vector<int>> erased(m.chunks);
  std::vector<int> damaged_nodes;
  std::vector<int> corrupt_nodes;
  for (int n = 0; n < out.code_->total_nodes(); ++n) {
    store::ChunkFileReader reader = vol.make_reader(n);
    const store::IoStatus st = reader.open();
    if (!st.ok()) {
      if (!allow_degraded) {
        throw store::StoreError(st.code,
                                "spilled volume needs repair: " + st.message);
      }
      damaged_nodes.push_back(n);
      for (std::uint64_t c = 0; c < m.chunks; ++c) {
        out.chunks_[c].clear_node(n);
        erased[c].push_back(n);
      }
      continue;
    }
    bool node_damaged = false;
    for (std::uint64_t c = 0; c < m.chunks; ++c) {
      std::vector<std::uint64_t> bad;
      const store::IoStatus rst =
          reader.read(c * nb, out.chunks_[c].node(n), &bad);
      if (!rst.ok()) {
        if (!allow_degraded) {
          throw store::StoreError(rst.code, "reading spilled chunk");
        }
        out.chunks_[c].clear_node(n);
        erased[c].push_back(n);
        node_damaged = true;
        continue;
      }
      if (!bad.empty()) {
        if (!allow_degraded) {
          throw store::StoreError(store::IoCode::kIoError,
                                  "spilled volume has corrupt blocks in node " +
                                      std::to_string(n) + " - scrub and repair");
        }
        out.chunks_[c].clear_node(n);
        erased[c].push_back(n);
        node_damaged = true;
        if (corrupt_nodes.empty() || corrupt_nodes.back() != n) {
          corrupt_nodes.push_back(n);
        }
      }
    }
    if (node_damaged) damaged_nodes.push_back(n);
  }

  // Exact in-memory reconstruction where the code allows it; beyond its
  // tolerance the erased pieces stay zero-filled, so reassemble() flags
  // exactly those frames lost and the recovery module interpolates them
  // instead of this load throwing.
  ThreadPool::global().parallel_for(
      0, m.chunks, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t c = lo; c < hi; ++c) {
          if (erased[c].empty()) continue;
          auto spans = out.chunks_[c].spans();
          (void)out.code_->repair(spans, erased[c]);
        }
      });
  // Self-healing hand-off: corrupt chunk files are quarantined (so the
  // damage survives this process - reopening the volume sweeps the
  // quarantine debris back into the repair queue) and everything damaged
  // is queued for ScrubService::drain_pending to rebuild.
  for (const int n : corrupt_nodes) (void)vol.quarantine_node(n);
  for (const int n : damaged_nodes) vol.enqueue_repair(n);
  return out;
}

ReassembledVideo TieredVideoStore::get() {
  std::vector<std::uint8_t> imp(chunks_.size() * code_->important_capacity(), 0);
  std::vector<std::uint8_t> unimp(chunks_.size() * code_->unimportant_capacity(), 0);
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    std::vector<std::uint8_t> ci(code_->important_capacity());
    std::vector<std::uint8_t> cu(code_->unimportant_capacity());
    auto spans = chunks_[c].spans();
    code_->gather(spans, ci, cu);
    std::memcpy(imp.data() + c * ci.size(), ci.data(), ci.size());
    std::copy(cu.begin(), cu.end(), unimp.begin() + c * cu.size());  // h = 1: empty
  }
  imp.resize(std::min(imp.size(), important_len_));
  unimp.resize(std::min(unimp.size(), unimportant_len_));
  return reassemble(imp, unimp, frame_count_);
}

}  // namespace approx::video
