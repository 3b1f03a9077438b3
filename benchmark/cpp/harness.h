// Shared machinery of the approx_bench workloads: the per-child context,
// the metric sink, the seeded corpus and its byte-for-byte oracle, request
// schedules, the open- and closed-loop load generators, and the bulk
// lifecycle cycle (ingest, readback, degraded readback, repair).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/appr_params.h"
#include "store/scrubber.h"
#include "store/store.h"

namespace approx::bench {

namespace fs = std::filesystem;

class Tracer;

inline constexpr double kMiB = 1024.0 * 1024.0;
// Pool workers and the cap on request threads: the host this benchmark was
// calibrated on has 4 cores, and a fixed count keeps runs comparable.
inline constexpr unsigned kPoolThreads = 4;
inline constexpr int kPipelineDepth = 4;
// The paper's running example, APPR.RS(4,1,2,4) Even, 4 KiB blocks.
inline const core::ApprParams kParams{codes::Family::RS, 4, 1, 2, 4,
                                      core::Structure::Even};
inline constexpr std::size_t kBlock = 4096;

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15;    // length of the serving phase (run_seconds)
  bool traced = false;    // record spans and wrap I/O + transport
  bool short_plan = false;  // the shorter plan both halves of --trace use
  bool smoke = false;     // tiny sizes, for checking the plumbing
  fs::path work;          // scratch directory of this child
  fs::path out;           // results directory (trace files)
};

// Metric sink of one child process.  Thread-safe for the counters; the
// serialized form is what the parent reads back over a pipe.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void info(const std::string& key, const std::string& value);
  // One attempted operation; `ok` false counts it as failed.
  void attempt(bool ok, const std::string& what = {});
  // Wrong bytes served.  The child then exits nonzero without metrics.
  void mismatch(const std::string& what);

  std::uint64_t mismatches() const { return mismatches_.load(); }

  // "M <name> <value> <unit>", "I <key> <value>" and "C <counter> <n>"
  // lines.
  std::string serialize() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  mutable std::mutex mu_;
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::atomic<std::uint64_t> attempted_{0}, failed_{0}, mismatches_{0};
};

// Everything one workload child owns.  The pool is explicit so no store
// falls back to ThreadPool::global().
struct Ctx {
  explicit Ctx(Config c);
  ~Ctx();
  Ctx(const Ctx&) = delete;
  Ctx& operator=(const Ctx&) = delete;

  // The backend a store or daemon should use: the POSIX backend, wrapped
  // in a fresh TimedIoBackend when this child is traced.
  store::IoBackend& io();
  store::StoreOptions store_options(int cache_mb);

  // Measured-phase brackets (spans, pool sampling) and quiescent points
  // inside them; no-ops when untraced.
  void phase_begin(const std::string& phase);
  void phase_end();
  void checkpoint();

  Config cfg;
  Report report;
  ThreadPool pool{kPoolThreads};
  store::PosixIoBackend posix;
  std::unique_ptr<Tracer> tracer;  // traced children only
};

// Seeded random input file plus the oracle every read is checked against.
// The oracle uses plain pread on its own descriptor, outside any timed
// interval and outside the IoBackend under test.
class Corpus {
 public:
  Corpus(fs::path path, std::uint64_t bytes, std::uint64_t seed);
  ~Corpus();
  Corpus(const Corpus&) = delete;
  Corpus& operator=(const Corpus&) = delete;

  const fs::path& path() const noexcept { return path_; }
  std::uint64_t size() const noexcept { return bytes_; }

  bool matches(std::uint64_t offset, std::span<const std::uint8_t> data) const;
  bool equals_file(const fs::path& other) const;

 private:
  fs::path path_;
  std::uint64_t bytes_;
  int fd_ = -1;
};

// --- statistics ----------------------------------------------------------------

// Nearest-rank percentile (p in (0, 1]): with n samples, n - ceil(p n)
// samples lie strictly beyond the returned one.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

// --- request schedules --------------------------------------------------------

struct ReadReq {
  std::uint64_t offset = 0;
  std::uint32_t len = 0;
};

// `n` reads of `seg_bytes` segments of a `bytes`-long object.  Popularity
// is Zipf(theta) over segment ranks (theta 0 = uniform) and the rank ->
// segment mapping is a seeded permutation, so the hot set moves with the
// seed.
std::vector<ReadReq> zipf_schedule(std::uint64_t seed, std::size_t n,
                                   std::uint64_t bytes, std::uint32_t seg_bytes,
                                   double theta);
// `n` consecutive segments from a seeded start, wrapping at the end.
std::vector<ReadReq> sequential_schedule(std::uint64_t seed, std::size_t n,
                                         std::uint64_t bytes,
                                         std::uint32_t seg_bytes);

// --- load generators ------------------------------------------------------------

struct ServeStats {
  std::vector<double> latency_ms;  // from intended start (open loop)
  std::vector<double> service_ms;  // inside VolumeStore::read
  std::vector<double> queue_ms;    // intended start -> worker pickup
  double max_lag_ms = 0;           // generator lateness
  std::uint64_t requested_bytes = 0;
};

// Open loop: request i is due at t0 + i/qps whatever the system is doing;
// `workers` threads serve a FIFO, and latency counts from the due time so
// queueing behind a stall is measured (no coordinated omission).
ServeStats serve_open_loop(Ctx& ctx, store::VolumeStore& vol,
                           const std::vector<ReadReq>& schedule, double qps,
                           unsigned workers, const Corpus& oracle);
// Closed loop: one client issues the next read when the previous returns.
ServeStats serve_closed_loop(Ctx& ctx, store::VolumeStore& vol,
                             const std::vector<ReadReq>& schedule,
                             const Corpus& oracle);

// --- bulk lifecycle ---------------------------------------------------------------

// The four whole-object operations, over a local volume directory or a
// cluster.  Callers time each call; everything else is untimed.
class BulkOps {
 public:
  virtual ~BulkOps() = default;
  virtual void ingest(const std::string& name) = 0;
  virtual store::VolumeStore::DecodeResult readback(const std::string& name,
                                                    const fs::path& out) = 0;
  virtual void fail_node(const std::string& name, int node) = 0;
  virtual store::RepairOutcome repair(const std::string& name) = 0;
  virtual bool scrub_clean(const std::string& name) = 0;
  virtual void drop(const std::string& name) = 0;
};

// encode_file into `dir`, keeping the returned store open.
std::unique_ptr<store::VolumeStore> encode_volume(store::IoBackend& io,
                                                  const fs::path& input,
                                                  const fs::path& dir,
                                                  const store::StoreOptions& opts);

class LocalBulkOps final : public BulkOps {
 public:
  LocalBulkOps(store::IoBackend& io, fs::path root, store::StoreOptions opts,
               const Corpus& corpus);
  ~LocalBulkOps() override;

  void ingest(const std::string& name) override;
  store::VolumeStore::DecodeResult readback(const std::string& name,
                                            const fs::path& out) override;
  void fail_node(const std::string& name, int node) override;
  store::RepairOutcome repair(const std::string& name) override;
  bool scrub_clean(const std::string& name) override;
  void drop(const std::string& name) override;

  store::VolumeStore& volume(const std::string& name);

 private:
  store::IoBackend& io_;
  fs::path root_;
  store::StoreOptions opts_;
  const Corpus& corpus_;
  std::vector<std::pair<std::string, std::unique_ptr<store::VolumeStore>>> vols_;
};

struct BulkStats {
  std::vector<double> ingest_s, readback_s, degraded_s, repair_s;
  std::uint64_t object_bytes = 0;
  std::uint64_t logical_bytes = 0;  // bytes moved by timed operations
};

// One cycle on a fresh object: ingest, readback, fail `node`, degraded
// readback, repair, scrub, drop.  Every result is checked against the
// corpus; `stats` null makes it an untimed warm-up.
void bulk_cycle(Ctx& ctx, BulkOps& ops, const Corpus& corpus,
                const std::string& name, int node, BulkStats* stats);

// The data node whose loss this run injects, drawn from the seed.
int failed_node(std::uint64_t seed);

// Independent seeded streams (corpus bytes, schedules, failure choice)
// derived from the one --seed.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t tag);

// syncfs() the filesystem holding `dir`, so writeback of earlier, untimed
// steps (corpus files, readback outputs) does not land inside a timed
// operation's fsync.
void flush_dirty(const fs::path& dir);

// Wall seconds of a callable.
template <typename F>
double time_s(F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace approx::bench
