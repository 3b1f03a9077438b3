// The traced run: per-layer attribution measured from outside the layers.
//
// A Tracer owns the timing decorators (timed.h) handed to stores, daemons
// and the transport, samples the thread pool's queue depths every 10 ms
// during measured phases, and reads the layer totals as deltas of the
// registry's span histograms ("span.<name>.us"), which see every span.
//
// The span timeline is sampled: SpanLog records for a window of
// kSpanWindow after the start of each phase and after each checkpoint (the
// end of every whole-object operation run on the phase's own thread).  A
// window stays well inside the 8192-event buffer each thread has, so the
// sample is complete.  Harvested spans fold into per-name inclusive and
// self time; self time is a span's duration minus the part of it that its
// children cover (children may run on other pool threads, so their
// intervals are merged first).
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "timed.h"

namespace approx::bench {

class Tracer {
 public:
  // Spans whose histogram sums feed the per-layer metrics.
  enum LayerSpan {
    kPipelineRead,
    kPipelineProcess,
    kPipelineWrite,
    kCoreEncode,
    kCodesRepair,
    kDegradedImportant,
    kDegradedUnimportant,
    kLayerSpanCount
  };

  // Everything the per-layer metrics are deltas of.
  struct Counters {
    std::array<OpTotals, TimedIoBackend::kOpCount> io{};
    TimedTransport::Totals net{};
    std::array<double, kLayerSpanCount> span_us{};
    std::uint64_t stall_read = 0, stall_write = 0;
    std::uint64_t cache_hits = 0, cache_misses = 0, cache_evictions = 0;
    std::uint64_t coalesce_followers = 0, rpc_retries = 0;
    std::uint64_t kernel_bytes = 0, aged_bulk_pops = 0;

    Counters operator-(const Counters& o) const;
    Counters& operator+=(const Counters& o);
    double span_ms(LayerSpan s) const { return span_us[s] / 1e3; }
  };

  struct SpanAgg {
    std::uint64_t count = 0;
    double incl_us = 0;
    double self_us = 0;
  };

  static constexpr std::chrono::milliseconds kSpanWindow{500};

  explicit Tracer(ThreadPool& pool);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  store::IoBackend& wrap(store::IoBackend& inner);
  net::Transport& wrap(net::Transport& inner);

  // Measured-phase brackets; spans are kept per phase name.
  void begin(const std::string& phase);
  void end();
  // A quiescent point inside a phase: harvest the window so far and open
  // a new one.  Ignored off the thread that began the phase, where other
  // work may still be in flight.
  void checkpoint();

  Counters counters() const;
  const Counters& measured() const { return measured_; }
  // pread bytes of one wrapped backend (0 for an unwrapped one).
  std::uint64_t pread_bytes(const store::IoBackend& io) const;

  std::uint64_t dropped() const { return dropped_; }
  double mean_queue(TaskClass cls) const;

  // Chrome trace-event file of every harvested span.
  void write_chrome(const fs::path& path) const;
  // Attribution tables: sampled spans, I/O per op, RPC per frame type.
  std::string tables_json() const;

 private:
  void harvest();
  void open_window();
  void sample_loop();

  ThreadPool& pool_;
  std::vector<std::unique_ptr<TimedIoBackend>> ios_;
  std::vector<std::unique_ptr<TimedTransport>> nets_;

  Counters at_begin_{};
  Counters measured_{};
  std::string phase_;
  std::thread::id phase_owner_;
  // phase -> span name -> aggregate
  std::map<std::string, std::map<std::string, SpanAgg>> spans_;
  std::uint64_t dropped_ = 0;
  std::string chrome_events_;
  std::uint64_t chrome_count_ = 0;

  // Pool sampler and span-window timer, running between begin() and end().
  std::mutex mu_;
  std::condition_variable cv_;
  bool sampling_ = false;
  std::chrono::steady_clock::time_point window_start_;
  std::array<double, 2> queue_sum_{};
  std::uint64_t samples_ = 0;
  std::thread sampler_;
};

// Inputs of the per-layer metric set beyond what the Tracer holds.
struct LayerInputs {
  std::uint64_t logical_bytes = 0;  // all timed whole-object ops + reads
  Tracer::Counters serve{};         // counter deltas over the serving phase
  std::uint64_t serve_pread_bytes = 0;  // backend bytes behind those reads
  const ServeStats* serve_stats = nullptr;
  double ingest_s_per_mib = 0;      // median ingest seconds per MiB
};

// Emit every per_layer metric of BENCHMARK.json into ctx.report, then
// write <out>/<workload>.layers.json and <workload>.trace.json.
void emit_layer_metrics(Ctx& ctx, const LayerInputs& in);

}  // namespace approx::bench
