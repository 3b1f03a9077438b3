#include "trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <unordered_map>

#include "common/crc32.h"
#include "common/prng.h"
#include "gf/gf256.h"
#include "kernels/dispatch.h"
#include "net/rpc.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace approx::bench {

namespace {

// The Chrome trace file keeps at most this many events; attribution uses
// every harvested span regardless.
constexpr std::uint64_t kMaxChromeEvents = 200000;

constexpr const char* kLayerSpanNames[Tracer::kLayerSpanCount] = {
    "store.pipeline.read",  "store.pipeline.process",
    "store.pipeline.write", "core.encode",
    "codes.repair.apply",   "core.degraded_read.important",
    "core.degraded_read.unimportant"};

std::uint64_t kernel_bytes_total() {
  std::uint64_t sum = 0;
  for (const kernels::Backend b : kernels::kAllBackends) {
    sum += kernels::bytes_processed(b);
  }
  return sum;
}

// Throughput of `op` over a 64 KiB buffer, repeated for ~50 ms.
template <typename Op>
double gib_per_s(Op op) {
  constexpr std::size_t kBytes = 64 * 1024;
  std::uint64_t iters = 0;
  const auto t0 = std::chrono::steady_clock::now();
  double secs = 0;
  do {
    for (int i = 0; i < 16; ++i) op();
    iters += 16;
    secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
               .count();
  } while (secs < 0.05);
  return static_cast<double>(iters * kBytes) / secs / (1024.0 * 1024 * 1024);
}

double crc32_gib_s() {
  std::vector<std::uint8_t> buf(64 * 1024);
  Rng rng(7);
  fill_random(buf.data(), buf.size(), rng);
  volatile std::uint32_t sink = 0;
  const double r = gib_per_s([&] { sink = sink + crc32(buf); });
  (void)sink;
  return r;
}

double gf_mul_acc_gib_s() {
  std::vector<std::uint8_t> src(64 * 1024), dst(64 * 1024);
  Rng rng(11);
  fill_random(src.data(), src.size(), rng);
  const double r = gib_per_s(
      [&] { gf::mul_acc_region(dst.data(), src.data(), src.size(), 0x8e); });
  volatile std::uint8_t sink = dst[0];
  (void)sink;
  return r;
}

void write_text(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

}  // namespace

// --- Counters ----------------------------------------------------------------

Tracer::Counters Tracer::Counters::operator-(const Counters& o) const {
  Counters d;
  for (std::size_t i = 0; i < io.size(); ++i) d.io[i] = io[i] - o.io[i];
  d.net = net - o.net;
  for (std::size_t i = 0; i < span_us.size(); ++i) {
    d.span_us[i] = span_us[i] - o.span_us[i];
  }
  d.stall_read = stall_read - o.stall_read;
  d.stall_write = stall_write - o.stall_write;
  d.cache_hits = cache_hits - o.cache_hits;
  d.cache_misses = cache_misses - o.cache_misses;
  d.cache_evictions = cache_evictions - o.cache_evictions;
  d.coalesce_followers = coalesce_followers - o.coalesce_followers;
  d.rpc_retries = rpc_retries - o.rpc_retries;
  d.kernel_bytes = kernel_bytes - o.kernel_bytes;
  d.aged_bulk_pops = aged_bulk_pops - o.aged_bulk_pops;
  return d;
}

Tracer::Counters& Tracer::Counters::operator+=(const Counters& o) {
  for (std::size_t i = 0; i < io.size(); ++i) io[i] += o.io[i];
  for (std::size_t i = 0; i < TimedTransport::kTypes; ++i) {
    net.client[i] += o.net.client[i];
    net.server[i] += o.net.server[i];
  }
  for (std::size_t i = 0; i < span_us.size(); ++i) span_us[i] += o.span_us[i];
  stall_read += o.stall_read;
  stall_write += o.stall_write;
  cache_hits += o.cache_hits;
  cache_misses += o.cache_misses;
  cache_evictions += o.cache_evictions;
  coalesce_followers += o.coalesce_followers;
  rpc_retries += o.rpc_retries;
  kernel_bytes += o.kernel_bytes;
  aged_bulk_pops += o.aged_bulk_pops;
  return *this;
}

// --- Tracer ------------------------------------------------------------------

Tracer::Tracer(ThreadPool& pool) : pool_(pool) {}

Tracer::~Tracer() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    sampling_ = false;
  }
  cv_.notify_all();
  if (sampler_.joinable()) sampler_.join();
  obs::SpanLog::set_enabled(false);
}

store::IoBackend& Tracer::wrap(store::IoBackend& inner) {
  ios_.push_back(std::make_unique<TimedIoBackend>(inner));
  return *ios_.back();
}

net::Transport& Tracer::wrap(net::Transport& inner) {
  nets_.push_back(std::make_unique<TimedTransport>(inner));
  return *nets_.back();
}

Tracer::Counters Tracer::counters() const {
  Counters c;
  for (const auto& io : ios_) {
    const auto t = io->totals();
    for (std::size_t i = 0; i < t.size(); ++i) c.io[i] += t[i];
  }
  for (const auto& n : nets_) {
    const auto t = n->totals();
    for (std::size_t i = 0; i < TimedTransport::kTypes; ++i) {
      c.net.client[i] += t.client[i];
      c.net.server[i] += t.server[i];
    }
  }
  auto& reg = obs::registry();
  for (std::size_t i = 0; i < c.span_us.size(); ++i) {
    c.span_us[i] =
        reg.histogram(std::string("span.") + kLayerSpanNames[i] + ".us").sum();
  }
  c.stall_read = reg.counter("store.pipeline.stall_read").value();
  c.stall_write = reg.counter("store.pipeline.stall_write").value();
  c.cache_hits = reg.sharded_counter("store.cache.hits").value();
  c.cache_misses = reg.sharded_counter("store.cache.misses").value();
  c.cache_evictions = reg.counter("store.cache.evictions").value();
  c.coalesce_followers = reg.counter("store.coalesce.followers").value();
  c.rpc_retries = reg.counter("net.rpc.retries").value();
  c.kernel_bytes = kernel_bytes_total();
  c.aged_bulk_pops = pool_.aged_bulk_pops();
  return c;
}

std::uint64_t Tracer::pread_bytes(const store::IoBackend& io) const {
  for (const auto& t : ios_) {
    if (t.get() == &io) return t->totals()[TimedIoBackend::kPread].bytes;
  }
  return 0;
}

void Tracer::begin(const std::string& phase) {
  phase_ = phase;
  phase_owner_ = std::this_thread::get_id();
  obs::SpanLog::clear();
  at_begin_ = counters();
  {
    std::lock_guard<std::mutex> lock(mu_);
    sampling_ = true;
  }
  sampler_ = std::thread([this] { sample_loop(); });
  open_window();
}

void Tracer::end() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    sampling_ = false;
    obs::SpanLog::set_enabled(false);
  }
  cv_.notify_all();
  sampler_.join();
  measured_ += counters() - at_begin_;
  harvest();
}

void Tracer::checkpoint() {
  if (std::this_thread::get_id() != phase_owner_ || !sampling_) return;
  harvest();
  open_window();
}

void Tracer::open_window() {
  std::lock_guard<std::mutex> lock(mu_);
  window_start_ = std::chrono::steady_clock::now();
  obs::SpanLog::set_enabled(true);
}

void Tracer::sample_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (sampling_) {
    queue_sum_[0] +=
        static_cast<double>(pool_.queue_depth(TaskClass::kInteractive));
    queue_sum_[1] += static_cast<double>(pool_.queue_depth(TaskClass::kBulk));
    ++samples_;
    if (std::chrono::steady_clock::now() - window_start_ > kSpanWindow) {
      obs::SpanLog::set_enabled(false);
    }
    cv_.wait_for(lock, std::chrono::milliseconds(10), [&] { return !sampling_; });
  }
}

double Tracer::mean_queue(TaskClass cls) const {
  return samples_ == 0 ? 0.0
                       : queue_sum_[static_cast<std::size_t>(cls)] /
                             static_cast<double>(samples_);
}

void Tracer::harvest() {
  const std::vector<obs::SpanEvent> ev = obs::SpanLog::snapshot();
  dropped_ += obs::SpanLog::dropped();
  obs::SpanLog::clear();

  // Span ids are process-unique, so a parent lookup by id is exact.
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  by_id.reserve(ev.size());
  for (std::size_t i = 0; i < ev.size(); ++i) by_id[ev[i].span_id] = i;
  std::vector<std::vector<std::pair<double, double>>> kids(ev.size());
  for (const obs::SpanEvent& e : ev) {
    if (e.parent_id == 0) continue;
    const auto it = by_id.find(e.parent_id);
    if (it == by_id.end() || ev[it->second].trace_id != e.trace_id) continue;
    kids[it->second].emplace_back(e.start_us, e.start_us + e.dur_us);
  }

  auto& phase_spans = spans_[phase_];
  for (std::size_t i = 0; i < ev.size(); ++i) {
    const obs::SpanEvent& e = ev[i];
    const double lo = e.start_us, hi = e.start_us + e.dur_us;
    auto& k = kids[i];
    std::sort(k.begin(), k.end());
    double covered = 0, cur_lo = 0, cur_hi = -1;
    for (const auto& [a0, b0] : k) {
      const double a = std::max(a0, lo), b = std::min(b0, hi);
      if (b <= a) continue;
      if (a > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
      } else {
        cur_hi = std::max(cur_hi, b);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    SpanAgg& agg = phase_spans[e.name];
    ++agg.count;
    agg.incl_us += e.dur_us;
    agg.self_us += std::max(0.0, e.dur_us - covered);

    if (chrome_count_ < kMaxChromeEvents) {
      obs::JsonWriter w;
      w.begin_object();
      w.key("name");
      w.value(e.name);
      w.key("cat");
      w.value(phase_);
      w.key("ph");
      w.value("X");
      w.key("ts");
      w.value(e.start_us);
      w.key("dur");
      w.value(e.dur_us);
      w.key("pid");
      w.value(e.trace_id);
      w.key("tid");
      w.value(e.thread);
      w.key("args");
      w.begin_object();
      w.key("span");
      w.value(e.span_id);
      w.key("parent");
      w.value(e.parent_id);
      w.end_object();
      w.end_object();
      if (chrome_count_ > 0) chrome_events_ += ',';
      chrome_events_ += w.take();
      ++chrome_count_;
    }
  }
}

void Tracer::write_chrome(const fs::path& path) const {
  write_text(path, "{\"displayTimeUnit\":\"ms\",\"dropped\":" +
                       std::to_string(dropped_) + ",\"traceEvents\":[" +
                       chrome_events_ + "]}");
}

std::string Tracer::tables_json() const {
  obs::JsonWriter w;
  w.begin_object();
  w.key("sampled_spans");
  w.begin_object();
  for (const auto& [phase, by_name] : spans_) {
    w.key(phase);
    w.begin_array();
    for (const auto& [name, agg] : by_name) {
      w.begin_object();
      w.key("name");
      w.value(name);
      w.key("count");
      w.value(agg.count);
      w.key("incl_ms");
      w.value(agg.incl_us / 1e3);
      w.key("self_ms");
      w.value(agg.self_us / 1e3);
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
  auto op_json = [&](const OpTotals& t) {
    w.begin_object();
    w.key("calls");
    w.value(t.calls);
    w.key("ms");
    w.value(t.ms());
    w.key("bytes");
    w.value(t.bytes);
    w.key("failures");
    w.value(t.failures);
    w.end_object();
  };
  w.key("io");
  w.begin_object();
  for (int op = 0; op < TimedIoBackend::kOpCount; ++op) {
    w.key(TimedIoBackend::op_name(op));
    op_json(measured_.io[static_cast<std::size_t>(op)]);
  }
  w.end_object();
  for (const bool client : {true, false}) {
    w.key(client ? "rpc_client" : "rpc_server");
    w.begin_object();
    const auto& side = client ? measured_.net.client : measured_.net.server;
    for (std::size_t t = 0; t < side.size(); ++t) {
      if (side[t].calls == 0) continue;
      w.key(net::msg_type_name(static_cast<net::MsgType>(t)));
      op_json(side[t]);
    }
    w.end_object();
  }
  w.key("pool_samples");
  w.value(samples_);
  w.key("kernel_backend");
  w.value(kernels::backend_name(kernels::active_backend()));
  w.key("dropped");
  w.value(dropped_);
  w.end_object();
  return w.take();
}

// --- per-layer metric set ------------------------------------------------------

void emit_layer_metrics(Ctx& ctx, const LayerInputs& in) {
  Tracer& tr = *ctx.tracer;
  Report& rep = ctx.report;
  const Tracer::Counters& all = tr.measured();
  const double logical = static_cast<double>(in.logical_bytes);
  const double mib = logical / kMiB;
  const double reqs =
      in.serve_stats != nullptr
          ? static_cast<double>(in.serve_stats->latency_ms.size())
          : 0.0;
  auto per_mib = [&](double x) { return mib > 0 ? x / mib : 0.0; };
  auto per_req = [&](double x) { return reqs > 0 ? x / reqs : 0.0; };
  auto per_byte = [&](double x) { return logical > 0 ? x / logical : 0.0; };

  rep.metric("common.crc32.gib_s", crc32_gib_s(), "GiB/s");
  rep.metric("common.pool.queue.interactive.mean",
             tr.mean_queue(TaskClass::kInteractive), "tasks");
  rep.metric("common.pool.queue.bulk.mean", tr.mean_queue(TaskClass::kBulk),
             "tasks");
  rep.metric("common.pool.aged_bulk_pops",
             static_cast<double>(all.aged_bulk_pops), "count");

  rep.metric("store.pipeline.read.ms_per_mib",
             per_mib(all.span_ms(Tracer::kPipelineRead)), "ms/MiB");
  rep.metric("store.pipeline.process.ms_per_mib",
             per_mib(all.span_ms(Tracer::kPipelineProcess)), "ms/MiB");
  rep.metric("store.pipeline.write.ms_per_mib",
             per_mib(all.span_ms(Tracer::kPipelineWrite)), "ms/MiB");
  rep.metric("store.pipeline.stall_read.per_mib",
             per_mib(static_cast<double>(all.stall_read)), "1/MiB");
  rep.metric("store.pipeline.stall_write.per_mib",
             per_mib(static_cast<double>(all.stall_write)), "1/MiB");

  std::uint64_t io_failures = 0;
  for (int op = 0; op < TimedIoBackend::kOpCount; ++op) {
    const OpTotals& t = all.io[static_cast<std::size_t>(op)];
    io_failures += t.failures;
    if (op == TimedIoBackend::kOther) continue;
    const std::string base = std::string("store.io.") + TimedIoBackend::op_name(op);
    rep.metric(base + ".calls_per_mib", per_mib(static_cast<double>(t.calls)),
               "1/MiB");
    rep.metric(base + ".ms_per_mib", per_mib(t.ms()), "ms/MiB");
  }
  rep.metric("store.io.read_bytes_per_byte",
             per_byte(static_cast<double>(all.io[TimedIoBackend::kPread].bytes)),
             "B/B");
  rep.metric("store.io.write_bytes_per_byte",
             per_byte(static_cast<double>(all.io[TimedIoBackend::kPwrite].bytes)),
             "B/B");
  rep.metric("store.io.failures", static_cast<double>(io_failures), "count");

  const double probes =
      static_cast<double>(in.serve.cache_hits + in.serve.cache_misses);
  rep.metric("store.cache.hit_ratio",
             probes > 0 ? static_cast<double>(in.serve.cache_hits) / probes : 0.0,
             "ratio");
  rep.metric("store.cache.evictions_per_req",
             per_req(static_cast<double>(in.serve.cache_evictions)), "1/req");
  rep.metric("store.coalesce.followers_per_req",
             per_req(static_cast<double>(in.serve.coalesce_followers)), "1/req");
  const double requested =
      in.serve_stats != nullptr
          ? static_cast<double>(in.serve_stats->requested_bytes)
          : 0.0;
  rep.metric("store.read.amplification",
             requested > 0 ? static_cast<double>(in.serve_pread_bytes) / requested
                           : 0.0,
             "B/B");

  rep.metric("core.encode.ms_per_mib", per_mib(all.span_ms(Tracer::kCoreEncode)),
             "ms/MiB");
  rep.metric("codes.repair.ms_per_mib",
             per_mib(all.span_ms(Tracer::kCodesRepair)), "ms/MiB");
  rep.metric("core.degraded_read.ms_per_req",
             per_req(in.serve.span_ms(Tracer::kDegradedImportant) +
                     in.serve.span_ms(Tracer::kDegradedUnimportant)),
             "ms/req");

  rep.metric("kernels.bytes_per_byte",
             per_byte(static_cast<double>(all.kernel_bytes)), "B/B");
  rep.metric("kernels.gf_mul_acc.gib_s", gf_mul_acc_gib_s(), "GiB/s");
  ctx.report.info("kernel_backend",
                  std::string(kernels::backend_name(kernels::active_backend())));

  const OpTotals s_call = in.serve.net.client_sum();
  const OpTotals s_server = in.serve.net.server_sum();
  rep.metric("net.calls_per_req", per_req(static_cast<double>(s_call.calls)),
             "1/req");
  rep.metric("net.call.ms_per_req", per_req(s_call.ms()), "ms/req");
  rep.metric("net.server.ms_per_req", per_req(s_server.ms()), "ms/req");
  rep.metric("net.wire.ms_per_req", per_req(s_call.ms() - s_server.ms()),
             "ms/req");
  const OpTotals a_call = all.net.client_sum();
  rep.metric("net.bytes_per_byte", per_byte(static_cast<double>(a_call.bytes)),
             "B/B");
  rep.metric("net.failures", static_cast<double>(a_call.failures), "count");
  rep.metric("net.rpc.retries", static_cast<double>(all.rpc_retries), "count");

  const ServeStats empty;
  const ServeStats& ss = in.serve_stats != nullptr ? *in.serve_stats : empty;
  rep.metric("serving.read.ms_p50", percentile(ss.service_ms, 0.5), "ms");
  rep.metric("serving.put.ms_per_mib", in.ingest_s_per_mib * 1e3, "ms/MiB");
  rep.metric("harness.queue_wait_ms.p99", percentile(ss.queue_ms, 0.99), "ms");
  rep.metric("harness.lag_ms.max", ss.max_lag_ms, "ms");
  rep.metric("trace.dropped", static_cast<double>(tr.dropped()), "count");

  const std::string stem = ctx.cfg.workload;
  tr.write_chrome(ctx.cfg.out / (stem + ".trace.json"));
  obs::JsonWriter w;
  w.begin_object();
  w.key("workload");
  w.value(stem);
  w.key("seed");
  w.value(ctx.cfg.seed);
  w.key("logical_bytes");
  w.value(in.logical_bytes);
  w.key("serve_requests");
  w.value(static_cast<std::uint64_t>(reqs));
  w.key("tables");
  w.raw(tr.tables_json());
  w.end_object();
  write_text(ctx.cfg.out / (stem + ".layers.json"), w.take());
}

}  // namespace approx::bench
