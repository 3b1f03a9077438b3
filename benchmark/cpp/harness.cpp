#include "harness.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <limits>
#include <numeric>
#include <sstream>
#include <thread>

#include "common/prng.h"
#include "trace.h"

namespace approx::bench {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

constexpr std::uint64_t kFailTag = 0xfa11;

// Full positional read from a raw descriptor.
bool pread_all(int fd, std::uint64_t offset, std::uint8_t* dst, std::size_t n) {
  while (n > 0) {
    const ssize_t got = ::pread(fd, dst, n, static_cast<off_t>(offset));
    if (got <= 0) return false;
    dst += got;
    n -= static_cast<std::size_t>(got);
    offset += static_cast<std::uint64_t>(got);
  }
  return true;
}

const store::VolumeStore::DecodeOptions kReadOpts{.allow_degraded = true,
                                                  .quarantine = false};

}  // namespace

void flush_dirty(const fs::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

// --- Report ------------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.push_back({name, value, unit});
}

void Report::info(const std::string& key, const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  info_.emplace_back(key, value);
}

void Report::attempt(bool ok, const std::string& what) {
  attempted_.fetch_add(1);
  if (ok) return;
  if (failed_.fetch_add(1) == 0) {
    std::fprintf(stderr, "approx_bench: first failed operation: %s\n",
                 what.c_str());
  }
}

void Report::mismatch(const std::string& what) {
  if (mismatches_.fetch_add(1) == 0) {
    std::fprintf(stderr, "approx_bench: WRONG BYTES: %s\n", what.c_str());
  }
}

std::string Report::serialize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out.precision(17);
  for (const Entry& e : metrics_) {
    out << "M " << e.name << ' ' << e.value << ' ' << e.unit << '\n';
  }
  for (const auto& [k, v] : info_) out << "I " << k << ' ' << v << '\n';
  out << "C attempted " << attempted_.load() << '\n';
  out << "C failed " << failed_.load() << '\n';
  return out.str();
}

// --- Ctx -----------------------------------------------------------------------

Ctx::Ctx(Config c) : cfg(std::move(c)) {
  if (cfg.traced) tracer = std::make_unique<Tracer>(pool);
}

Ctx::~Ctx() = default;

store::IoBackend& Ctx::io() {
  return tracer != nullptr ? tracer->wrap(posix) : posix;
}

store::StoreOptions Ctx::store_options(int cache_mb) {
  store::StoreOptions o;
  o.io_payload = store::kDefaultIoPayload;
  o.retry = RetryPolicy{};
  o.pool = &pool;
  o.pipeline_depth = kPipelineDepth;
  o.cache_mb = cache_mb;
  o.cache = nullptr;
  return o;
}

void Ctx::phase_begin(const std::string& phase) {
  if (tracer != nullptr) tracer->begin(phase);
}

void Ctx::phase_end() {
  if (tracer != nullptr) tracer->end();
}

void Ctx::checkpoint() {
  if (tracer != nullptr) tracer->checkpoint();
}

// --- Corpus --------------------------------------------------------------------

Corpus::Corpus(fs::path path, std::uint64_t bytes, std::uint64_t seed)
    : path_(std::move(path)), bytes_(bytes) {
  const int wfd = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (wfd < 0) throw Error("cannot create corpus " + path_.string());
  Rng rng(seed);
  std::vector<std::uint8_t> buf(1 << 20);
  std::uint64_t left = bytes;
  bool ok = true;
  while (ok && left > 0) {
    const std::size_t take =
        static_cast<std::size_t>(std::min<std::uint64_t>(buf.size(), left));
    fill_random(buf.data(), take, rng);
    ok = ::write(wfd, buf.data(), take) == static_cast<ssize_t>(take);
    left -= take;
  }
  ::close(wfd);
  fd_ = ok ? ::open(path_.c_str(), O_RDONLY) : -1;
  if (fd_ < 0) throw Error("cannot write corpus " + path_.string());
}

Corpus::~Corpus() {
  if (fd_ >= 0) ::close(fd_);
}

bool Corpus::matches(std::uint64_t offset,
                     std::span<const std::uint8_t> data) const {
  if (offset + data.size() > bytes_) return false;
  thread_local std::vector<std::uint8_t> expect;
  expect.resize(data.size());
  return pread_all(fd_, offset, expect.data(), data.size()) &&
         std::memcmp(expect.data(), data.data(), data.size()) == 0;
}

bool Corpus::equals_file(const fs::path& other) const {
  std::error_code ec;
  if (fs::file_size(other, ec) != bytes_ || ec) return false;
  const int fd = ::open(other.c_str(), O_RDONLY);
  if (fd < 0) return false;
  std::vector<std::uint8_t> got(1 << 20);
  bool same = true;
  for (std::uint64_t off = 0; same && off < bytes_; off += got.size()) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(got.size(), bytes_ - off));
    same = pread_all(fd, off, got.data(), n) && matches(off, {got.data(), n});
  }
  ::close(fd);
  return same;
}

// --- statistics ------------------------------------------------------------------

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- schedules -------------------------------------------------------------------

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t tag) {
  // One SplitMix64 step over (seed, tag): distinct tags give unrelated
  // xoshiro seeds.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + tag;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<ReadReq> zipf_schedule(std::uint64_t seed, std::size_t n,
                                   std::uint64_t bytes, std::uint32_t seg_bytes,
                                   double theta) {
  const std::size_t segs = static_cast<std::size_t>(bytes / seg_bytes);
  std::vector<double> cdf(segs);
  double sum = 0;
  for (std::size_t r = 0; r < segs; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), theta);
    cdf[r] = sum;
  }
  Rng rng(seed);
  std::vector<std::size_t> perm(segs);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  for (std::size_t i = segs; i > 1; --i) {
    std::swap(perm[i - 1], perm[static_cast<std::size_t>(rng.below(i))]);
  }
  std::vector<ReadReq> out(n);
  for (ReadReq& req : out) {
    const double u = rng.uniform() * sum;
    const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
    const std::size_t rank =
        std::min(static_cast<std::size_t>(it - cdf.begin()), segs - 1);
    req.offset = static_cast<std::uint64_t>(perm[rank]) * seg_bytes;
    req.len = seg_bytes;
  }
  return out;
}

std::vector<ReadReq> sequential_schedule(std::uint64_t seed, std::size_t n,
                                         std::uint64_t bytes,
                                         std::uint32_t seg_bytes) {
  const std::uint64_t segs = bytes / seg_bytes;
  Rng rng(seed);
  std::uint64_t seg = rng.below(segs);
  std::vector<ReadReq> out(n);
  for (ReadReq& req : out) {
    req.offset = seg * seg_bytes;
    req.len = seg_bytes;
    seg = (seg + 1) % segs;
  }
  return out;
}

// --- load generators ---------------------------------------------------------------

namespace {

// One read: the timed call, then (untimed) the oracle check.
void serve_one(Ctx& ctx, store::VolumeStore& vol, const ReadReq& req,
               const Corpus& oracle, std::vector<std::uint8_t>& buf,
               Clock::time_point due, std::size_t i, ServeStats& st) {
  buf.resize(req.len);
  bool ok = false;
  std::string error = "explicit loss";
  const Clock::time_point start = Clock::now();
  try {
    const auto res = vol.read(req.offset, {buf.data(), req.len}, kReadOpts);
    ok = res.crc_ok && res.unrecoverable_bytes == 0;
  } catch (const std::exception& e) {
    error = e.what();
  }
  const Clock::time_point done = Clock::now();
  st.service_ms[i] = ms_between(start, done);
  // A failed request misses every latency limit.
  st.latency_ms[i] =
      ok ? ms_between(due, done) : std::numeric_limits<double>::infinity();
  const std::string what = "read @" + std::to_string(req.offset);
  ctx.report.attempt(ok, what + ": " + error);
  if (ok && !oracle.matches(req.offset, {buf.data(), req.len})) {
    ctx.report.mismatch(what);
  }
}

ServeStats sized_stats(const std::vector<ReadReq>& schedule) {
  ServeStats st;
  st.latency_ms.assign(schedule.size(), 0.0);
  st.service_ms.assign(schedule.size(), 0.0);
  st.queue_ms.assign(schedule.size(), 0.0);
  for (const ReadReq& r : schedule) st.requested_bytes += r.len;
  return st;
}

}  // namespace

ServeStats serve_open_loop(Ctx& ctx, store::VolumeStore& vol,
                           const std::vector<ReadReq>& schedule, double qps,
                           unsigned workers, const Corpus& oracle) {
  ServeStats st = sized_stats(schedule);
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::size_t> queue;
  bool done = false;

  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  auto due = [&](std::size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) / qps));
  };

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      std::vector<std::uint8_t> buf;
      for (;;) {
        std::size_t i;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return done || !queue.empty(); });
          if (queue.empty()) return;
          i = queue.front();
          queue.pop_front();
        }
        st.queue_ms[i] = ms_between(due(i), Clock::now());
        serve_one(ctx, vol, schedule[i], oracle, buf, due(i), i, st);
      }
    });
  }
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    // Sleep to just short of the due time, then spin: a timer wakeup alone
    // lands tens of microseconds late, and that lateness would count in
    // every sub-millisecond cache hit.
    std::this_thread::sleep_until(due(i) - std::chrono::microseconds(200));
    while (Clock::now() < due(i)) {
    }
    st.max_lag_ms = std::max(st.max_lag_ms, ms_between(due(i), Clock::now()));
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back(i);
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  for (std::thread& t : threads) t.join();
  return st;
}

ServeStats serve_closed_loop(Ctx& ctx, store::VolumeStore& vol,
                             const std::vector<ReadReq>& schedule,
                             const Corpus& oracle) {
  ServeStats st = sized_stats(schedule);
  std::vector<std::uint8_t> buf;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    serve_one(ctx, vol, schedule[i], oracle, buf, Clock::now(), i, st);
  }
  return st;
}

// --- bulk lifecycle ------------------------------------------------------------------

LocalBulkOps::LocalBulkOps(store::IoBackend& io, fs::path root,
                           store::StoreOptions opts, const Corpus& corpus)
    : io_(io), root_(std::move(root)), opts_(std::move(opts)), corpus_(corpus) {
  fs::create_directories(root_);
}

LocalBulkOps::~LocalBulkOps() {
  vols_.clear();
  std::error_code ec;
  fs::remove_all(root_, ec);
}

store::VolumeStore& LocalBulkOps::volume(const std::string& name) {
  for (auto& [n, v] : vols_) {
    if (n == name) return *v;
  }
  throw Error("no volume " + name);
}

std::unique_ptr<store::VolumeStore> encode_volume(
    store::IoBackend& io, const fs::path& input, const fs::path& dir,
    const store::StoreOptions& opts) {
  // Direct-initialized from the prvalue: VolumeStore is not movable.
  return std::unique_ptr<store::VolumeStore>(
      new store::VolumeStore(store::VolumeStore::encode_file(
          io, input, dir, kParams, kBlock, std::nullopt, opts)));
}

void LocalBulkOps::ingest(const std::string& name) {
  vols_.emplace_back(name, encode_volume(io_, corpus_.path(), root_ / name, opts_));
}

store::VolumeStore::DecodeResult LocalBulkOps::readback(const std::string& name,
                                                        const fs::path& out) {
  return volume(name).decode_file(out, kReadOpts);
}

void LocalBulkOps::fail_node(const std::string& name, int node) {
  fs::remove(volume(name).node_path(node));
}

store::RepairOutcome LocalBulkOps::repair(const std::string& name) {
  return store::ScrubService(volume(name)).repair();
}

bool LocalBulkOps::scrub_clean(const std::string& name) {
  return store::ScrubService(volume(name)).scrub().clean();
}

void LocalBulkOps::drop(const std::string& name) {
  std::erase_if(vols_, [&](const auto& e) { return e.first == name; });
  std::error_code ec;
  fs::remove_all(root_ / name, ec);
}

int failed_node(std::uint64_t seed) {
  Rng rng(stream_seed(seed, kFailTag));
  const int stripe = static_cast<int>(rng.below(static_cast<std::uint64_t>(kParams.h)));
  const int index = static_cast<int>(rng.below(static_cast<std::uint64_t>(kParams.k)));
  return core::data_node_id(kParams, stripe, index);
}

void bulk_cycle(Ctx& ctx, BulkOps& ops, const Corpus& corpus,
                const std::string& name, int node, BulkStats* stats) {
  const fs::path out = ctx.cfg.work / (name + ".out");
  // Times and counts one operation; `op` returns whether its result is
  // acceptable, and a throw counts as a failure too.
  auto run = [&](const char* what, auto&& op, double& secs) {
    flush_dirty(ctx.cfg.work);
    try {
      bool ok = false;
      secs = time_s([&] { ok = op(); });
      ctx.checkpoint();
      ctx.report.attempt(ok, name + " " + what);
      return ok;
    } catch (const std::exception& e) {
      ctx.report.attempt(false, name + " " + what + ": " + e.what());
      return false;
    }
  };
  // A readback must be exact, and a degraded one must have seen the loss
  // (otherwise nothing degraded was measured).
  auto exact = [](const store::VolumeStore::DecodeResult& r, bool degraded) {
    return r.crc_ok && r.unrecoverable_bytes == 0 &&
           (!degraded || r.degraded_stripes > 0 || !r.degraded_nodes.empty());
  };
  auto check_bytes = [&] {
    if (!corpus.equals_file(out)) ctx.report.mismatch(name + " readback");
  };

  double t_in = 0, t_rd = 0, t_deg = 0, t_rep = 0, t_scrub = 0;
  bool ok = run("ingest", [&] { ops.ingest(name); return true; }, t_in);
  ok = ok && run("readback", [&] { return exact(ops.readback(name, out), false); },
                 t_rd);
  if (ok) {
    check_bytes();
    ops.fail_node(name, node);
  }
  ok = ok && run("degraded readback",
                 [&] { return exact(ops.readback(name, out), true); }, t_deg);
  if (ok) check_bytes();
  ok = ok && run("repair",
                 [&] {
                   const store::RepairOutcome rep = ops.repair(name);
                   return rep.attempted && rep.fully_recovered &&
                          rep.unimportant_bytes_lost == 0;
                 },
                 t_rep);
  ok = ok && run("post-repair scrub", [&] { return ops.scrub_clean(name); },
                 t_scrub);
  std::error_code ec;
  fs::remove(out, ec);
  ops.drop(name);
  if (ok && stats != nullptr) {
    stats->object_bytes = corpus.size();
    stats->ingest_s.push_back(t_in);
    stats->readback_s.push_back(t_rd);
    stats->degraded_s.push_back(t_deg);
    stats->repair_s.push_back(t_rep);
    stats->logical_bytes += 4 * corpus.size();
  }
}

}  // namespace approx::bench
