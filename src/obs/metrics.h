// approx::obs metrics registry.
//
// A process-wide, thread-safe registry of named instruments:
//   - Counter:        monotonically increasing 64-bit count (one atomic);
//   - ShardedCounter: counter striped across cache lines for hot paths hit
//                     concurrently by ThreadPool workers (kernel byte
//                     throughput) - value() folds the shards;
//   - Gauge:          last-written double (per-resource utilization, ...);
//   - Histogram:      fixed log-spaced buckets (4 per octave) with lock-free
//                     atomic increments and approximate p50/p90/p99
//                     extraction (error bounded by the ~19% bucket width).
//
// Registration (name lookup) takes a mutex; every recording operation after
// that is a relaxed atomic and is safe from any thread.  Call sites on hot
// paths cache the returned reference in a function-local static so the hot
// path never touches the registry lock.  Naming scheme and exporter formats
// are documented in docs/observability.md.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace approx::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

// Counter variant for increments issued concurrently from many threads on a
// genuinely hot path: each thread lands on one of kShards cache-line-padded
// slots, so adds never contend on a shared line.  Reads fold all shards.
class ShardedCounter {
 public:
  static constexpr unsigned kShards = 16;

  void add(std::uint64_t n = 1) noexcept {
    shards_[shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }
  void reset() noexcept {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  static unsigned shard_index() noexcept;
  std::array<Shard, kShards> shards_{};
};

class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { set(0); }

 private:
  std::atomic<double> v_{0};
};

// Fixed-bucket log-spaced histogram.  Bucket i covers
// (upper_bound(i-1), upper_bound(i)] with upper_bound(i) =
// 2^(kMinExp + (i+1)/kBucketsPerOctave); values <= 2^kMinExp land in bucket
// 0 and values beyond the top bucket saturate into it.  The default range
// [2^-16, 2^40] spans ~15 ns to ~12 days when recording microseconds.
class Histogram {
 public:
  static constexpr int kBucketsPerOctave = 4;
  static constexpr int kMinExp = -16;
  static constexpr int kOctaves = 56;
  static constexpr int kBuckets = kOctaves * kBucketsPerOctave;

  void record(double v) noexcept {
    buckets_[static_cast<std::size_t>(bucket_of(v))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    // Keep the running max (CAS loop; rarely retried).
    double cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  double max() const noexcept { return max_.load(std::memory_order_relaxed); }
  double mean() const noexcept {
    const std::uint64_t c = count();
    return c == 0 ? 0.0 : sum() / static_cast<double>(c);
  }

  // Approximate quantile (p in [0,1]): the geometric midpoint of the bucket
  // where the cumulative count crosses p * count().
  double percentile(double p) const noexcept;

  std::uint64_t bucket_count(int i) const noexcept {
    return buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
  }
  static double upper_bound(int i) noexcept {
    return std::exp2(kMinExp + static_cast<double>(i + 1) / kBucketsPerOctave);
  }
  static double lower_bound(int i) noexcept {
    return i == 0 ? 0.0 : upper_bound(i - 1);
  }
  // ceil(4 * (log2 v - kMinExp)) - 1, computed from the IEEE-754 exponent
  // and three mantissa compares instead of libm log2/ceil (the record() hot
  // path).  The quarter-octave thresholds come from the same std::exp2 that
  // upper_bound() uses, so "the upper bound of a bucket lands in that
  // bucket" holds bit-exactly.
  static int bucket_of(double v) noexcept {
    if (!(v > 0)) return 0;  // also catches NaN
    constexpr std::uint64_t kFracMask = (std::uint64_t{1} << 52) - 1;
    static const std::uint64_t quarter[3] = {
        std::bit_cast<std::uint64_t>(std::exp2(0.25)) & kFracMask,
        std::bit_cast<std::uint64_t>(std::exp2(0.5)) & kFracMask,
        std::bit_cast<std::uint64_t>(std::exp2(0.75)) & kFracMask};
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    const int ef = static_cast<int>(bits >> 52);
    if (ef == 0) return 0;                 // subnormal: far below 2^kMinExp
    if (ef == 0x7ff) return kBuckets - 1;  // +inf saturates
    const std::uint64_t frac = bits & kFracMask;
    int q = 0;
    if (frac != 0) {
      q = 1 + static_cast<int>(frac > quarter[0]) +
          static_cast<int>(frac > quarter[1]) +
          static_cast<int>(frac > quarter[2]);
    }
    const int pos = kBucketsPerOctave * (ef - 1023 - kMinExp) + q - 1;
    if (pos < 0) return 0;
    if (pos >= kBuckets) return kBuckets - 1;
    return pos;
  }

  void reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0};
  std::atomic<double> max_{0};
};

// Process-wide instrument registry.  Instruments are created on first
// lookup and live for the process lifetime (pointers/references stay valid),
// so call sites may cache them.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(std::string_view name);
  ShardedCounter& sharded_counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  // Zero every instrument's value; registrations are kept.
  void reset();

  // {"counters":{name:value,...},"gauges":{...},"histograms":{name:
  //  {"count":..,"sum":..,"mean":..,"p50":..,"p90":..,"p99":..,"max":..,
  //   "buckets":[[upper_bound,count],...]}}}
  // Sharded counters are folded into the "counters" section.
  std::string to_json() const;

  // Aligned human-readable dump (one instrument per line).
  std::string to_text() const;

 private:
  Registry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<ShardedCounter>, std::less<>> sharded_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

inline Registry& registry() { return Registry::instance(); }

}  // namespace approx::obs
