#include "timed.h"

#include <chrono>

#include "net/wire.h"

namespace approx::bench {

namespace {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t frame_bytes(const net::Frame& f) {
  return net::kFrameHeaderBytes + f.payload.size() + net::kFrameCrcBytes;
}

class TimedIoFile final : public store::IoFile {
 public:
  TimedIoFile(std::unique_ptr<store::IoFile> inner, TimedIoBackend& owner)
      : inner_(std::move(inner)), owner_(owner) {}

  store::IoStatus pread(std::uint64_t offset,
                        std::span<std::uint8_t> out) override {
    const std::uint64_t t0 = now_ns();
    store::IoStatus st = inner_->pread(offset, out);
    owner_.counter(TimedIoBackend::kPread)
        .record(now_ns() - t0, st.ok() ? out.size() : 0, st.ok());
    return st;
  }
  store::IoStatus pwrite(std::uint64_t offset,
                         std::span<const std::uint8_t> data) override {
    const std::uint64_t t0 = now_ns();
    store::IoStatus st = inner_->pwrite(offset, data);
    owner_.counter(TimedIoBackend::kPwrite)
        .record(now_ns() - t0, st.ok() ? data.size() : 0, st.ok());
    return st;
  }
  store::IoStatus sync() override {
    const std::uint64_t t0 = now_ns();
    store::IoStatus st = inner_->sync();
    owner_.counter(TimedIoBackend::kSync).record(now_ns() - t0, 0, st.ok());
    return st;
  }

 private:
  std::unique_ptr<store::IoFile> inner_;
  TimedIoBackend& owner_;
};

}  // namespace

OpTotals& OpTotals::operator+=(const OpTotals& o) {
  calls += o.calls;
  ns += o.ns;
  bytes += o.bytes;
  failures += o.failures;
  return *this;
}

OpTotals OpTotals::operator-(const OpTotals& o) const {
  return {calls - o.calls, ns - o.ns, bytes - o.bytes, failures - o.failures};
}

void OpCounter::record(std::uint64_t ns, std::uint64_t bytes, bool ok) noexcept {
  calls_.fetch_add(1, std::memory_order_relaxed);
  ns_.fetch_add(ns, std::memory_order_relaxed);
  bytes_.fetch_add(bytes, std::memory_order_relaxed);
  if (!ok) failures_.fetch_add(1, std::memory_order_relaxed);
}

OpTotals OpCounter::totals() const noexcept {
  return {calls_.load(std::memory_order_relaxed),
          ns_.load(std::memory_order_relaxed),
          bytes_.load(std::memory_order_relaxed),
          failures_.load(std::memory_order_relaxed)};
}

// --- TimedIoBackend ----------------------------------------------------------

const char* TimedIoBackend::op_name(int op) {
  static const char* const kNames[kOpCount] = {"open",  "pread",  "pwrite",
                                               "sync",  "rename", "other"};
  return kNames[op];
}

std::array<OpTotals, TimedIoBackend::kOpCount> TimedIoBackend::totals() const {
  std::array<OpTotals, kOpCount> out{};
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = ops_[i].totals();
  return out;
}

store::IoStatus TimedIoBackend::open(const std::filesystem::path& path,
                                     OpenMode mode,
                                     std::unique_ptr<store::IoFile>& out) {
  const std::uint64_t t0 = now_ns();
  std::unique_ptr<store::IoFile> file;
  store::IoStatus st = inner_.open(path, mode, file);
  counter(kOpen).record(now_ns() - t0, 0, st.ok());
  if (st.ok()) out = std::make_unique<TimedIoFile>(std::move(file), *this);
  return st;
}

store::IoStatus TimedIoBackend::rename(const std::filesystem::path& from,
                                       const std::filesystem::path& to) {
  const std::uint64_t t0 = now_ns();
  store::IoStatus st = inner_.rename(from, to);
  counter(kRename).record(now_ns() - t0, 0, st.ok());
  return st;
}

store::IoStatus TimedIoBackend::remove(const std::filesystem::path& path) {
  const std::uint64_t t0 = now_ns();
  store::IoStatus st = inner_.remove(path);
  counter(kOther).record(now_ns() - t0, 0, st.ok());
  return st;
}

store::IoStatus TimedIoBackend::create_directories(
    const std::filesystem::path& path) {
  const std::uint64_t t0 = now_ns();
  store::IoStatus st = inner_.create_directories(path);
  counter(kOther).record(now_ns() - t0, 0, st.ok());
  return st;
}

store::IoStatus TimedIoBackend::sync_dir(const std::filesystem::path& dir) {
  const std::uint64_t t0 = now_ns();
  store::IoStatus st = inner_.sync_dir(dir);
  counter(kSync).record(now_ns() - t0, 0, st.ok());
  return st;
}

bool TimedIoBackend::exists(const std::filesystem::path& path) {
  const std::uint64_t t0 = now_ns();
  const bool found = inner_.exists(path);
  counter(kOther).record(now_ns() - t0, 0, true);
  return found;
}

store::IoStatus TimedIoBackend::file_size(const std::filesystem::path& path,
                                          std::uint64_t& out) {
  const std::uint64_t t0 = now_ns();
  store::IoStatus st = inner_.file_size(path, out);
  counter(kOther).record(now_ns() - t0, 0, st.ok());
  return st;
}

// --- TimedTransport ----------------------------------------------------------

OpTotals TimedTransport::Totals::client_sum() const {
  OpTotals s;
  for (const OpTotals& t : client) s += t;
  return s;
}

OpTotals TimedTransport::Totals::server_sum() const {
  OpTotals s;
  for (const OpTotals& t : server) s += t;
  return s;
}

TimedTransport::Totals TimedTransport::Totals::operator-(const Totals& o) const {
  Totals d;
  for (std::size_t i = 0; i < kTypes; ++i) {
    d.client[i] = client[i] - o.client[i];
    d.server[i] = server[i] - o.server[i];
  }
  return d;
}

TimedTransport::Totals TimedTransport::totals() const {
  Totals t;
  for (std::size_t i = 0; i < kTypes; ++i) {
    t.client[i] = client_[i].totals();
    t.server[i] = server_[i].totals();
  }
  return t;
}

net::NetStatus TimedTransport::serve(const net::Endpoint& endpoint,
                                     net::RpcHandler handler,
                                     net::Endpoint* bound) {
  return inner_.serve(
      endpoint,
      [this, h = std::move(handler)](const net::Frame& req, net::Frame& resp) {
        const std::uint64_t t0 = now_ns();
        h(req, resp);
        server_[slot(req.type)].record(now_ns() - t0, 0, true);
      },
      bound);
}

void TimedTransport::stop(const net::Endpoint& endpoint) { inner_.stop(endpoint); }

net::NetStatus TimedTransport::call(const net::Endpoint& endpoint,
                                    const net::Frame& req, net::Frame& resp,
                                    std::chrono::microseconds timeout) {
  const std::uint64_t t0 = now_ns();
  net::NetStatus st = inner_.call(endpoint, req, resp, timeout);
  client_[slot(req.type)].record(
      now_ns() - t0, frame_bytes(req) + (st.ok() ? frame_bytes(resp) : 0),
      st.ok());
  return st;
}

}  // namespace approx::bench
