// Timing decorators for the traced run.  Both wrap a real implementation
// behind the library's own interface, so the layers under test run
// unchanged; the decorator only counts calls, bytes and wall time per
// operation.  Neither records spans: one span per syscall or RPC would
// overflow the per-thread span buffers long before a workload ends.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>

#include "net/transport.h"
#include "store/io_backend.h"

namespace approx::bench {

// Plain snapshot of one operation's counters.
struct OpTotals {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
  std::uint64_t bytes = 0;
  std::uint64_t failures = 0;

  OpTotals& operator+=(const OpTotals& o);
  OpTotals operator-(const OpTotals& o) const;
  double ms() const { return static_cast<double>(ns) / 1e6; }
};

// Lock-free accumulator behind an OpTotals snapshot.
class OpCounter {
 public:
  void record(std::uint64_t ns, std::uint64_t bytes, bool ok) noexcept;
  OpTotals totals() const noexcept;

 private:
  std::atomic<std::uint64_t> calls_{0}, ns_{0}, bytes_{0}, failures_{0};
};

// IoBackend decorator.  sync() and sync_dir() both count as kSync; remove,
// create_directories, exists and file_size count as kOther.
class TimedIoBackend final : public store::IoBackend {
 public:
  enum Op { kOpen, kPread, kPwrite, kSync, kRename, kOther, kOpCount };
  static const char* op_name(int op);

  explicit TimedIoBackend(store::IoBackend& inner) : inner_(inner) {}

  std::array<OpTotals, kOpCount> totals() const;

  store::IoStatus open(const std::filesystem::path& path, OpenMode mode,
                       std::unique_ptr<store::IoFile>& out) override;
  store::IoStatus rename(const std::filesystem::path& from,
                         const std::filesystem::path& to) override;
  store::IoStatus remove(const std::filesystem::path& path) override;
  store::IoStatus create_directories(const std::filesystem::path& path) override;
  store::IoStatus sync_dir(const std::filesystem::path& dir) override;
  bool exists(const std::filesystem::path& path) override;
  store::IoStatus file_size(const std::filesystem::path& path,
                            std::uint64_t& out) override;

  OpCounter& counter(Op op) { return ops_[static_cast<std::size_t>(op)]; }

 private:
  store::IoBackend& inner_;
  std::array<OpCounter, kOpCount> ops_;
};

// Transport decorator.  call() is timed per Frame::type on the client
// side (bytes = request + response frame bytes); the handler handed to
// serve() is timed per type on the server side.  Client time minus server
// time is the wire share: framing, sockets and thread hand-offs.
class TimedTransport final : public net::Transport {
 public:
  static constexpr std::size_t kTypes = 64;  // MsgType values fit below this

  struct Totals {
    std::array<OpTotals, kTypes> client{};
    std::array<OpTotals, kTypes> server{};
    OpTotals client_sum() const;
    OpTotals server_sum() const;
    Totals operator-(const Totals& o) const;
  };

  explicit TimedTransport(net::Transport& inner) : inner_(inner) {}

  Totals totals() const;

  net::NetStatus serve(const net::Endpoint& endpoint, net::RpcHandler handler,
                       net::Endpoint* bound = nullptr) override;
  void stop(const net::Endpoint& endpoint) override;
  net::NetStatus call(const net::Endpoint& endpoint, const net::Frame& req,
                      net::Frame& resp,
                      std::chrono::microseconds timeout) override;

 private:
  static std::size_t slot(std::uint16_t type) {
    return type < kTypes ? type : kTypes - 1;
  }

  net::Transport& inner_;
  std::array<OpCounter, kTypes> client_;
  std::array<OpCounter, kTypes> server_;
};

}  // namespace approx::bench
