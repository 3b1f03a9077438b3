// approxcli - file-backed Approximate Code volumes on ApproxStore.
//
//   approxcli encode [options] <input-file> <volume-dir>
//   approxcli info   <volume-dir>
//   approxcli scrub  <volume-dir>
//   approxcli repair <volume-dir>
//   approxcli decode <volume-dir> <output-file>
//   approxcli stats  [--json] <volume-dir>
//
// encode streams the input through the codec into a v2 volume directory
// (superblock.bin, blocked node_NNN.acb chunk files with per-block CRC
// footers, atomically committed manifest.txt) in bounded memory; the input
// never lives in RAM at once.  scrub verifies every block's integrity
// footer (plus the codec's parity equations when the volume is fully
// present), repair rebuilds missing or corrupt chunk files stripe by
// stripe, and decode reassembles the original file, checking its whole-file
// CRC.  Legacy v1 volumes (raw node_NNN.bin, no footers) stay readable:
// decode/repair/stats work unchanged, and scrub falls back to the parity
// check since no per-block integrity data exists.
//
// stats dumps the observability registry - counters, gauges and span
// latency histograms - as text or JSON after exercising the volume, plus
// the slowest recorded operations (op, trace id, duration).  The global
// --trace flag (any command) additionally records trace spans and prints
// the span timeline plus the registry to stderr on exit; --trace-out FILE
// records the same spans and writes them as Chrome trace-event JSON
// (chrome://tracing / Perfetto) to FILE.  Every command runs under a root
// span "cli.<cmd>", so all recorded spans stitch into one causal tree per
// invocation.
//
// Options: --family rs|lrc|star|tip|crs  --k N --r N --g N --h N
//          --structure even|uneven  --block BYTES  --split BYTES
#include <atomic>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/approximate_code.h"
#include "net/tcp.h"
#include "obs/metrics.h"
#include "obs/slow_ops.h"
#include "obs/span.h"
#include "serving/client.h"
#include "serving/coordinator.h"
#include "serving/daemon.h"
#include "common/thread_pool.h"
#include "store/pipeline.h"
#include "store/scrubber.h"
#include "store/store.h"

namespace fs = std::filesystem;
using namespace approx;

namespace {

// Exit codes, one per failure class so scripts can branch without parsing
// output (documented in README.md):
//   0  success (including a degraded read that reconstructed everything)
//   1  detected corruption / damage that repair can still fix
//   2  usage error
//   3  I/O error (device failure, ENOSPC, unreadable volume)
//   4  unrecoverable data loss (damage beyond the code's tolerance)
//   5  network failure (coordinator/daemon unreachable, RPC timeouts) -
//      distinguished from 3 so scripts can retry instead of paging
constexpr int kExitOk = 0;
constexpr int kExitCorruption = 1;
constexpr int kExitUsage = 2;
constexpr int kExitIoError = 3;
constexpr int kExitDataLoss = 4;
constexpr int kExitNetwork = 5;

struct Options {
  core::ApprParams params{codes::Family::RS, 4, 1, 2, 4, core::Structure::Even};
  std::size_t block = 4096;
  std::optional<std::uint64_t> split;
};

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n", msg);
  std::fprintf(stderr,
               "usage: approxcli encode [--family rs|lrc|star|tip|crs] [--k N] "
               "[--r N] [--g N] [--h N] [--structure even|uneven] "
               "[--block BYTES] [--split BYTES] <input> <volume-dir>\n"
               "       approxcli info|scrub|repair <volume-dir>\n"
               "       approxcli decode <volume-dir> <output>\n"
               "       approxcli stats [--json] <volume-dir>\n"
               "cluster (docs/distributed.md):\n"
               "       approxcli coordinator --listen HOST:PORT --meta DIR\n"
               "       approxcli serve --listen HOST:PORT --data DIR "
               "--coordinator HOST:PORT [--name S] [--rack N]\n"
               "       approxcli put --coordinator HOST:PORT [codec options] "
               "<input> <volume>\n"
               "       approxcli get --coordinator HOST:PORT <volume> <output>\n"
               "       approxcli scrub|repair --coordinator HOST:PORT <volume>\n"
               "       approxcli stats [--json] --coordinator HOST:PORT "
               "<volume>\n"
               "       client options: --timeout-ms N  --hedge-ms N (slow-node"
               " hedged-request cutoff)\n"
               "global: --trace  print trace spans + metrics to stderr on exit\n"
               "        --trace-out FILE  write spans as Chrome trace-event\n"
               "          JSON to FILE (load in chrome://tracing / Perfetto)\n"
               "        --pipeline-depth N  in-flight stripes of the store\n"
               "          pipeline (default: APPROX_PIPELINE_DEPTH env, else\n"
               "          sized to the thread pool; 1 = serial store I/O)\n"
               "        --cache-mb N  hot-tier read cache budget in MB\n"
               "          (default: APPROX_CACHE_MB env, else 0 = off)\n"
               "exit codes: 0 ok, 1 detected corruption (repairable), "
               "2 usage, 3 I/O error, 4 unrecoverable data loss, "
               "5 network failure\n");
  std::exit(kExitUsage);
}

codes::Family parse_family(const std::string& s) {
  try {
    return store::family_from_flag(s);
  } catch (const Error&) {
    usage("unknown family");
  }
}

// Strict digit-only parse for option values; anything else is a usage
// error naming the flag, never an uncaught std::stoi exception.
std::uint64_t parse_u64_opt(const std::string& flag, const std::string& s) {
  if (s.empty()) usage((flag + " needs a number").c_str());
  std::uint64_t v = 0;
  for (const char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c)) ||
        v > (UINT64_MAX - static_cast<std::uint64_t>(c - '0')) / 10) {
      usage((flag + " is not a valid number: " + s).c_str());
    }
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

int parse_int_opt(const std::string& flag, const std::string& s) {
  const std::uint64_t v = parse_u64_opt(flag, s);
  if (v > 1 << 20) usage((flag + " out of range: " + s).c_str());
  return static_cast<int>(v);
}

store::PosixIoBackend& posix_io() {
  static store::PosixIoBackend io;
  return io;
}

// Global --pipeline-depth flag; 0 keeps the StoreOptions auto default
// (APPROX_PIPELINE_DEPTH env, else sized to the pool).
int g_pipeline_depth = 0;

// Global --cache-mb flag; -1 keeps the StoreOptions auto default
// (APPROX_CACHE_MB env, else no cache).
int g_cache_mb = -1;

store::StoreOptions store_options() {
  store::StoreOptions opts;
  opts.pipeline_depth = g_pipeline_depth;
  opts.cache_mb = g_cache_mb;
  return opts;
}

store::VolumeStore open_volume(const fs::path& dir) {
  return store::VolumeStore(posix_io(), dir, store_options());
}

// ---------------------------------------------------------------------------
// Commands
// ---------------------------------------------------------------------------

// encode/put check the input against the code before any I/O (e.g.
// unimportant bytes under h = 1); those InvalidArguments are usage errors.
int cmd_encode(const Options& opts, const fs::path& input, const fs::path& dir) try {
  store::VolumeStore vol = store::VolumeStore::encode_file(
      posix_io(), input, dir, opts.params, opts.block, opts.split,
      store_options());
  const store::Manifest& m = vol.manifest();
  const core::ApproximateCode& code = vol.code();
  std::printf("encoded %llu B as %s across %d node files (%llu chunk(s), "
              "%.2fx storage)\n",
              static_cast<unsigned long long>(m.file_size), code.name().c_str(),
              code.total_nodes(), static_cast<unsigned long long>(m.chunks),
              static_cast<double>(code.total_nodes()) /
                  code.params().total_data_nodes());
  return 0;
} catch (const InvalidArgument& e) {
  usage(e.reason());
}

int cmd_info(const fs::path& dir) {
  store::VolumeStore vol = open_volume(dir);
  const store::Manifest& m = vol.manifest();
  const core::ApproximateCode& code = vol.code();
  std::printf("volume       : %s (format v%u)\n", code.name().c_str(),
              m.version);
  std::printf("nodes        : %d (%llu B each)\n", code.total_nodes(),
              static_cast<unsigned long long>(vol.node_stream_bytes()));
  std::printf("file size    : %llu B (crc32 %08x)\n",
              static_cast<unsigned long long>(m.file_size), m.file_crc);
  std::printf("important    : %llu B (%.1f%%)\n",
              static_cast<unsigned long long>(m.important_len),
              m.file_size ? 100.0 * static_cast<double>(m.important_len) /
                                static_cast<double>(m.file_size)
                          : 0.0);
  int present = 0;
  for (int n = 0; n < code.total_nodes(); ++n) {
    present += vol.node_present(n) ? 1 : 0;
  }
  std::printf("node files   : %d/%d present\n", present, code.total_nodes());
  return 0;
}

int cmd_scrub(const fs::path& dir) {
  store::VolumeStore vol = open_volume(dir);
  store::ScrubService service(vol);
  const store::ScrubReport report = service.scrub();
  if (!report.clean()) {
    std::printf("scrub: %zu damaged node file(s) (%llu missing, %llu corrupt "
                "block(s)) - run `approxcli repair`\n",
                report.damaged.size(),
                static_cast<unsigned long long>(report.missing_nodes),
                static_cast<unsigned long long>(report.corrupt_blocks));
    return kExitCorruption;
  }
  // All chunk files pass their integrity checks (v2) or are present at the
  // right size (v1); finish with the codec-level parity consistency check,
  // which is the only corruption detector v1 volumes have.
  const auto parity = vol.parity_scrub();
  if (!parity.clean()) {
    std::printf("scrub: %llu inconsistent parity element(s) - data "
                "corruption!\n",
                static_cast<unsigned long long>(parity.mismatched_elements));
    return kExitCorruption;
  }
  std::printf("scrub: clean (%llu chunk(s)%s)\n",
              static_cast<unsigned long long>(parity.stripes),
              report.integrity_checked ? "" : ", v1: parity check only");
  return kExitOk;
}

int cmd_repair(const fs::path& dir) {
  store::VolumeStore vol = open_volume(dir);
  store::ScrubService service(vol);
  const store::ScrubReport report = service.scrub();
  if (report.clean()) {
    std::printf("repair: nothing to do\n");
    return kExitOk;
  }
  std::printf("repair: %zu damaged node(s):", report.damaged.size());
  for (const auto& d : report.damaged) {
    std::printf(" %d%s", d.node, d.missing ? "(missing)" : "");
  }
  std::printf("\n");

  const store::RepairOutcome outcome = service.repair_damage(report);
  std::printf("repair: important data %s; %s",
              outcome.all_important_recovered ? "recovered" : "LOST",
              outcome.fully_recovered ? "volume fully restored\n" : "");
  if (!outcome.fully_recovered) {
    std::printf("%llu B of unimportant data unrecoverable (zero-filled)\n",
                static_cast<unsigned long long>(outcome.unimportant_bytes_lost));
  }
  // Losing unimportant data is the approximate-storage trade-off the
  // volume was configured for; losing important data is real data loss.
  return outcome.all_important_recovered ? kExitOk : kExitDataLoss;
}

int cmd_decode(const fs::path& dir, const fs::path& output) {
  store::VolumeStore vol = open_volume(dir);
  const store::VolumeStore::DecodeResult result = vol.decode_file(output);
  if (!result.degraded_nodes.empty()) {
    std::printf("decode: degraded read - reconstructed node(s):");
    for (const int n : result.degraded_nodes) std::printf(" %d", n);
    std::printf(" (%zu quarantined)\n", result.quarantined_nodes.size());
  }
  std::printf("decoded %llu B -> %s (%s)\n",
              static_cast<unsigned long long>(result.bytes),
              output.string().c_str(),
              result.crc_ok ? "checksum OK"
                            : "CHECKSUM MISMATCH: some data was lost");
  if (!result.crc_ok || result.unrecoverable_bytes > 0) {
    std::printf("decode: %llu B unrecoverable (zero-filled); important data "
                "%s\n",
                static_cast<unsigned long long>(result.unrecoverable_bytes),
                result.important_ok ? "intact" : "LOST");
    return kExitDataLoss;
  }
  // The degraded read was exact: finish the self-heal by draining the
  // repair queue it left behind, restoring full redundancy on disk.
  if (!result.degraded_nodes.empty()) {
    store::ScrubService service(vol);
    const store::RepairOutcome healed = service.drain_pending();
    if (healed.attempted) {
      std::printf("decode: background repair rebuilt %zu node file(s)\n",
                  healed.rebuilt_nodes.size());
    }
  }
  return kExitOk;
}

// Slowest recorded operations, one line each; the trace id is the join key
// into the span timeline (--trace / --trace-out).
void print_slow_ops(std::FILE* f) {
  const auto slow = obs::SlowOps::top(10);
  if (slow.empty()) return;
  std::fprintf(f, "--- slowest ops (threshold %.0f us) ---\n",
               obs::SlowOps::threshold_us());
  for (const auto& e : slow) {
    std::fprintf(f, "%-32s trace=%llu dur=%.1fus\n", e.op.c_str(),
                 static_cast<unsigned long long>(e.trace_id), e.dur_us);
  }
}

int cmd_stats(const fs::path& dir, bool json) {
  store::VolumeStore vol = open_volume(dir);
  store::ScrubService service(vol);

  // Exercise the volume so the registry reflects it: integrity-scrub every
  // chunk file, then run the codec's parity scrub when all nodes are
  // present, or plan (in memory - no file is touched) the repair of the
  // damaged ones so the repair-path instruments fill in.
  const store::ScrubReport report = service.scrub();
  if (report.clean()) {
    vol.parity_scrub();
  } else {
    vol.code().plan_repair(report.damaged_nodes());
  }
  // Snapshot the shared pool's queue depths and aging counter into gauges
  // so the dump includes scheduler state alongside the store counters.
  store::publish_pool_gauges(ThreadPool::global());

  if (json) {
    std::printf("%s\n", obs::registry().to_json().c_str());
  } else {
    std::printf("%s (%llu chunk(s), %zu damaged node(s))\n%s",
                vol.code().name().c_str(),
                static_cast<unsigned long long>(vol.manifest().chunks),
                report.damaged.size(), obs::registry().to_text().c_str());
    print_slow_ops(stdout);
  }
  return kExitOk;
}

// ---------------------------------------------------------------------------
// Cluster commands (docs/distributed.md)
// ---------------------------------------------------------------------------

volatile std::sig_atomic_t g_shutdown = 0;
void on_shutdown_signal(int) { g_shutdown = 1; }

// Foreground server loop shared by `coordinator` and `serve`: announce the
// bound endpoint on stdout (scripts wait for this line), then park until
// SIGINT/SIGTERM and stop cleanly.
int run_until_signal(const char* role, const net::Endpoint& bound,
                     const std::function<void()>& stop) {
  std::signal(SIGINT, on_shutdown_signal);
  std::signal(SIGTERM, on_shutdown_signal);
  std::printf("listening %s\n", bound.c_str());
  std::fflush(stdout);
  while (g_shutdown == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::fprintf(stderr, "approxcli: %s shutting down\n", role);
  stop();
  return kExitOk;
}

int cmd_coordinator(const net::Endpoint& listen, const fs::path& meta) {
  net::TcpTransport transport;
  serving::Coordinator coordinator(transport, listen, posix_io(), meta);
  const net::NetStatus st = coordinator.start();
  if (!st.ok()) {
    std::fprintf(stderr, "approxcli: cannot serve on %s: %s\n", listen.c_str(),
                 st.message.c_str());
    return kExitNetwork;
  }
  return run_until_signal("coordinator", coordinator.endpoint(),
                          [&] { coordinator.stop(); });
}

int cmd_serve(const net::Endpoint& listen, const fs::path& data,
              const net::Endpoint& coordinator, serving::DaemonOptions opts) {
  fs::create_directories(data);
  net::TcpTransport transport;
  serving::StorageDaemon daemon(transport, listen, posix_io(), data,
                                std::move(opts));
  net::NetStatus st = daemon.start();
  if (!st.ok()) {
    std::fprintf(stderr, "approxcli: cannot serve on %s: %s\n", listen.c_str(),
                 st.message.c_str());
    return kExitNetwork;
  }
  if (!coordinator.empty()) {
    st = daemon.join(coordinator);
    if (!st.ok()) {
      std::fprintf(stderr, "approxcli: cannot join coordinator %s: %s\n",
                   coordinator.c_str(), st.message.c_str());
      daemon.stop();
      return kExitNetwork;
    }
  }
  return run_until_signal("daemon", daemon.endpoint(), [&] { daemon.stop(); });
}

// Remote client options stripped out of a command's argument list.
struct RemoteOptions {
  net::Endpoint coordinator;
  net::RpcOptions rpc;
};

// Strip --coordinator/--timeout-ms/--hedge-ms from args; true when
// --coordinator was present, i.e. the command runs in cluster mode.
bool take_remote_options(std::vector<std::string>& args, RemoteOptions& out) {
  bool remote = false;
  for (auto it = args.begin(); it != args.end();) {
    const std::string flag = *it;
    auto value = [&]() -> std::string {
      it = args.erase(it);
      if (it == args.end()) usage((flag + " needs a value").c_str());
      std::string v = *it;
      it = args.erase(it);
      return v;
    };
    if (flag == "--coordinator") {
      out.coordinator = value();
      remote = true;
    } else if (flag == "--timeout-ms") {
      out.rpc.timeout =
          std::chrono::milliseconds(parse_u64_opt(flag, value()));
    } else if (flag == "--hedge-ms") {
      out.rpc.hedge_delay =
          std::chrono::milliseconds(parse_u64_opt(flag, value()));
    } else {
      ++it;
    }
  }
  return remote;
}

serving::ClientOptions client_options(const RemoteOptions& remote,
                                      const Options& codec = {}) {
  serving::ClientOptions opts;
  opts.rpc = remote.rpc;
  opts.store = store_options();
  opts.params = codec.params;
  opts.block = codec.block;
  opts.split = codec.split;
  return opts;
}

// Run a remote command body, converting app-level failures that were in
// fact caused by transport failures into exit code 5: a StoreError raised
// because daemons were unreachable is a network problem, not a bad volume.
int remote_guard(serving::ServingClient& client,
                 const std::function<int()>& body) {
  try {
    return body();
  } catch (const store::StoreError& e) {
    if (client.transport_failures() > 0) {
      std::fprintf(stderr, "approxcli: %s (%llu transport failure(s))\n",
                   e.what(),
                   static_cast<unsigned long long>(client.transport_failures()));
      return kExitNetwork;
    }
    throw;
  }
}

int cmd_put(const RemoteOptions& remote, const Options& codec,
            const fs::path& input, const std::string& volume) try {
  net::TcpTransport transport;
  serving::ServingClient client(transport, remote.coordinator,
                                client_options(remote, codec));
  return remote_guard(client, [&] {
    const store::Manifest m = client.put(input, volume);
    std::printf("put %llu B -> %s across %d node files (%llu chunk(s))\n",
                static_cast<unsigned long long>(m.file_size), volume.c_str(),
                codec.params.total_nodes(),
                static_cast<unsigned long long>(m.chunks));
    return kExitOk;
  });
} catch (const InvalidArgument& e) {
  usage(e.reason());
}

int cmd_get(const RemoteOptions& remote, const std::string& volume,
            const fs::path& output) {
  net::TcpTransport transport;
  serving::ServingClient client(transport, remote.coordinator,
                                client_options(remote));
  return remote_guard(client, [&] {
    const store::VolumeStore::DecodeResult result =
        client.get(volume, output);
    if (!result.degraded_nodes.empty()) {
      std::printf("get: degraded read - reconstructed node(s):");
      for (const int n : result.degraded_nodes) std::printf(" %d", n);
      std::printf("\n");
    }
    std::printf("got %llu B -> %s (%s)\n",
                static_cast<unsigned long long>(result.bytes),
                output.string().c_str(),
                result.crc_ok ? "checksum OK"
                              : "CHECKSUM MISMATCH: some data was lost");
    if (!result.crc_ok || result.unrecoverable_bytes > 0) {
      std::printf("get: %llu B unrecoverable; important data %s\n",
                  static_cast<unsigned long long>(result.unrecoverable_bytes),
                  result.important_ok ? "intact" : "LOST");
      return kExitDataLoss;
    }
    return kExitOk;
  });
}

int cmd_scrub_remote(const RemoteOptions& remote, const std::string& volume) {
  net::TcpTransport transport;
  serving::ServingClient client(transport, remote.coordinator,
                                client_options(remote));
  return remote_guard(client, [&] {
    const serving::RemoteScrubResult result = client.scrub(volume);
    if (!result.clean()) {
      std::printf("scrub: %zu damaged node(s) (%llu corrupt block(s)) - run "
                  "`approxcli repair --coordinator ...`\n",
                  result.damaged_nodes.size(),
                  static_cast<unsigned long long>(result.corrupt_blocks));
      return kExitCorruption;
    }
    std::printf("scrub: clean (%llu B scanned on the daemons)\n",
                static_cast<unsigned long long>(result.bytes_scanned));
    return kExitOk;
  });
}

int cmd_repair_remote(const RemoteOptions& remote, const std::string& volume) {
  net::TcpTransport transport;
  serving::ServingClient client(transport, remote.coordinator,
                                client_options(remote));
  return remote_guard(client, [&] {
    const store::RepairOutcome outcome = client.repair(volume);
    if (!outcome.attempted) {
      std::printf("repair: nothing to do\n");
      return kExitOk;
    }
    std::printf("repair: rebuilt %zu node file(s); important data %s\n",
                outcome.rebuilt_nodes.size(),
                outcome.all_important_recovered ? "recovered" : "LOST");
    return outcome.all_important_recovered ? kExitOk : kExitDataLoss;
  });
}

int cmd_stats_remote(const RemoteOptions& remote, const std::string& volume,
                     bool json) {
  net::TcpTransport transport;
  serving::ServingClient client(transport, remote.coordinator,
                                client_options(remote));
  return remote_guard(client, [&] {
    // Exercise the cluster so the registry reflects it: daemon-side scrub
    // fans one RPC per node, filling the net.rpc.* counters and the
    // per-verb latency histograms.
    const serving::RemoteScrubResult result = client.scrub(volume);
    if (json) {
      std::printf("%s\n", obs::registry().to_json().c_str());
    } else {
      std::printf("%s: %llu B scanned, %zu damaged node(s)\n%s",
                  volume.c_str(),
                  static_cast<unsigned long long>(result.bytes_scanned),
                  result.damaged_nodes.size(),
                  obs::registry().to_text().c_str());
      print_slow_ops(stdout);
    }
    return kExitOk;
  });
}

// --trace epilogue: indented span timeline plus the metric registry.
void dump_trace() {
  const auto events = obs::SpanLog::snapshot();
  std::fprintf(stderr, "--- trace: %zu span(s) ---\n", events.size());
  for (const auto& ev : events) {
    std::fprintf(stderr, "[t%llu] %*s%s  start=%.1fus dur=%.1fus\n",
                 static_cast<unsigned long long>(ev.thread), 2 * ev.depth, "",
                 ev.name.c_str(), ev.start_us, ev.dur_us);
  }
  if (obs::SpanLog::dropped() > 0) {
    std::fprintf(stderr, "(%llu span(s) dropped)\n",
                 static_cast<unsigned long long>(obs::SpanLog::dropped()));
  }
  print_slow_ops(stderr);
  std::fprintf(stderr, "--- metrics ---\n%s", obs::registry().to_text().c_str());
}

// Codec/layout option loop shared by local `encode` and remote `put`.
// Unknown --flags are usage errors; everything else is positional.
std::vector<std::string> parse_codec_options(
    const std::vector<std::string>& args, Options& opts) {
  std::vector<std::string> positional;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&]() -> std::string {
      if (++i >= args.size()) usage("missing option value");
      return args[i];
    };
    if (a == "--family") {
      opts.params.family = parse_family(next());
    } else if (a == "--k") {
      opts.params.k = parse_int_opt(a, next());
    } else if (a == "--r") {
      opts.params.r = parse_int_opt(a, next());
    } else if (a == "--g") {
      opts.params.g = parse_int_opt(a, next());
    } else if (a == "--h") {
      opts.params.h = parse_int_opt(a, next());
    } else if (a == "--structure") {
      const std::string s = next();
      if (s != "even" && s != "uneven") usage("structure must be even|uneven");
      opts.params.structure =
          s == "even" ? core::Structure::Even : core::Structure::Uneven;
    } else if (a == "--block") {
      opts.block = parse_u64_opt(a, next());
    } else if (a == "--split") {
      opts.split = parse_u64_opt(a, next());
    } else if (a.rfind("--", 0) == 0) {
      usage(("unknown option " + a).c_str());
    } else {
      positional.push_back(a);
    }
  }
  try {
    opts.params.validate(opts.block);
  } catch (const InvalidArgument& e) {
    usage(e.reason());
  }
  return positional;
}

int dispatch(const std::string& cmd, std::vector<std::string>& args) {
    // Server roles parse their own flags (notably: `serve` takes
    // --coordinator as "who to join", not "run remotely").
    if (cmd == "coordinator" || cmd == "serve") {
      std::string listen;
      std::string meta;
      std::string data;
      std::string coordinator;
      serving::DaemonOptions daemon_opts;
      for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string& a = args[i];
        auto next = [&]() -> std::string {
          if (++i >= args.size()) usage("missing option value");
          return args[i];
        };
        if (a == "--listen") {
          listen = next();
        } else if (a == "--meta" && cmd == "coordinator") {
          meta = next();
        } else if (a == "--data" && cmd == "serve") {
          data = next();
        } else if (a == "--coordinator" && cmd == "serve") {
          coordinator = next();
        } else if (a == "--name" && cmd == "serve") {
          daemon_opts.name = next();
        } else if (a == "--rack" && cmd == "serve") {
          daemon_opts.rack =
              static_cast<std::uint32_t>(parse_int_opt(a, next()));
        } else {
          usage(("unknown option " + a).c_str());
        }
      }
      if (listen.empty()) usage("--listen HOST:PORT is required");
      if (cmd == "coordinator") {
        if (meta.empty()) usage("coordinator needs --meta DIR");
        return cmd_coordinator(listen, meta);
      }
      if (data.empty()) usage("serve needs --data DIR");
      return cmd_serve(listen, data, coordinator, std::move(daemon_opts));
    }

    RemoteOptions remote;
    if (take_remote_options(args, remote)) {
      if (cmd == "put") {
        Options opts;
        const std::vector<std::string> positional =
            parse_codec_options(args, opts);
        if (positional.size() != 2) usage("put needs <input> <volume>");
        return cmd_put(remote, opts, positional[0], positional[1]);
      }
      if (cmd == "get" && args.size() == 2) {
        return cmd_get(remote, args[0], args[1]);
      }
      if (cmd == "scrub" && args.size() == 1) {
        return cmd_scrub_remote(remote, args[0]);
      }
      if (cmd == "repair" && args.size() == 1) {
        return cmd_repair_remote(remote, args[0]);
      }
      if (cmd == "stats") {
        bool json = false;
        std::vector<std::string> rest;
        for (const auto& a : args) {
          if (a == "--json") {
            json = true;
          } else {
            rest.push_back(a);
          }
        }
        if (rest.size() == 1) return cmd_stats_remote(remote, rest[0], json);
      }
      usage("unknown cluster command or wrong argument count");
    }

    if (cmd == "encode") {
      Options opts;
      const std::vector<std::string> positional =
          parse_codec_options(args, opts);
      if (positional.size() != 2) usage("encode needs <input> <volume-dir>");
      return cmd_encode(opts, positional[0], positional[1]);
    }
    if (cmd == "info" && args.size() == 1) return cmd_info(args[0]);
    if (cmd == "scrub" && args.size() == 1) return cmd_scrub(args[0]);
    if (cmd == "repair" && args.size() == 1) return cmd_repair(args[0]);
    if (cmd == "decode" && args.size() == 2) return cmd_decode(args[0], args[1]);
    if (cmd == "stats") {
      bool json = false;
      std::vector<std::string> rest;
      for (const auto& a : args) {
        if (a == "--json") {
          json = true;
        } else {
          rest.push_back(a);
        }
      }
      if (rest.size() == 1) return cmd_stats(rest[0], json);
    }
    usage("unknown command or wrong argument count");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::vector<std::string> all(argv + 1, argv + argc);
    bool trace = false;
    std::string trace_out;
    for (auto it = all.begin(); it != all.end();) {
      if (*it == "--trace") {
        trace = true;
        it = all.erase(it);
      } else if (*it == "--trace-out") {
        it = all.erase(it);
        if (it == all.end()) usage("--trace-out needs a file path");
        trace_out = *it;
        it = all.erase(it);
      } else if (*it == "--pipeline-depth") {
        it = all.erase(it);
        if (it == all.end()) usage("--pipeline-depth needs a number");
        g_pipeline_depth = parse_int_opt("--pipeline-depth", *it);
        it = all.erase(it);
      } else if (*it == "--cache-mb") {
        it = all.erase(it);
        if (it == all.end()) usage("--cache-mb needs a number");
        g_cache_mb = parse_int_opt("--cache-mb", *it);
        it = all.erase(it);
      } else {
        ++it;
      }
    }
    if (all.empty()) usage();
    const std::string cmd = all.front();
    std::vector<std::string> args(all.begin() + 1, all.end());
    if (trace || !trace_out.empty()) obs::SpanLog::set_enabled(true);
    int rc;
    {
      // Root span for the whole command: every span the command records
      // (store stages, pool work, repair enqueues) stitches under one
      // trace.  Scoped so the root is closed - and buffered - before the
      // trace is dumped or exported.
      const std::string root_name = "cli." + cmd;
      obs::ObsSpan root_span(root_name);
      rc = dispatch(cmd, args);
    }
    if (trace) dump_trace();
    if (!trace_out.empty()) {
      const std::string json = obs::SpanLog::to_chrome_json();
      std::FILE* f = std::fopen(trace_out.c_str(), "w");
      bool ok = f != nullptr;
      if (f != nullptr) {
        ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
        ok = std::fclose(f) == 0 && ok;
      }
      if (!ok) {
        std::fprintf(stderr, "approxcli: cannot write trace to %s\n",
                     trace_out.c_str());
        return kExitIoError;
      }
    }
    return rc;
  } catch (const store::StoreError& e) {
    // The device failed us: retries exhausted, ENOSPC, unreadable files.
    std::fprintf(stderr, "approxcli: %s\n", e.what());
    return kExitIoError;
  } catch (const net::NetError& e) {
    // The network failed us: coordinator/daemon unreachable, RPC timeouts.
    std::fprintf(stderr, "approxcli: %s\n", e.what());
    return kExitNetwork;
  } catch (const Error& e) {
    // Structural damage detected by our own integrity checks (bad
    // manifest/superblock, format violations): corruption, not I/O.
    std::fprintf(stderr, "approxcli: %s\n", e.what());
    return kExitCorruption;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "approxcli: %s\n", e.what());
    return kExitIoError;
  }
}
