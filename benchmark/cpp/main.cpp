// approx_bench: the end-to-end benchmark.
//
//   approx_bench (--all | --workload NAME ...) [--seed N] [--seconds S]
//                [--trace] [--smoke] [--out DIR]
//
// Every workload runs in its own forked child, so memory, the obs
// registry, the thread pool and the caches are per workload, and the
// child's peak RSS comes from wait4().  The seed is the only input: the
// corpus bytes, request schedules and the injected node loss all derive
// from it.  Results are printed as "<workload> <metric> <value> <unit>"
// lines and written to <out>/results.json with a host descriptor.
//
// --trace runs each workload twice on a shorter plan, untraced and then
// traced, and reports the per-layer metrics of the traced child plus
// trace.overhead (traced / untraced read_p50_ms).  --smoke shrinks every
// size so the whole set checks its plumbing in seconds.
//
// Exit status: 0 when every workload ran with exact bytes, 1 when one
// failed or served wrong bytes, 2 on bad usage or a pinned environment
// variable.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"
#include "kernels/dispatch.h"
#include "obs/json.h"
#include "workloads.h"

namespace approx::bench {
namespace {

// Knobs that would silently change what is measured.  The benchmark sets
// every one of them itself.
constexpr const char* kPinnedEnv[] = {"APPROX_THREADS", "APPROX_KERNEL",
                                      "APPROX_SCHEDULE", "APPROX_CACHE_MB",
                                      "APPROX_PIPELINE_DEPTH"};

struct ChildResult {
  int exit_code = -1;
  double peak_rss_mib = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, std::string> info;
  std::uint64_t attempted = 0, failed = 0;
};

int child_main(const Config& cfg, int fd) {
  try {
    Ctx ctx(cfg);
    run_workload(ctx);
    if (ctx.report.mismatches() > 0) {
      std::fprintf(stderr, "approx_bench: %s served wrong bytes; no metrics\n",
                   cfg.workload.c_str());
      return 3;
    }
    const std::string text = ctx.report.serialize();
    std::size_t off = 0;
    while (off < text.size()) {
      const ssize_t n = ::write(fd, text.data() + off, text.size() - off);
      if (n <= 0) return 4;
      off += static_cast<std::size_t>(n);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "approx_bench: %s aborted: %s\n", cfg.workload.c_str(),
                 e.what());
    return 4;
  }
}

ChildResult run_child(const Config& cfg) {
  ChildResult r;
  int fds[2];
  if (::pipe(fds) != 0) return r;
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return r;
  }
  if (pid == 0) {
    ::close(fds[0]);
    const int code = child_main(cfg, fds[1]);
    std::fflush(nullptr);
    ::_exit(code);
  }
  ::close(fds[1]);
  std::string text;
  char buf[4096];
  for (ssize_t n; (n = ::read(fds[0], buf, sizeof buf)) > 0;) {
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  struct rusage ru {};
  while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  r.peak_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  if (r.exit_code != 0) return r;

  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    std::istringstream ls(line);
    std::string tag, name;
    ls >> tag >> name;
    if (tag == "M") {
      double v = 0;
      std::string unit;
      ls >> v >> unit;
      r.metrics[name] = {v, unit};
    } else if (tag == "C") {
      std::uint64_t v = 0;
      ls >> v;
      (name == "attempted" ? r.attempted : r.failed) = v;
    } else if (tag == "I") {
      std::string v;
      std::getline(ls >> std::ws, v);
      r.info[name] = v;
    }
  }
  return r;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void write_host(obs::JsonWriter& w) {
  w.key("host");
  w.begin_object();
  w.key("nproc");
  w.value(static_cast<std::uint64_t>(::sysconf(_SC_NPROCESSORS_ONLN)));
  w.key("cpu");
  w.value(cpu_model());
  w.key("kernel_backend");
  w.value(kernels::backend_name(kernels::active_backend()));
  w.key("build_type");
  w.value(APPROX_BENCH_BUILD_TYPE);
  w.key("commit");
  w.value(APPROX_BENCH_COMMIT);
  w.key("compiler");
  w.value(__VERSION__);
  w.key("pool_threads");
  w.value(static_cast<std::uint64_t>(kPoolThreads));
  w.end_object();
}

int usage() {
  std::fprintf(stderr,
               "usage: approx_bench (--all | --workload NAME ...) [--seed N] "
               "[--seconds S] [--trace] [--smoke] [--out DIR]\n");
  return 2;
}

int run(int argc, char** argv) {
  std::vector<std::string> workloads;
  Config base;
  bool trace = false;
  fs::path out;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    try {
      if (a == "--all") {
        workloads = workload_names();
      } else if (a == "--workload" && has_value) {
        workloads.push_back(argv[++i]);
      } else if (a == "--seed" && has_value) {
        base.seed = std::stoull(argv[++i]);
      } else if (a == "--seconds" && has_value) {
        base.seconds = std::stod(argv[++i]);
      } else if (a == "--out" && has_value) {
        out = argv[++i];
      } else if (a == "--trace") {
        trace = true;
      } else if (a == "--smoke") {
        base.smoke = true;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (workloads.empty() || !(base.seconds > 0) || base.seconds > 120) return usage();
  for (const std::string& w : workloads) {
    bool known = false;
    for (const std::string& n : workload_names()) known = known || n == w;
    if (!known) {
      std::fprintf(stderr, "approx_bench: unknown workload %s\n", w.c_str());
      return 2;
    }
  }
  for (const char* var : kPinnedEnv) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr,
                   "approx_bench: %s is set; unset it, the benchmark pins "
                   "every knob itself\n",
                   var);
      return 2;
    }
  }
  if (out.empty()) {
    out = fs::read_symlink("/proc/self/exe").parent_path() / "results";
  }
  fs::create_directories(out);
  base.out = out;

  obs::JsonWriter w;
  w.begin_object();
  w.key("benchmark");
  w.value("approx_bench");
  w.key("mode");
  w.value(trace ? "trace" : "e2e");
  w.key("seed");
  w.value(base.seed);
  w.key("seconds");
  w.value(base.seconds);
  w.key("smoke");
  w.value(base.smoke);
  w.key("started_at");  // wall-clock seconds; compare.py pairs runs by it
  w.value(std::chrono::duration<double>(
              std::chrono::system_clock::now().time_since_epoch())
              .count());
  write_host(w);
  w.key("workloads");
  w.begin_object();

  bool all_ok = true;
  for (const std::string& name : workloads) {
    Config cfg = base;
    cfg.workload = name;
    cfg.work = out / ("work-" + name);
    cfg.short_plan = trace;
    fs::remove_all(cfg.work);
    fs::create_directories(cfg.work);

    ChildResult r;
    if (trace) {
      ChildResult plain = run_child(cfg);
      cfg.traced = true;
      r = run_child(cfg);
      const double overhead =
          r.exit_code == 0 && plain.exit_code == 0
              ? r.metrics["read_p50_ms"].first / plain.metrics["read_p50_ms"].first
              : NAN;
      r.metrics["trace.overhead"] = {overhead, "ratio"};
      if (plain.exit_code != 0) r.exit_code = plain.exit_code;
    } else {
      r = run_child(cfg);
      r.metrics["peak_rss_mib"] = {r.peak_rss_mib, "MiB"};
    }
    fs::remove_all(cfg.work);

    const bool ok = r.exit_code == 0;
    all_ok = all_ok && ok && r.failed == 0;
    const double error_rate =
        r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : NAN;
    if (ok) {
      r.metrics["error_rate"] = {error_rate, "ratio"};
      for (const auto& [m, vu] : r.metrics) {
        std::printf("%s %s %.6g %s\n", name.c_str(), m.c_str(), vu.first,
                    vu.second.c_str());
      }
      for (const auto& [k, v] : r.info) {
        std::printf("%s %s %s\n", name.c_str(), k.c_str(), v.c_str());
      }
    } else {
      std::printf("%s FAILED exit %d\n", name.c_str(), r.exit_code);
    }
    std::fflush(stdout);

    w.key(name);
    w.begin_object();
    w.key("correct");
    w.value(r.exit_code != 3);
    w.key("exit_code");
    w.value(r.exit_code);
    w.key("attempted");
    w.value(r.attempted);
    w.key("failed");
    w.value(r.failed);
    w.key("info");
    w.begin_object();
    for (const auto& [k, v] : r.info) {
      w.key(k);
      w.value(v);
    }
    w.end_object();
    w.key("metrics");
    w.begin_object();
    if (ok) {
      for (const auto& [m, vu] : r.metrics) {
        w.key(m);
        w.begin_object();
        w.key("value");
        w.value(vu.first);
        w.key("unit");
        w.value(vu.second);
        w.end_object();
      }
    }
    w.end_object();
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::ofstream(out / "results.json", std::ios::trunc) << w.take() << '\n';
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace approx::bench

int main(int argc, char** argv) { return approx::bench::run(argc, argv); }
