// google-benchmark microbenchmarks of the coding kernels: XOR block ops,
// GF(2^8) region multiply/multiply-accumulate, full-code encode throughput
// and the repair-schedule solver.  These are the primitives every
// higher-level number in Fig. 9-13 decomposes into.
//
// The kernel primitives are registered once per backend the host exposes
// (scalar / ssse3 / avx2 / avx512 / gfni), so one run compares every ISA
// path; --backend <name> restricts the sweep to one backend (--backend all
// is the default).  A Stopwatch-based summary table reports per-backend
// GiB/s, TSC-based bytes/cycle and the speedup over scalar; a second table
// reports compiled encode GiB/s and each encode program's XOR passes before
// and after the schedule compiler (codes/schedule_opt.h), and a third the
// CRC-32 rungs (common/crc32.h) the host can run.
// With --json the tables (plus the obs registry, including the
// kernels.bytes.<backend> counters) land in BENCH_kernels.json.
// --summary-only skips the google-benchmark pass and prints just the tables.
#include <benchmark/benchmark.h>

#include "bench_util.h"

#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "common/buffer.h"
#include "common/crc32.h"
#include "common/prng.h"
#include "codes/array_codes.h"
#include "codes/crs_code.h"
#include "codes/rs_code.h"
#include "codes/schedule_opt.h"
#include "gf/gf256.h"
#include "kernels/dispatch.h"

namespace {

using namespace approx;

// Backends selected via --backend (default: every available one).
std::vector<kernels::Backend> g_backends;

// ---------------------------------------------------------------------------
// Per-backend kernel primitives (registered per backend in main()).
// ---------------------------------------------------------------------------

void BM_XorAcc(benchmark::State& state, kernels::Backend backend) {
  kernels::BackendGuard guard(backend);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  AlignedBuffer dst(n), src(n);
  Rng rng(1);
  fill_random(src.data(), n, rng);
  for (auto _ : state) {
    kernels::xor_acc(dst.data(), src.data(), n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_XorGather(benchmark::State& state, kernels::Backend backend) {
  kernels::BackendGuard guard(backend);
  const std::size_t n = 1 << 16;
  const int sources = static_cast<int>(state.range(0));
  std::vector<AlignedBuffer> bufs;
  Rng rng(2);
  std::vector<const std::uint8_t*> ptrs;
  for (int i = 0; i < sources; ++i) {
    bufs.emplace_back(n);
    fill_random(bufs.back().data(), n, rng);
    ptrs.push_back(bufs.back().data());
  }
  AlignedBuffer dst(n);
  for (auto _ : state) {
    kernels::xor_gather(dst.data(), ptrs, n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * static_cast<std::size_t>(sources)));
}

void BM_GfMulRegion(benchmark::State& state, kernels::Backend backend) {
  kernels::BackendGuard guard(backend);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  AlignedBuffer dst(n), src(n);
  Rng rng(3);
  fill_random(src.data(), n, rng);
  std::uint8_t c = 2;
  for (auto _ : state) {
    gf::mul_region(dst.data(), src.data(), n, c);
    c = static_cast<std::uint8_t>(c * 3 + 1);
    if (c < 2) c = 2;
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_GfMulAcc(benchmark::State& state, kernels::Backend backend) {
  kernels::BackendGuard guard(backend);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  AlignedBuffer dst(n), src(n);
  Rng rng(3);
  fill_random(src.data(), n, rng);
  std::uint8_t c = 2;
  for (auto _ : state) {
    gf::mul_acc_region(dst.data(), src.data(), n, c);
    c = static_cast<std::uint8_t>(c * 3 + 1);
    if (c < 2) c = 2;
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void register_kernel_benchmarks() {
  using Fn = void (*)(benchmark::State&, kernels::Backend);
  struct Entry {
    const char* name;
    Fn fn;
    std::vector<std::int64_t> args;
  };
  const Entry entries[] = {
      {"BM_XorAcc", BM_XorAcc, {4096, 1 << 16, 1 << 20}},
      {"BM_XorGather", BM_XorGather, {3, 8, 17}},
      {"BM_GfMulRegion", BM_GfMulRegion, {4096, 1 << 16, 1 << 20}},
      {"BM_GfMulAcc", BM_GfMulAcc, {4096, 1 << 16, 1 << 20}},
  };
  for (const kernels::Backend b : g_backends) {
    for (const Entry& e : entries) {
      const std::string name = std::string(e.name) + "<" +
                               std::string(kernels::backend_name(b)) + ">";
      auto* bench = benchmark::RegisterBenchmark(
          name.c_str(), [fn = e.fn, b](benchmark::State& st) { fn(st, b); });
      for (const std::int64_t a : e.args) bench->Arg(a);
    }
  }
}

// ---------------------------------------------------------------------------
// Whole-code benchmarks (run under the default backend, as production does).
// ---------------------------------------------------------------------------

void BM_EncodeRs(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  auto code = codes::make_rs(k, 3);
  const std::size_t block = 1 << 18;
  StripeBuffers buf(code->total_nodes(), block);
  Rng rng(4);
  for (int d = 0; d < k; ++d) {
    auto s = buf.node(d);
    fill_random(s.data(), s.size(), rng);
  }
  for (auto _ : state) {
    auto spans = buf.spans();
    code->encode_blocks(spans, block);
    benchmark::DoNotOptimize(buf.node(k).data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block * static_cast<std::size_t>(k)));
}
BENCHMARK(BM_EncodeRs)->Arg(5)->Arg(11)->Arg(17);

void BM_EncodeStar(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  auto code = codes::make_star(p, 3);
  const std::size_t block = 1 << 14;
  StripeBuffers buf(code->total_nodes(),
                    block * static_cast<std::size_t>(code->rows()));
  Rng rng(5);
  for (int d = 0; d < p; ++d) {
    auto s = buf.node(d);
    fill_random(s.data(), s.size(), rng);
  }
  for (auto _ : state) {
    auto spans = buf.spans();
    code->encode_blocks(spans, block);
    benchmark::DoNotOptimize(buf.node(p).data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(block * static_cast<std::size_t>(code->rows()) *
                                static_cast<std::size_t>(p)));
}
BENCHMARK(BM_EncodeStar)->Arg(5)->Arg(11)->Arg(17);

void BM_SolveTripleErasure(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  auto code = codes::make_star(p, 3);
  code->set_plan_cache_enabled(false);
  const std::vector<int> erased = {0, 1, 2};
  for (auto _ : state) {
    auto plan = code->plan_repair(erased);
    benchmark::DoNotOptimize(plan);
  }
  code->set_plan_cache_enabled(true);
}
BENCHMARK(BM_SolveTripleErasure)->Arg(5)->Arg(11)->Arg(17);

// ---------------------------------------------------------------------------
// Per-backend throughput summary (lands in the --json tables).
// ---------------------------------------------------------------------------

// Median GiB/s of `op`, which moves `bytes_per_op` bytes per call.
double gib_per_sec(const std::function<void()>& op, std::size_t bytes_per_op) {
  op();  // warm-up: tables, page faults, dispatch resolution
  constexpr int kInner = 16;
  const double t = bench::time_op(
      [&] {
        for (int i = 0; i < kInner; ++i) op();
      },
      5);
  if (t <= 0.0) return -1;
  return static_cast<double>(bytes_per_op) * kInner / t / bench::kGiB;
}

// Median bytes/cycle of `op` via the TSC.  Cycle-normalized numbers factor
// frequency scaling out of cross-machine comparisons (a 64-byte-lane kernel
// should approach its port limit regardless of clocks).  Negative ("/" in
// tables) on non-x86 hosts.
double bytes_per_cycle(const std::function<void()>& op,
                       std::size_t bytes_per_op) {
#if defined(__x86_64__) || defined(__i386__)
  op();  // warm-up
  constexpr int kInner = 16;
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    const unsigned long long c0 = __rdtsc();
    for (int i = 0; i < kInner; ++i) op();
    const unsigned long long c1 = __rdtsc();
    if (c1 <= c0) return -1;
    samples.push_back(static_cast<double>(bytes_per_op) * kInner /
                      static_cast<double>(c1 - c0));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
#else
  (void)op;
  (void)bytes_per_op;
  return -1;
#endif
}

// One row per backend: GiB/s and bytes/cycle for each primitive plus the
// gf_mul_region speedup over scalar — the dispatch layer's headline number.
void print_backend_summary() {
  constexpr std::size_t kN = 1 << 20;
  constexpr int kGatherSources = 8;

  AlignedBuffer dst(kN), src(kN);
  std::vector<AlignedBuffer> gather;
  std::vector<const std::uint8_t*> ptrs;
  Rng rng(7);
  fill_random(src.data(), kN, rng);
  for (int i = 0; i < kGatherSources; ++i) {
    gather.emplace_back(kN);
    fill_random(gather.back().data(), kN, rng);
    ptrs.push_back(gather.back().data());
  }

  bench::print_header(
      "kernel throughput by backend (GiB/s + bytes/cycle, 1 MiB regions)");
  bench::print_row({"backend", "gf_mul", "gf_mul_B/c", "gf_mul_acc", "xor_acc",
                    "xor_acc_B/c", "xor_gather8", "gf_mul_vs_scalar"});
  double scalar_mul = -1;
  for (const kernels::Backend b : g_backends) {
    kernels::BackendGuard guard(b);
    const auto mul_op = [&] { gf::mul_region(dst.data(), src.data(), kN, 0x53); };
    const auto xacc_op = [&] { kernels::xor_acc(dst.data(), src.data(), kN); };
    const double mul = gib_per_sec(mul_op, kN);
    const double mul_bc = bytes_per_cycle(mul_op, kN);
    const double mul_acc = gib_per_sec(
        [&] { gf::mul_acc_region(dst.data(), src.data(), kN, 0x53); }, kN);
    const double xacc = gib_per_sec(xacc_op, kN);
    const double xacc_bc = bytes_per_cycle(xacc_op, kN);
    const double gath = gib_per_sec(
        [&] { kernels::xor_gather(dst.data(), ptrs, kN); },
        kN * kGatherSources);
    if (b == kernels::Backend::kScalar) scalar_mul = mul;
    const std::string speedup =
        scalar_mul > 0 ? bench::fmt(mul / scalar_mul, 2) + "x" : "/";
    bench::print_row({std::string(kernels::backend_name(b)), bench::fmt(mul, 2),
                      bench::fmt(mul_bc, 2), bench::fmt(mul_acc, 2),
                      bench::fmt(xacc, 2), bench::fmt(xacc_bc, 2),
                      bench::fmt(gath, 2), speedup});
  }
}

// Compiled encode throughput (codes/schedule_opt.h) on the XOR-heavy code
// families the CSE pass targets, under the default backend, with each
// encode program's XOR passes before -> after compilation.
void print_schedule_summary() {
  struct Entry {
    const char* name;
    std::shared_ptr<const codes::LinearCode> code;
  };
  const Entry entries[] = {
      {"CRS(6,3)", codes::make_cauchy_rs(6, 3)},
      {"STAR(11,3)", codes::make_star(11, 3)},
      {"EVENODD(17)", codes::make_evenodd(17)},
  };
  bench::print_header("schedule execution: compiled encode GiB/s, XOR passes");
  bench::print_row({"code", "encode_gib_s", "naive_xors", "compiled_xors"});
  for (const Entry& e : entries) {
    std::vector<int> parities;
    for (int p = e.code->data_nodes(); p < e.code->total_nodes(); ++p) {
      parities.push_back(p);
    }
    const auto prog =
        codes::compile_schedule(e.code->encode_statements(parities));
    bench::BaseStripe stripe(e.code, std::size_t{1} << 22);
    const double t = bench::time_op([&] { stripe.encode(); }, 5, /*warmup=*/1);
    bench::print_row({e.name, bench::fmt(t > 0 ? stripe.data_gib() / t : -1.0, 2),
                      std::to_string(prog->naive_xors),
                      std::to_string(prog->compiled_xors)});
  }
}

// CRC-32 GiB/s and bytes/cycle per rung the host can run, on 64 KiB
// buffers (one chunk block's payload, what every footer check hashes), with
// the speedup over the portable slice-by-16 rung.
void print_crc32_summary() {
  constexpr std::size_t kN = 64 * 1024;
  AlignedBuffer buf(kN);
  Rng rng(13);
  fill_random(buf.data(), kN, rng);
  const std::span<const std::uint8_t> data(buf.data(), kN);
  using Fn = std::uint32_t (*)(std::span<const std::uint8_t>,
                               std::uint32_t) noexcept;
  std::vector<std::pair<const char*, Fn>> rungs = {
      {"slice16", &detail::crc32_slice16}};
  if (detail::crc32_clmul_supported()) {
    rungs.emplace_back("clmul", &detail::crc32_clmul);
  }
  bench::print_header(
      "crc32 throughput by rung (GiB/s + bytes/cycle, 64 KiB buffers)");
  bench::print_row({"rung", "crc32", "crc32_B/c", "vs_slice16"});
  double portable = -1;
  volatile std::uint32_t sink = 0;
  for (const auto& [name, fn] : rungs) {
    const auto op = [&, fn = fn] { sink = sink ^ fn(data, 0); };
    const double gib = gib_per_sec(op, kN);
    if (portable < 0) portable = gib;
    bench::print_row({name, bench::fmt(gib, 2),
                      bench::fmt(bytes_per_cycle(op, kN), 2),
                      portable > 0 ? bench::fmt(gib / portable, 2) + "x"
                                   : "/"});
  }
}

}  // namespace

// Expanded BENCHMARK_MAIN(): strips the harness's own flags (--json[=path],
// --summary-only, --backend <name|all>) before benchmark::Initialize (which
// rejects unknown flags), prints the per-backend summary tables, and in
// --json mode dumps tables + the obs registry (kernels.bytes.<backend>,
// schedule counters, solver spans, ...) accumulated across the run.
int main(int argc, char** argv) {
  approx::bench::bench_init(argc, argv, "kernels");
  bool summary_only = false;
  std::string backend_arg = "all";
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--json" || a.rfind("--json=", 0) == 0) continue;
    if (a == "--summary-only") {
      summary_only = true;
      continue;
    }
    if (a == "--backend" && i + 1 < argc) {
      backend_arg = argv[++i];
      continue;
    }
    if (a.rfind("--backend=", 0) == 0) {
      backend_arg = std::string(a.substr(10));
      continue;
    }
    argv[kept++] = argv[i];
  }
  argc = kept;
  argv[argc] = nullptr;

  g_backends = kernels::available_backends();
  if (backend_arg != "all") {
    bool found = false;
    for (const kernels::Backend b : g_backends) {
      if (backend_arg == kernels::backend_name(b)) {
        g_backends = {b};
        found = true;
        break;
      }
    }
    if (!found) {
      std::fprintf(stderr,
                   "bench_kernels: --backend %s is not available on this "
                   "host; sweeping all available backends\n",
                   backend_arg.c_str());
    }
  }

  // Record which backend APPROX_KERNEL/CPUID dispatch actually picked, and
  // which CRC-32 rung CPUID selected, so the CI perf smoke can compare each
  // dispatched row against its portable one.
  approx::bench::bench_extra_json(
      "dispatch",
      std::string("{\"active_backend\":\"") +
          std::string(kernels::backend_name(kernels::active_backend())) +
          "\",\"crc32_rung\":\"" + detail::crc32_rung_name() + "\"}");

  print_backend_summary();
  print_schedule_summary();
  print_crc32_summary();
  if (!summary_only) {
    register_kernel_benchmarks();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  approx::bench::bench_finish();
  return 0;
}
