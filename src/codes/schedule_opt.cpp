#include "codes/schedule_opt.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/error.h"
#include "gf/gf256.h"
#include "kernels/dispatch.h"
#include "obs/metrics.h"

namespace approx::codes {

namespace {

// CSE working form of one statement: eligible XOR operands as dense ids
// (kept sorted), everything else (GF coefficients, references to elements
// the program writes) carried through verbatim.
struct WorkStmt {
  XorProgram::Ref dst;
  std::vector<int> xors;
  std::vector<XorProgram::Source> rest;
};

std::size_t xor_passes(std::size_t sources) {
  return sources > 0 ? sources - 1 : 0;
}

// CSE is skipped when the statement list holds more operand pairs than this
// (dense Gaussian repair schedules of large codes): compilation must stay
// cheap enough to run per plan, and the sharing win lives in the sparse
// bit-matrix schedules anyway.  The skipped program still gains blocking.
constexpr std::size_t kCsePairCap = std::size_t{1} << 16;

std::uint64_t pair_key(int a, int b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
         static_cast<std::uint32_t>(b);
}

void dec_pair(std::unordered_map<std::uint64_t, int>& counts, int a, int b) {
  const auto it = counts.find(pair_key(a, b));
  if (it != counts.end() && --it->second == 0) counts.erase(it);
}

}  // namespace

std::shared_ptr<const XorProgram> compile_schedule(
    std::span<const RepairPlan::Target> stmts) {
  static obs::Counter& programs =
      obs::registry().counter("codes.schedule.programs");
  static obs::Counter& temps_total =
      obs::registry().counter("codes.schedule.temps");
  static obs::Counter& naive_xors_total =
      obs::registry().counter("codes.schedule.naive_xors");
  static obs::Counter& compiled_xors_total =
      obs::registry().counter("codes.schedule.compiled_xors");

  auto prog = std::make_shared<XorProgram>();

  // Elements the program writes.  They are ineligible as CSE operands:
  // temporaries all execute before the first original statement, and a
  // written element (a repair target) holds garbage until its own statement
  // runs, so hoisting it would break the schedule's dependency order.
  std::set<std::pair<int, int>> written;
  for (const auto& t : stmts) written.insert({t.elem.node, t.elem.row});

  // Dense operand ids; temporaries are appended as they are created, so ids
  // stay sorted by creation and pair selection is deterministic.
  std::map<std::pair<int, int>, int> ids;
  std::vector<XorProgram::Ref> refs;
  const auto id_of = [&](const ElemRef& e) {
    const auto [it, inserted] =
        ids.try_emplace({e.node, e.row}, static_cast<int>(refs.size()));
    if (inserted) refs.push_back({e.node, e.row});
    return it->second;
  };

  std::vector<WorkStmt> work;
  work.reserve(stmts.size());
  for (const auto& t : stmts) {
    WorkStmt w;
    w.dst = {t.elem.node, t.elem.row};
    for (const auto& src : t.sources) {
      if (src.coeff == 1 && !written.contains({src.elem.node, src.elem.row})) {
        w.xors.push_back(id_of(src.elem));
      } else {
        w.rest.push_back({{src.elem.node, src.elem.row}, src.coeff});
      }
    }
    std::sort(w.xors.begin(), w.xors.end());
    prog->naive_xors += xor_passes(t.sources.size());
    work.push_back(std::move(w));
  }

  // Greedy pairwise CSE: hoist the most frequent XOR pair into a temporary
  // until no pair occurs twice.  Ties break toward the lexicographically
  // smallest pair, so the result is deterministic even though the count
  // table is unordered.  Pair counts are maintained incrementally (a full
  // recount per extraction is quadratic on dense schedules); each extraction
  // strictly shrinks the total number of in-statement pairs, so the loop
  // terminates.
  std::vector<XorProgram::Stmt> temp_defs;
  std::size_t pair_slots = 0;
  for (const auto& w : work) {
    pair_slots += w.xors.size() * (w.xors.size() - (w.xors.empty() ? 0 : 1)) / 2;
  }
  if (work.size() >= 2 && pair_slots <= kCsePairCap) {
    std::unordered_map<std::uint64_t, int> counts;
    counts.reserve(pair_slots);
    for (const auto& w : work) {
      for (std::size_t i = 0; i < w.xors.size(); ++i) {
        for (std::size_t j = i + 1; j < w.xors.size(); ++j) {
          ++counts[pair_key(w.xors[i], w.xors[j])];
        }
      }
    }
    for (;;) {
      std::uint64_t best_key = ~std::uint64_t{0};
      int best_count = 0;
      for (const auto& [key, count] : counts) {
        if (count > best_count || (count == best_count && key < best_key)) {
          best_key = key;
          best_count = count;
        }
      }
      if (best_count < 2) break;
      const int pa = static_cast<int>(best_key >> 32);
      const int pb = static_cast<int>(best_key & 0xffffffffu);

      const int tid = static_cast<int>(refs.size());
      refs.push_back({XorProgram::kTempNode, prog->temp_count++});
      temp_defs.push_back({refs[static_cast<std::size_t>(tid)],
                           {{refs[static_cast<std::size_t>(pa)], 1},
                            {refs[static_cast<std::size_t>(pb)], 1}}});
      for (auto& w : work) {
        if (!std::binary_search(w.xors.begin(), w.xors.end(), pa) ||
            !std::binary_search(w.xors.begin(), w.xors.end(), pb)) {
          continue;
        }
        for (const int x : w.xors) {
          if (x == pa || x == pb) continue;
          dec_pair(counts, pa, x);
          dec_pair(counts, pb, x);
          ++counts[pair_key(x, tid)];
        }
        dec_pair(counts, pa, pb);
        w.xors.erase(std::find(w.xors.begin(), w.xors.end(), pb));
        w.xors.erase(std::find(w.xors.begin(), w.xors.end(), pa));
        w.xors.push_back(tid);  // tid is the largest id: stays sorted
      }
    }
  }

  prog->stmts = std::move(temp_defs);
  prog->stmts.reserve(prog->stmts.size() + work.size());
  for (auto& w : work) {
    XorProgram::Stmt s;
    s.dst = w.dst;
    s.sources.reserve(w.xors.size() + w.rest.size());
    for (const int id : w.xors) {
      s.sources.push_back({refs[static_cast<std::size_t>(id)], 1});
    }
    for (auto& r : w.rest) s.sources.push_back(r);
    prog->stmts.push_back(std::move(s));
  }
  for (const auto& s : prog->stmts) {
    prog->compiled_xors += xor_passes(s.sources.size());
  }

  programs.add();
  temps_total.add(static_cast<std::uint64_t>(prog->temp_count));
  naive_xors_total.add(prog->naive_xors);
  compiled_xors_total.add(prog->compiled_xors);
  return prog;
}

const XorProgram& plan_program(const RepairPlan& plan) {
  std::call_once(plan.compile_once,
                 [&] { plan.compiled = compile_schedule(plan.targets); });
  return *plan.compiled;
}

void run_program(const XorProgram& prog, std::span<const NodeView> nodes,
                 std::size_t len, std::span<const std::uint32_t> slice,
                 std::size_t block_bytes) {
  APPROX_REQUIRE(block_bytes > 0, "schedule block size must be positive");
  const std::size_t count = slice.empty() ? prog.stmts.size() : slice.size();
  const auto stmt_at = [&](std::size_t i) -> const XorProgram::Stmt& {
    return prog.stmts[slice.empty() ? i : slice[i]];
  };
  // Temps are defined before use, so the executed statements' temp
  // definitions bound the scratch they need.
  std::size_t temps = 0, max_sources = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const XorProgram::Stmt& stmt = stmt_at(i);
    if (stmt.dst.node == XorProgram::kTempNode) {
      temps = std::max(temps, static_cast<std::size_t>(stmt.dst.row) + 1);
    }
    max_sources = std::max(max_sources, stmt.sources.size());
  }
  const std::size_t block = std::min(block_bytes, std::max<std::size_t>(len, 1));
  // One scratch allocation per run: temp t lives at [t*block, (t+1)*block)
  // and is recomputed per block, so scratch never scales with element length.
  std::vector<std::uint8_t> scratch(temps * block);
  std::vector<const std::uint8_t*> gather;
  gather.reserve(max_sources);
  for (std::size_t off = 0; off < len; off += block) {
    const std::size_t blk = std::min(block, len - off);
    const auto ptr = [&](const XorProgram::Ref& r) -> std::uint8_t* {
      if (r.node == XorProgram::kTempNode) {
        return scratch.data() + static_cast<std::size_t>(r.row) * block;
      }
      return nodes[static_cast<std::size_t>(r.node)].elem(r.row) + off;
    };
    for (std::size_t i = 0; i < count; ++i) {
      const XorProgram::Stmt& stmt = stmt_at(i);
      std::uint8_t* dst = ptr(stmt.dst);
      gather.clear();
      for (const auto& src : stmt.sources) {
        if (src.coeff == 1) gather.push_back(ptr(src.ref));
      }
      // Gather writes dst once per chunk (dst may alias any single source;
      // no sources zeroes it); GF terms then accumulate on top.
      kernels::xor_gather(dst, gather, blk);
      for (const auto& src : stmt.sources) {
        if (src.coeff != 1) {
          gf::mul_acc_region(dst, ptr(src.ref), blk, src.coeff);
        }
      }
    }
  }
}

}  // namespace approx::codes
