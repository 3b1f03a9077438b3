#include "codes/mixed_code.h"

#include <algorithm>
#include <queue>
#include <set>

#include "codes/primes.h"
#include "codes/schedule_opt.h"
#include "codes/solver.h"
#include "common/error.h"
#include "gf/gf256.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace approx::codes {

MixedCode::MixedCode(std::string name, int nodes, int rows,
                     std::vector<Element> table, int fault_tolerance)
    : name_(std::move(name)),
      nodes_(nodes),
      rows_(rows),
      fault_tolerance_(fault_tolerance),
      info_count_(0),
      table_(std::move(table)) {
  APPROX_REQUIRE(nodes_ >= 1 && rows_ >= 1, "bad geometry");
  APPROX_REQUIRE(table_.size() == static_cast<std::size_t>(nodes_) *
                                      static_cast<std::size_t>(rows_),
                 "element table size mismatch");
  for (const auto& e : table_) {
    if (!e.is_parity) ++info_count_;
  }
  APPROX_REQUIRE(info_count_ >= 1, "code stores no information");
  info_home_.assign(static_cast<std::size_t>(info_count_), ElemRef{});
  std::vector<bool> seen(static_cast<std::size_t>(info_count_), false);
  for (int n = 0; n < nodes_; ++n) {
    for (int r = 0; r < rows_; ++r) {
      const auto& e = element(n, r);
      if (e.is_parity) {
        for (const auto& t : e.terms) {
          APPROX_REQUIRE(t.info >= 0 && t.info < info_count_,
                         "parity term references invalid info index");
          APPROX_REQUIRE(t.coeff != 0, "zero coefficient");
        }
      } else {
        APPROX_REQUIRE(e.info >= 0 && e.info < info_count_, "bad info index");
        APPROX_REQUIRE(!seen[static_cast<std::size_t>(e.info)],
                       "duplicate info index");
        seen[static_cast<std::size_t>(e.info)] = true;
        info_home_[static_cast<std::size_t>(e.info)] = {n, r};
      }
    }
  }
  std::vector<RepairPlan::Target> stmts;
  for (int n = 0; n < nodes_; ++n) {
    for (int r = 0; r < rows_; ++r) {
      const auto& e = element(n, r);
      if (!e.is_parity) continue;
      RepairPlan::Target t;
      t.elem = {n, r};
      for (const auto& term : e.terms) {
        t.sources.push_back(
            {info_home_[static_cast<std::size_t>(term.info)], term.coeff});
      }
      stmts.push_back(std::move(t));
    }
  }
  encode_prog_ = compile_schedule(stmts);
}

const MixedCode::Element& MixedCode::element(int node, int row) const {
  return table_[static_cast<std::size_t>(node) * static_cast<std::size_t>(rows_) +
                static_cast<std::size_t>(row)];
}

double MixedCode::storage_overhead() const noexcept {
  return static_cast<double>(nodes_) * static_cast<double>(rows_) /
         static_cast<double>(info_count_);
}

double MixedCode::avg_single_write_cost() const noexcept {
  std::size_t memberships = 0;
  for (const auto& e : table_) {
    if (e.is_parity) memberships += e.terms.size();
  }
  return 1.0 + static_cast<double>(memberships) / static_cast<double>(info_count_);
}

void MixedCode::encode(std::span<const NodeView> nodes) const {
  APPROX_REQUIRE(nodes.size() == static_cast<std::size_t>(nodes_),
                 "encode needs one view per node");
  run_program(*encode_prog_, nodes, nodes[0].len);
}

std::shared_ptr<const RepairPlan> MixedCode::compute_plan(
    const std::vector<int>& erased) const {
  std::vector<bool> is_erased(static_cast<std::size_t>(nodes_), false);
  for (const int e : erased) is_erased[static_cast<std::size_t>(e)] = true;

  auto plan = std::make_shared<RepairPlan>();
  plan->erased = erased;

  std::vector<bool> info_erased(static_cast<std::size_t>(info_count_), false);
  std::vector<bool> info_resolved(static_cast<std::size_t>(info_count_), false);
  std::size_t unresolved = 0;
  for (const int n : erased) {
    for (int r = 0; r < rows_; ++r) {
      const auto& e = element(n, r);
      if (!e.is_parity) {
        info_erased[static_cast<std::size_t>(e.info)] = true;
        ++unresolved;
      }
    }
  }

  // Stage 1: peel through surviving parity elements with one open term.
  if (unresolved > 0) {
    struct PElem {
      int node, row, open;
    };
    std::vector<PElem> pelems;
    std::vector<std::vector<int>> containing(static_cast<std::size_t>(info_count_));
    for (int n = 0; n < nodes_; ++n) {
      if (is_erased[static_cast<std::size_t>(n)]) continue;
      for (int r = 0; r < rows_; ++r) {
        const auto& e = element(n, r);
        if (!e.is_parity) continue;
        PElem pe{n, r, 0};
        for (const auto& t : e.terms) {
          if (info_erased[static_cast<std::size_t>(t.info)]) {
            ++pe.open;
            containing[static_cast<std::size_t>(t.info)].push_back(
                static_cast<int>(pelems.size()));
          }
        }
        pelems.push_back(pe);
      }
    }
    using Cand = std::pair<std::size_t, int>;
    std::priority_queue<Cand, std::vector<Cand>, std::greater<>> ready;
    const auto enqueue = [&](int pid) {
      const PElem& pe = pelems[static_cast<std::size_t>(pid)];
      ready.emplace(element(pe.node, pe.row).terms.size(), pid);
    };
    for (std::size_t i = 0; i < pelems.size(); ++i) {
      if (pelems[i].open == 1) enqueue(static_cast<int>(i));
    }
    while (!ready.empty()) {
      const int pid = ready.top().second;
      ready.pop();
      PElem& pe = pelems[static_cast<std::size_t>(pid)];
      if (pe.open != 1) continue;
      const auto& terms = element(pe.node, pe.row).terms;
      int lone = -1;
      std::uint8_t lone_coeff = 0;
      for (const auto& t : terms) {
        if (info_erased[static_cast<std::size_t>(t.info)] &&
            !info_resolved[static_cast<std::size_t>(t.info)]) {
          lone = t.info;
          lone_coeff = t.coeff;
          break;
        }
      }
      APPROX_CHECK(lone >= 0, "mixed peeling bookkeeping out of sync");
      const std::uint8_t ic = gf::inv(lone_coeff);
      RepairPlan::Target target;
      target.elem = info_home_[static_cast<std::size_t>(lone)];
      target.sources.push_back({ElemRef{pe.node, pe.row}, ic});
      for (const auto& t : terms) {
        if (t.info == lone) continue;
        target.sources.push_back(
            {info_home_[static_cast<std::size_t>(t.info)], gf::mul(t.coeff, ic)});
      }
      plan->targets.push_back(std::move(target));
      info_resolved[static_cast<std::size_t>(lone)] = true;
      --unresolved;
      pe.open = 0;
      for (const int other : containing[static_cast<std::size_t>(lone)]) {
        if (other == pid) continue;
        PElem& ope = pelems[static_cast<std::size_t>(other)];
        if (--ope.open == 1) enqueue(other);
      }
    }
  }

  // Stage 2: Gaussian elimination for the remainder.
  if (unresolved > 0) {
    std::vector<SparseRow> survivors;
    std::vector<ElemRef> survivor_refs;
    bool binary = true;
    for (int n = 0; n < nodes_; ++n) {
      if (is_erased[static_cast<std::size_t>(n)]) continue;
      for (int r = 0; r < rows_; ++r) {
        const auto& e = element(n, r);
        SparseRow row;
        if (e.is_parity) {
          for (const auto& t : e.terms) {
            row.terms.emplace_back(t.info, t.coeff);
            binary &= t.coeff <= 1;
          }
        } else {
          row.terms.emplace_back(e.info, std::uint8_t{1});
        }
        survivor_refs.push_back({n, r});
        survivors.push_back(std::move(row));
      }
    }
    for (int info = 0; info < info_count_; ++info) {
      if (info_resolved[static_cast<std::size_t>(info)]) {
        survivor_refs.push_back(info_home_[static_cast<std::size_t>(info)]);
        SparseRow unit;
        unit.terms.emplace_back(info, std::uint8_t{1});
        survivors.push_back(std::move(unit));
      }
    }
    std::vector<SparseRow> target_rows;
    std::vector<int> target_infos;
    for (int info = 0; info < info_count_; ++info) {
      if (info_erased[static_cast<std::size_t>(info)] &&
          !info_resolved[static_cast<std::size_t>(info)]) {
        target_infos.push_back(info);
        SparseRow unit;
        unit.terms.emplace_back(info, std::uint8_t{1});
        target_rows.push_back(std::move(unit));
      }
    }
    auto combos = solve_combinations(info_count_, survivors, target_rows, binary);
    if (!combos.has_value()) return nullptr;
    for (std::size_t t = 0; t < target_infos.size(); ++t) {
      RepairPlan::Target target;
      target.elem = info_home_[static_cast<std::size_t>(target_infos[t])];
      for (const auto& [survivor, coeff] : (*combos)[t]) {
        target.sources.push_back(
            {survivor_refs[static_cast<std::size_t>(survivor)], coeff});
      }
      plan->targets.push_back(std::move(target));
      info_resolved[static_cast<std::size_t>(target_infos[t])] = true;
    }
  }

  // Stage 3: recompute erased parity elements from information.
  for (const int n : erased) {
    for (int r = 0; r < rows_; ++r) {
      const auto& e = element(n, r);
      if (!e.is_parity) continue;
      RepairPlan::Target target;
      target.elem = {n, r};
      for (const auto& t : e.terms) {
        target.sources.push_back({info_home_[static_cast<std::size_t>(t.info)], t.coeff});
      }
      plan->targets.push_back(std::move(target));
    }
  }

  std::set<int> sources;
  for (const auto& target : plan->targets) {
    plan->source_elements += target.sources.size();
    for (const auto& src : target.sources) {
      if (!is_erased[static_cast<std::size_t>(src.elem.node)]) {
        sources.insert(src.elem.node);
      }
    }
  }
  plan->target_elements =
      static_cast<std::size_t>(erased.size()) * static_cast<std::size_t>(rows_);
  plan->source_nodes.assign(sources.begin(), sources.end());
  APPROX_CHECK(plan->targets.size() == plan->target_elements,
               "mixed plan must cover every erased element");
  return plan;
}

std::shared_ptr<const RepairPlan> MixedCode::plan_repair(
    std::span<const int> erased_nodes) const {
  std::vector<int> erased(erased_nodes.begin(), erased_nodes.end());
  std::sort(erased.begin(), erased.end());
  erased.erase(std::unique(erased.begin(), erased.end()), erased.end());
  for (const int e : erased) {
    APPROX_REQUIRE(e >= 0 && e < nodes_, "erased node out of range");
  }
  // Shared schedule-cache counters: MixedCode's cache plays the same role
  // as LinearCode's, so the registry aggregates them under one name.
  static obs::Counter& cache_hits =
      obs::registry().counter("codes.plan_cache.hit");
  static obs::Counter& cache_misses =
      obs::registry().counter("codes.plan_cache.miss");
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = plan_cache_.find(erased);
    if (it != plan_cache_.end()) {
      cache_hits.add();
      return it->second;
    }
  }
  cache_misses.add();
  auto plan = compute_plan(erased);
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    plan_cache_.emplace(std::move(erased), plan);
  }
  return plan;
}

bool MixedCode::can_repair(std::span<const int> erased_nodes) const {
  return plan_repair(erased_nodes) != nullptr;
}

void MixedCode::apply(const RepairPlan& plan, std::span<const NodeView> nodes) const {
  APPROX_REQUIRE(nodes.size() == static_cast<std::size_t>(nodes_),
                 "apply needs one view per node");
  run_program(plan_program(plan), nodes, nodes[0].len);
}

bool MixedCode::repair(std::span<const NodeView> nodes,
                       std::span<const int> erased_nodes) const {
  auto plan = plan_repair(erased_nodes);
  if (plan == nullptr) return false;
  apply(*plan, nodes);
  return true;
}

void MixedCode::encode_blocks(std::span<std::span<std::uint8_t>> nodes,
                              std::size_t block_size) const {
  std::vector<NodeView> views;
  views.reserve(nodes.size());
  for (auto& n : nodes) views.push_back(full_view(n, block_size));
  encode(views);
}

bool MixedCode::repair_blocks(std::span<std::span<std::uint8_t>> nodes,
                              std::size_t block_size,
                              std::span<const int> erased_nodes) const {
  std::vector<NodeView> views;
  views.reserve(nodes.size());
  for (auto& n : nodes) views.push_back(full_view(n, block_size));
  return repair(views, erased_nodes);
}

std::shared_ptr<const MixedCode> make_xcode(int p) {
  APPROX_OBS_SPAN(span, "codes.construct");
  static obs::Counter& constructed =
      obs::registry().counter("codes.construct.xcode");
  constructed.add();
  APPROX_REQUIRE(is_prime(p) && p >= 5, "X-code requires prime p >= 5");
  const int rows = p;
  const int data_rows = p - 2;

  // Information indices: cell (row j < p-2, column c) -> c*(p-2) + j.
  const auto info_of = [&](int col, int row) { return col * data_rows + row; };

  std::vector<MixedCode::Element> table(
      static_cast<std::size_t>(p) * static_cast<std::size_t>(rows));
  const auto at = [&](int node, int row) -> MixedCode::Element& {
    return table[static_cast<std::size_t>(node) * static_cast<std::size_t>(rows) +
                 static_cast<std::size_t>(row)];
  };

  for (int c = 0; c < p; ++c) {
    for (int j = 0; j < data_rows; ++j) {
      at(c, j).is_parity = false;
      at(c, j).info = info_of(c, j);
    }
    // Row p-2: diagonal parity of slope +1 (Xu & Bruck):
    //   C[p-2][c] = XOR_{j=0}^{p-3} C[j][(c + j + 2) mod p]
    MixedCode::Element diag;
    diag.is_parity = true;
    for (int j = 0; j < data_rows; ++j) {
      diag.terms.push_back({info_of((c + j + 2) % p, j), 1});
    }
    at(c, p - 2) = std::move(diag);
    // Row p-1: anti-diagonal parity of slope -1:
    //   C[p-1][c] = XOR_{j=0}^{p-3} C[j][(c - j - 2) mod p]
    MixedCode::Element anti;
    anti.is_parity = true;
    for (int j = 0; j < data_rows; ++j) {
      anti.terms.push_back({info_of(((c - j - 2) % p + p) % p, j), 1});
    }
    at(c, p - 1) = std::move(anti);
  }

  return std::make_shared<MixedCode>("X-code(" + std::to_string(p) + ")", p, rows,
                                     std::move(table), 2);
}

}  // namespace approx::codes
