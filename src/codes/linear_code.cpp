#include "codes/linear_code.h"

#include <algorithm>
#include <cstring>
#include <queue>
#include <set>

#include "codes/schedule_opt.h"
#include "common/error.h"
#include "gf/gf256.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace approx::codes {

LinearCode::LinearCode(std::string name, int k, int m, int rows,
                       std::vector<std::vector<Term>> parity_elems,
                       int fault_tolerance)
    : name_(std::move(name)),
      k_(k),
      m_(m),
      rows_(rows),
      fault_tolerance_(fault_tolerance),
      binary_(true),
      total_terms_(0),
      parity_elems_(std::move(parity_elems)) {
  APPROX_REQUIRE(k_ >= 1 && m_ >= 0 && rows_ >= 1, "bad code geometry");
  APPROX_REQUIRE(parity_elems_.size() ==
                     static_cast<std::size_t>(m_) * static_cast<std::size_t>(rows_),
                 "parity element table size mismatch");
  for (const auto& elem : parity_elems_) {
    for (const auto& term : elem) {
      APPROX_REQUIRE(term.info >= 0 && term.info < info_count(),
                     "parity term references invalid info element");
      APPROX_REQUIRE(term.coeff != 0, "parity term with zero coefficient");
      if (term.coeff != 1) binary_ = false;
    }
    total_terms_ += elem.size();
  }
}

const std::vector<LinearCode::Term>& LinearCode::parity_terms(int parity_node,
                                                              int row) const {
  APPROX_REQUIRE(parity_node >= k_ && parity_node < total_nodes(),
                 "not a parity node");
  APPROX_REQUIRE(row >= 0 && row < rows_, "row out of range");
  return parity_elems_[static_cast<std::size_t>(parity_node - k_) *
                           static_cast<std::size_t>(rows_) +
                       static_cast<std::size_t>(row)];
}

void LinearCode::encode(std::span<const NodeView> nodes) const {
  std::vector<int> all(static_cast<std::size_t>(m_));
  for (int i = 0; i < m_; ++i) all[static_cast<std::size_t>(i)] = k_ + i;
  encode_parity_nodes(nodes, all);
}

void LinearCode::encode_parity_nodes(std::span<const NodeView> nodes,
                                     std::span<const int> parity_nodes) const {
  APPROX_REQUIRE(nodes.size() == static_cast<std::size_t>(total_nodes()),
                 "encode needs one view per node");
  const std::size_t len = nodes[0].len;
  for (const auto& v : nodes) {
    APPROX_REQUIRE(v.len == len, "all node views must agree on element length");
  }
  APPROX_OBS_SPAN(span, "codes.encode");
  run_program(*encode_program(parity_nodes), nodes, len);
}

std::vector<RepairPlan::Target> LinearCode::encode_statements(
    std::span<const int> parity_nodes) const {
  std::vector<RepairPlan::Target> stmts;
  stmts.reserve(parity_nodes.size() * static_cast<std::size_t>(rows_));
  for (const int p : parity_nodes) {
    for (int row = 0; row < rows_; ++row) {
      RepairPlan::Target t;
      t.elem = {p, row};
      for (const auto& term : parity_terms(p, row)) {
        t.sources.push_back(
            {ElemRef{term.info / rows_, term.info % rows_}, term.coeff});
      }
      stmts.push_back(std::move(t));
    }
  }
  return stmts;
}

std::shared_ptr<const XorProgram> LinearCode::encode_program(
    std::span<const int> parity_nodes) const {
  std::vector<int> key(parity_nodes.begin(), parity_nodes.end());
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = encode_prog_cache_.find(key);
    if (it != encode_prog_cache_.end()) return it->second;
  }
  auto prog = compile_schedule(encode_statements(key));
  std::lock_guard<std::mutex> lock(cache_mu_);
  return encode_prog_cache_.emplace(std::move(key), std::move(prog))
      .first->second;
}

SparseRow LinearCode::element_row(ElemRef e) const {
  SparseRow row;
  if (e.node < k_) {
    row.terms.emplace_back(info_index(e.node, e.row, rows_), std::uint8_t{1});
  } else {
    const auto& terms = parity_terms(e.node, e.row);
    row.terms.reserve(terms.size());
    for (const auto& t : terms) row.terms.emplace_back(t.info, t.coeff);
  }
  return row;
}

std::shared_ptr<const RepairPlan> LinearCode::compute_plan(
    const std::vector<int>& erased) const {
  APPROX_OBS_SPAN(span, "codes.plan.compute");
  static obs::Counter& peeled_targets =
      obs::registry().counter("codes.plan.peeled_targets");
  static obs::Counter& gauss_targets =
      obs::registry().counter("codes.plan.gauss_targets");
  std::vector<bool> is_erased(static_cast<std::size_t>(total_nodes()), false);
  for (const int e : erased) is_erased[static_cast<std::size_t>(e)] = true;

  auto plan = std::make_shared<RepairPlan>();
  plan->erased = erased;

  // Erased data elements, by info index.
  std::vector<bool> info_erased(static_cast<std::size_t>(info_count()), false);
  std::vector<bool> info_resolved(static_cast<std::size_t>(info_count()), false);
  std::size_t unresolved = 0;
  for (const int node : erased) {
    if (node >= k_) continue;
    for (int row = 0; row < rows_; ++row) {
      info_erased[static_cast<std::size_t>(info_index(node, row, rows_))] = true;
      ++unresolved;
    }
  }

  const auto info_ref = [this](int info) {
    return ElemRef{info / rows_, info % rows_};
  };

  // --- Stage 1: peeling.  A surviving parity element whose term list
  // contains exactly one unresolved erased data element resolves it with a
  // short chain - this is how the bespoke EVENODD/STAR/LRC decoders work,
  // and it keeps schedules near-minimal.  Resolved elements become sources
  // for later targets.
  if (peeling_enabled_ && unresolved > 0) {
    struct PElem {
      int node;
      int row;
      int open;  // unresolved erased terms
    };
    std::vector<PElem> pelems;
    std::vector<std::vector<int>> containing(
        static_cast<std::size_t>(info_count()));  // erased info -> pelem ids
    for (int p = k_; p < total_nodes(); ++p) {
      if (is_erased[static_cast<std::size_t>(p)]) continue;
      for (int row = 0; row < rows_; ++row) {
        PElem pe{p, row, 0};
        for (const auto& term : parity_terms(p, row)) {
          if (info_erased[static_cast<std::size_t>(term.info)]) {
            ++pe.open;
            containing[static_cast<std::size_t>(term.info)].push_back(
                static_cast<int>(pelems.size()));
          }
        }
        pelems.push_back(pe);
      }
    }
    // Min-heap on term count: always resolve through the sparsest available
    // equation, which preserves LRC locality (local parity over globals) and
    // keeps XOR chains short.
    using Cand = std::pair<std::size_t, int>;  // (terms, pelem id)
    std::priority_queue<Cand, std::vector<Cand>, std::greater<>> ready;
    const auto enqueue = [&](int pid) {
      const PElem& pe = pelems[static_cast<std::size_t>(pid)];
      ready.emplace(parity_terms(pe.node, pe.row).size(), pid);
    };
    for (std::size_t i = 0; i < pelems.size(); ++i) {
      if (pelems[i].open == 1) enqueue(static_cast<int>(i));
    }
    while (!ready.empty()) {
      const int pid = ready.top().second;
      ready.pop();
      PElem& pe = pelems[static_cast<std::size_t>(pid)];
      if (pe.open != 1) continue;  // stale queue entry
      // Find the single unresolved term and its coefficient.
      int lone = -1;
      std::uint8_t lone_coeff = 0;
      const auto& terms = parity_terms(pe.node, pe.row);
      for (const auto& term : terms) {
        if (info_erased[static_cast<std::size_t>(term.info)] &&
            !info_resolved[static_cast<std::size_t>(term.info)]) {
          lone = term.info;
          lone_coeff = term.coeff;
          break;
        }
      }
      APPROX_CHECK(lone >= 0, "peeling bookkeeping out of sync");
      // x_lone = inv(c) * (P - sum of other terms); char 2: minus == plus.
      const std::uint8_t ic = gf::inv(lone_coeff);
      RepairPlan::Target target;
      target.elem = info_ref(lone);
      target.sources.push_back({ElemRef{pe.node, pe.row}, ic});
      for (const auto& term : terms) {
        if (term.info == lone) continue;
        target.sources.push_back({info_ref(term.info), gf::mul(term.coeff, ic)});
      }
      plan->targets.push_back(std::move(target));
      peeled_targets.add();
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

  // --- Stage 2: Gaussian elimination for whatever peeling left open.
  // Resolved elements join the survivor basis as unit rows.
  if (unresolved > 0) {
    std::vector<SparseRow> survivors;
    std::vector<ElemRef> survivor_refs;
    for (int node = 0; node < total_nodes(); ++node) {
      if (is_erased[static_cast<std::size_t>(node)]) continue;
      for (int row = 0; row < rows_; ++row) {
        survivor_refs.push_back({node, row});
        survivors.push_back(element_row({node, row}));
      }
    }
    for (int info = 0; info < info_count(); ++info) {
      if (info_resolved[static_cast<std::size_t>(info)]) {
        survivor_refs.push_back(info_ref(info));
        SparseRow unit;
        unit.terms.emplace_back(info, std::uint8_t{1});
        survivors.push_back(std::move(unit));
      }
    }

    std::vector<SparseRow> target_rows;
    std::vector<int> target_infos;
    for (int info = 0; info < info_count(); ++info) {
      if (info_erased[static_cast<std::size_t>(info)] &&
          !info_resolved[static_cast<std::size_t>(info)]) {
        target_infos.push_back(info);
        SparseRow unit;
        unit.terms.emplace_back(info, std::uint8_t{1});
        target_rows.push_back(std::move(unit));
      }
    }

    auto combos = solve_combinations(info_count(), survivors, target_rows, binary_);
    if (!combos.has_value()) return nullptr;
    for (std::size_t t = 0; t < target_infos.size(); ++t) {
      RepairPlan::Target target;
      target.elem = info_ref(target_infos[t]);
      for (const auto& [survivor, coeff] : (*combos)[t]) {
        target.sources.push_back(
            {survivor_refs[static_cast<std::size_t>(survivor)], coeff});
      }
      plan->targets.push_back(std::move(target));
      gauss_targets.add();
      info_resolved[static_cast<std::size_t>(target_infos[t])] = true;
    }
  }

  // --- Stage 3: erased parity elements are recomputed directly from their
  // (now fully available) data terms.
  for (const int node : erased) {
    if (node < k_) continue;
    for (int row = 0; row < rows_; ++row) {
      RepairPlan::Target target;
      target.elem = {node, row};
      for (const auto& term : parity_terms(node, row)) {
        target.sources.push_back({info_ref(term.info), term.coeff});
      }
      plan->targets.push_back(std::move(target));
    }
  }

  // Accounting.  Only surviving nodes count as read sources: references to
  // rebuilt elements are rebuilder-local.
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
               "plan must cover every erased element");
  return plan;
}

std::shared_ptr<const RepairPlan> LinearCode::plan_repair(
    std::span<const int> erased_nodes) const {
  std::vector<int> erased(erased_nodes.begin(), erased_nodes.end());
  std::sort(erased.begin(), erased.end());
  erased.erase(std::unique(erased.begin(), erased.end()), erased.end());
  for (const int e : erased) {
    APPROX_REQUIRE(e >= 0 && e < total_nodes(), "erased node out of range");
  }

  static obs::Counter& cache_hits =
      obs::registry().counter("codes.plan_cache.hit");
  static obs::Counter& cache_misses =
      obs::registry().counter("codes.plan_cache.miss");
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (cache_enabled_) {
      auto it = plan_cache_.find(erased);
      if (it != plan_cache_.end()) {
        cache_hits.add();
        return it->second;
      }
    }
  }
  cache_misses.add();
  auto plan = compute_plan(erased);
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (cache_enabled_) plan_cache_.emplace(std::move(erased), plan);
  }
  return plan;
}

bool LinearCode::can_repair(std::span<const int> erased_nodes) const {
  return plan_repair(erased_nodes) != nullptr;
}

void LinearCode::apply(const RepairPlan& plan,
                       std::span<const NodeView> nodes) const {
  APPROX_REQUIRE(nodes.size() == static_cast<std::size_t>(total_nodes()),
                 "apply needs one view per node");
  APPROX_OBS_SPAN(span, "codes.repair.apply");
  static obs::Counter& targets_rebuilt =
      obs::registry().counter("codes.repair.targets");
  targets_rebuilt.add(plan.targets.size());
  const std::size_t len = nodes[0].len;
  for (const auto& v : nodes) {
    APPROX_REQUIRE(v.len == len, "all node views must agree on element length");
  }
  run_program(plan_program(plan), nodes, len);
}

int LinearCode::apply_for_element(const RepairPlan& plan,
                                  std::span<const NodeView> nodes,
                                  ElemRef elem) const {
  APPROX_REQUIRE(nodes.size() == static_cast<std::size_t>(total_nodes()),
                 "apply needs one view per node");
  const auto is_target = [&](const RepairPlan::Target& t) { return t.elem == elem; };
  if (std::none_of(plan.targets.begin(), plan.targets.end(), is_target)) return 0;

  const XorProgram& prog = plan_program(plan);
  const auto& stmts = prog.stmts;
  const auto writes = [](const XorProgram::Stmt& s, const XorProgram::Ref& r) {
    return s.dst.node == r.node && s.dst.row == r.row;
  };
  std::size_t wanted = static_cast<std::size_t>(prog.temp_count);
  while (!writes(stmts[wanted], {elem.node, elem.row})) ++wanted;

  // Mark the wanted statement and walk backwards: a statement reads only
  // temporaries (temp t is stmts[t]) and targets rebuilt by earlier
  // statements, so one reverse sweep closes the dependency set.  The marks
  // are then compacted in place into the ascending slice.
  std::vector<std::uint32_t> slice(wanted + 1, 0);
  slice[wanted] = 1;
  for (std::size_t t = wanted + 1; t-- > 0;) {
    if (slice[t] == 0) continue;
    for (const auto& src : stmts[t].sources) {
      if (src.ref.node == XorProgram::kTempNode) {
        slice[static_cast<std::size_t>(src.ref.row)] = 1;
      } else if (std::binary_search(plan.erased.begin(), plan.erased.end(),
                                    src.ref.node)) {
        std::size_t d = static_cast<std::size_t>(prog.temp_count);
        while (d < t && !writes(stmts[d], src.ref)) ++d;
        APPROX_CHECK(d < t, "slice source is not rebuilt by an earlier statement");
        slice[d] = 1;
      }
    }
  }
  std::size_t n = 0;
  int targets = 0;
  for (std::size_t t = 0; t <= wanted; ++t) {
    if (slice[t] == 0) continue;
    if (t >= static_cast<std::size_t>(prog.temp_count)) ++targets;
    slice[n++] = static_cast<std::uint32_t>(t);
  }
  slice.resize(n);
  run_program(prog, nodes, nodes[0].len, slice);
  return targets;
}

bool LinearCode::repair(std::span<const NodeView> nodes,
                        std::span<const int> erased_nodes) const {
  auto plan = plan_repair(erased_nodes);
  if (plan == nullptr) return false;
  apply(*plan, nodes);
  return true;
}

void LinearCode::encode_blocks(std::span<std::span<std::uint8_t>> nodes,
                               std::size_t block_size) const {
  std::vector<NodeView> views;
  views.reserve(nodes.size());
  for (auto& n : nodes) {
    APPROX_REQUIRE(n.size() >= block_size * static_cast<std::size_t>(rows_),
                   "node buffer smaller than rows * block_size");
    views.push_back(full_view(n, block_size));
  }
  encode(views);
}

bool LinearCode::repair_blocks(std::span<std::span<std::uint8_t>> nodes,
                               std::size_t block_size,
                               std::span<const int> erased_nodes) const {
  std::vector<NodeView> views;
  views.reserve(nodes.size());
  for (auto& n : nodes) {
    APPROX_REQUIRE(n.size() >= block_size * static_cast<std::size_t>(rows_),
                   "node buffer smaller than rows * block_size");
    views.push_back(full_view(n, block_size));
  }
  return repair(views, erased_nodes);
}

LinearCode::ScrubResult LinearCode::scrub(std::span<const NodeView> nodes,
                                          std::span<const int> parity_nodes) const {
  APPROX_REQUIRE(nodes.size() == static_cast<std::size_t>(total_nodes()),
                 "scrub needs one view per node");
  APPROX_OBS_SPAN(span, "codes.scrub");
  static obs::Counter& scrub_elems =
      obs::registry().counter("codes.scrub.elements");
  static obs::Counter& scrub_mismatches =
      obs::registry().counter("codes.scrub.mismatches");
  const std::size_t len = nodes[0].len;
  // Re-encode the listed parities with their views pointed at scratch, then
  // compare against the stored elements.
  const std::size_t node_bytes = static_cast<std::size_t>(rows_) * len;
  std::vector<std::uint8_t> expected(parity_nodes.size() * node_bytes);
  std::vector<NodeView> views(nodes.begin(), nodes.end());
  for (std::size_t i = 0; i < parity_nodes.size(); ++i) {
    APPROX_REQUIRE(parity_nodes[i] >= k_ && parity_nodes[i] < total_nodes(),
                   "not a parity node");
    views[static_cast<std::size_t>(parity_nodes[i])] =
        NodeView{expected.data() + i * node_bytes, len, len};
  }
  run_program(*encode_program(parity_nodes), views, len);
  ScrubResult result;
  for (const int p : parity_nodes) {
    const NodeView& stored = nodes[static_cast<std::size_t>(p)];
    for (int row = 0; row < rows_; ++row) {
      scrub_elems.add();
      if (std::memcmp(views[static_cast<std::size_t>(p)].elem(row),
                      stored.elem(row), len) != 0) {
        scrub_mismatches.add();
        result.mismatched.push_back({p, row});
      }
    }
  }
  return result;
}

LinearCode::ScrubResult LinearCode::scrub(std::span<const NodeView> nodes) const {
  std::vector<int> all;
  for (int p = k_; p < total_nodes(); ++p) all.push_back(p);
  return scrub(nodes, all);
}

std::optional<ElemRef> LinearCode::locate_single_corruption(
    std::span<const NodeView> nodes) const {
  const ScrubResult result = scrub(nodes);
  if (result.clean()) return std::nullopt;

  // Mismatch signature as a sorted set of parity element ids.
  std::vector<int> signature;
  for (const auto& e : result.mismatched) {
    signature.push_back((e.node - k_) * rows_ + e.row);
  }
  std::sort(signature.begin(), signature.end());

  const auto& index = update_index();
  std::optional<ElemRef> found;
  for (int info = 0; info < info_count(); ++info) {
    std::vector<int> membership;
    for (const auto& [pe, coeff] : index[static_cast<std::size_t>(info)]) {
      (void)coeff;
      membership.push_back(pe);
    }
    std::sort(membership.begin(), membership.end());
    if (membership == signature) {
      if (found.has_value()) return std::nullopt;  // ambiguous
      found = ElemRef{info / rows_, info % rows_};
    }
  }
  return found;
}

const std::vector<std::vector<std::pair<int, std::uint8_t>>>&
LinearCode::update_index() const {
  std::call_once(update_index_once_, [this] {
    update_index_.resize(static_cast<std::size_t>(info_count()));
    for (std::size_t pe = 0; pe < parity_elems_.size(); ++pe) {
      for (const auto& term : parity_elems_[pe]) {
        update_index_[static_cast<std::size_t>(term.info)].emplace_back(
            static_cast<int>(pe), term.coeff);
      }
    }
  });
  return update_index_;
}

int LinearCode::apply_update_delta(std::span<const NodeView> nodes, int data_node,
                                   int row, std::size_t offset,
                                   std::span<const std::uint8_t> delta,
                                   std::span<const int> parity_nodes) const {
  APPROX_REQUIRE(nodes.size() == static_cast<std::size_t>(total_nodes()),
                 "update needs one view per node");
  APPROX_REQUIRE(data_node >= 0 && data_node < k_, "not a data node");
  APPROX_REQUIRE(row >= 0 && row < rows_, "row out of range");
  APPROX_REQUIRE(offset + delta.size() <= nodes[0].len,
                 "update range exceeds element length");

  std::vector<bool> wanted(static_cast<std::size_t>(m_), false);
  for (const int p : parity_nodes) {
    APPROX_REQUIRE(p >= k_ && p < total_nodes(), "not a parity node");
    wanted[static_cast<std::size_t>(p - k_)] = true;
  }

  const int info = info_index(data_node, row, rows_);
  int touched = 0;
  for (const auto& [pe, coeff] : update_index()[static_cast<std::size_t>(info)]) {
    const int pnode = k_ + pe / rows_;
    const int prow = pe % rows_;
    if (!wanted[static_cast<std::size_t>(pnode - k_)]) continue;
    std::uint8_t* dst = nodes[static_cast<std::size_t>(pnode)].elem(prow) + offset;
    gf::mul_acc_region(dst, delta.data(), delta.size(), coeff);
    ++touched;
  }
  return touched;
}

int LinearCode::update_element(std::span<const NodeView> nodes, int data_node,
                               int row, std::size_t offset,
                               std::span<const std::uint8_t> new_bytes,
                               std::span<const int> parity_nodes) const {
  APPROX_REQUIRE(nodes.size() == static_cast<std::size_t>(total_nodes()),
                 "update needs one view per node");
  APPROX_REQUIRE(data_node >= 0 && data_node < k_, "not a data node");
  APPROX_REQUIRE(row >= 0 && row < rows_, "row out of range");
  APPROX_REQUIRE(offset + new_bytes.size() <= nodes[0].len,
                 "update range exceeds element length");

  std::uint8_t* target = nodes[static_cast<std::size_t>(data_node)].elem(row) + offset;
  std::vector<std::uint8_t> delta(new_bytes.size());
  for (std::size_t i = 0; i < delta.size(); ++i) {
    delta[i] = static_cast<std::uint8_t>(target[i] ^ new_bytes[i]);
  }
  std::memcpy(target, new_bytes.data(), new_bytes.size());
  return apply_update_delta(nodes, data_node, row, offset, delta, parity_nodes);
}

double LinearCode::storage_overhead() const noexcept {
  return static_cast<double>(total_nodes()) / static_cast<double>(k_);
}

double LinearCode::avg_single_write_cost() const noexcept {
  return 1.0 + static_cast<double>(total_terms_) / static_cast<double>(info_count());
}

void LinearCode::set_plan_cache_enabled(bool enabled) const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  cache_enabled_ = enabled;
  if (!enabled) plan_cache_.clear();
}

void LinearCode::set_peeling_enabled(bool enabled) const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (peeling_enabled_ != enabled) {
    peeling_enabled_ = enabled;
    plan_cache_.clear();  // cached plans were built under the other mode
  }
}

}  // namespace approx::codes
