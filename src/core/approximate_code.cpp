#include "core/approximate_code.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>

#include "common/buffer.h"
#include "common/error.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace approx::core {

namespace {

// Element length used by a plan: local plans run at full block length,
// virtual (important-range) plans at the segment length under Even and at
// full block length under Uneven (stripe 0 is entirely important).
std::size_t plan_elem_len(const ApprParams& p, std::size_t block, bool is_virtual) {
  if (is_virtual && p.structure == Structure::Even) {
    return block / static_cast<std::size_t>(p.h);
  }
  return block;
}

}  // namespace

ApproximateCode::ApproximateCode(ApprParams params, std::size_t block_size)
    : params_(params), block_size_(block_size) {
  params_.validate(block_size_);
  rows_ = codes::family_rows(params_.family, params_.k);
  local_ = codes::family_make(params_.family, params_.k, params_.r);
  base_ = codes::family_make(params_.family, params_.k, params_.r + params_.g);
}

std::size_t ApproximateCode::important_capacity() const noexcept {
  // Exactly one stripe's worth of data: h stripes * k nodes * 1/h.
  return static_cast<std::size_t>(params_.k) * node_bytes();
}

std::size_t ApproximateCode::unimportant_capacity() const noexcept {
  return static_cast<std::size_t>(params_.k) * static_cast<std::size_t>(params_.h - 1) *
         node_bytes();
}

std::uint64_t ApproximateCode::chunk_count(std::uint64_t important_len,
                                           std::uint64_t unimportant_len) const {
  const auto ceil_div = [](std::uint64_t a, std::uint64_t b) {
    return (a + b - 1) / b;
  };
  std::uint64_t chunks = std::max<std::uint64_t>(
      1, ceil_div(important_len, important_capacity()));
  if (unimportant_len > 0) {
    // h = 1 leaves no unimportant capacity: such bytes have nowhere to go.
    APPROX_REQUIRE(unimportant_capacity() > 0,
                   name() + " stores no unimportant bytes (h = 1), but " +
                       std::to_string(unimportant_len) + " were given");
    chunks = std::max(chunks, ceil_div(unimportant_len, unimportant_capacity()));
  }
  return chunks;
}

ApproximateCode::Range ApproximateCode::node_important_range(int node) const {
  const NodeRole role = node_role(params_, node);
  if (role.kind != NodeRole::Kind::Data) return {};
  if (params_.structure == Structure::Even) {
    const std::size_t len = static_cast<std::size_t>(rows_) * seg();
    const std::size_t idx =
        static_cast<std::size_t>(role.stripe) * static_cast<std::size_t>(params_.k) +
        static_cast<std::size_t>(role.index);
    return {idx * len, len};
  }
  if (role.stripe != 0) return {};
  const std::size_t len = node_bytes();
  return {static_cast<std::size_t>(role.index) * len, len};
}

ApproximateCode::Range ApproximateCode::node_unimportant_range(int node) const {
  const NodeRole role = node_role(params_, node);
  if (role.kind != NodeRole::Kind::Data) return {};
  if (params_.structure == Structure::Even) {
    const std::size_t len = static_cast<std::size_t>(rows_) * (block_size_ - seg());
    const std::size_t idx =
        static_cast<std::size_t>(role.stripe) * static_cast<std::size_t>(params_.k) +
        static_cast<std::size_t>(role.index);
    return {idx * len, len};
  }
  if (role.stripe == 0) return {};
  const std::size_t len = node_bytes();
  const std::size_t idx =
      static_cast<std::size_t>(role.stripe - 1) * static_cast<std::size_t>(params_.k) +
      static_cast<std::size_t>(role.index);
  return {idx * len, len};
}

void ApproximateCode::scatter(std::span<const std::uint8_t> important,
                              std::span<const std::uint8_t> unimportant,
                              std::span<std::span<std::uint8_t>> nodes) const {
  APPROX_REQUIRE(important.size() == important_capacity(),
                 "important stream size mismatch");
  APPROX_REQUIRE(unimportant.size() == unimportant_capacity(),
                 "unimportant stream size mismatch");
  APPROX_REQUIRE(nodes.size() == static_cast<std::size_t>(total_nodes()),
                 "node span count mismatch");

  for (int node = 0; node < total_nodes(); ++node) {
    const NodeRole role = node_role(params_, node);
    if (role.kind != NodeRole::Kind::Data) continue;
    auto dst = nodes[static_cast<std::size_t>(node)];
    APPROX_REQUIRE(dst.size() >= node_bytes(), "node buffer too small");
    if (params_.structure == Structure::Uneven) {
      const Range imp = node_important_range(node);
      const Range unimp = node_unimportant_range(node);
      if (imp.len != 0) {
        std::memcpy(dst.data(), important.data() + imp.offset, imp.len);
      } else {
        std::memcpy(dst.data(), unimportant.data() + unimp.offset, unimp.len);
      }
      continue;
    }
    // Even: interleave per element.
    const Range imp = node_important_range(node);
    const Range unimp = node_unimportant_range(node);
    const std::size_t s = seg();
    const std::size_t u = block_size_ - s;  // 0 under h = 1: no stream to copy
    for (int t = 0; t < rows_; ++t) {
      std::memcpy(dst.data() + static_cast<std::size_t>(t) * block_size_,
                  important.data() + imp.offset + static_cast<std::size_t>(t) * s, s);
      if (u == 0) continue;
      std::memcpy(dst.data() + static_cast<std::size_t>(t) * block_size_ + s,
                  unimportant.data() + unimp.offset + static_cast<std::size_t>(t) * u, u);
    }
  }
}

void ApproximateCode::gather(std::span<std::span<std::uint8_t>> nodes,
                             std::span<std::uint8_t> important,
                             std::span<std::uint8_t> unimportant) const {
  APPROX_REQUIRE(important.size() == important_capacity(),
                 "important stream size mismatch");
  APPROX_REQUIRE(unimportant.size() == unimportant_capacity(),
                 "unimportant stream size mismatch");
  APPROX_REQUIRE(nodes.size() == static_cast<std::size_t>(total_nodes()),
                 "node span count mismatch");

  for (int node = 0; node < total_nodes(); ++node) {
    const NodeRole role = node_role(params_, node);
    if (role.kind != NodeRole::Kind::Data) continue;
    auto src = nodes[static_cast<std::size_t>(node)];
    if (params_.structure == Structure::Uneven) {
      const Range imp = node_important_range(node);
      const Range unimp = node_unimportant_range(node);
      if (imp.len != 0) {
        std::memcpy(important.data() + imp.offset, src.data(), imp.len);
      } else {
        std::memcpy(unimportant.data() + unimp.offset, src.data(), unimp.len);
      }
      continue;
    }
    const Range imp = node_important_range(node);
    const Range unimp = node_unimportant_range(node);
    const std::size_t s = seg();
    const std::size_t u = block_size_ - s;  // 0 under h = 1: no stream to copy
    for (int t = 0; t < rows_; ++t) {
      std::memcpy(important.data() + imp.offset + static_cast<std::size_t>(t) * s,
                  src.data() + static_cast<std::size_t>(t) * block_size_, s);
      if (u == 0) continue;
      std::memcpy(unimportant.data() + unimp.offset + static_cast<std::size_t>(t) * u,
                  src.data() + static_cast<std::size_t>(t) * block_size_ + s, u);
    }
  }
}

std::vector<codes::NodeView> ApproximateCode::local_views(
    std::span<std::span<std::uint8_t>> nodes, int stripe) const {
  std::vector<codes::NodeView> views;
  views.reserve(static_cast<std::size_t>(params_.nodes_per_stripe()));
  const int base = stripe * params_.nodes_per_stripe();
  for (int i = 0; i < params_.nodes_per_stripe(); ++i) {
    views.push_back(codes::full_view(nodes[static_cast<std::size_t>(base + i)],
                                     block_size_));
  }
  return views;
}

std::vector<codes::NodeView> ApproximateCode::virtual_views(
    std::span<std::span<std::uint8_t>> nodes, int stripe) const {
  std::vector<codes::NodeView> views;
  views.reserve(static_cast<std::size_t>(params_.nodes_per_stripe() + params_.g));
  const int base = stripe * params_.nodes_per_stripe();
  if (params_.structure == Structure::Uneven) {
    APPROX_CHECK(stripe == 0, "Uneven structure has a single virtual stripe");
    for (int i = 0; i < params_.nodes_per_stripe(); ++i) {
      views.push_back(codes::full_view(nodes[static_cast<std::size_t>(base + i)],
                                       block_size_));
    }
    for (int t = 0; t < params_.g; ++t) {
      views.push_back(codes::full_view(
          nodes[static_cast<std::size_t>(global_parity_node_id(params_, t))],
          block_size_));
    }
    return views;
  }
  const std::size_t s = seg();
  for (int i = 0; i < params_.nodes_per_stripe(); ++i) {
    views.push_back(codes::range_view(nodes[static_cast<std::size_t>(base + i)],
                                      block_size_, 0, s));
  }
  for (int t = 0; t < params_.g; ++t) {
    auto g = nodes[static_cast<std::size_t>(global_parity_node_id(params_, t))];
    views.push_back(codes::NodeView{
        g.data() + static_cast<std::size_t>(stripe) * s, s, block_size_});
  }
  return views;
}

void ApproximateCode::encode(std::span<std::span<std::uint8_t>> nodes) const {
  APPROX_REQUIRE(nodes.size() == static_cast<std::size_t>(total_nodes()),
                 "node span count mismatch");
  APPROX_OBS_SPAN(span, "core.encode");
  static obs::Counter& local_stripes =
      obs::registry().counter("core.encode.local_stripes");
  static obs::Counter& global_segments =
      obs::registry().counter("core.encode.global_segments");
  for (auto& n : nodes) {
    APPROX_REQUIRE(n.size() >= node_bytes(), "node buffer too small");
  }
  // Local parities: every stripe.
  for (int stripe = 0; stripe < params_.h; ++stripe) {
    local_->encode(local_views(nodes, stripe));
    local_stripes.add();
  }
  // Global parities over important data.
  std::vector<int> global_ids;
  for (int t = 0; t < params_.g; ++t) {
    global_ids.push_back(params_.k + params_.r + t);  // virtual stripe position
  }
  const int global_stripes = params_.structure == Structure::Uneven ? 1 : params_.h;
  for (int stripe = 0; stripe < global_stripes; ++stripe) {
    base_->encode_parity_nodes(virtual_views(nodes, stripe), global_ids);
    global_segments.add();
  }
}

int ApproximateCode::virtual_to_real(int stripe, int virtual_node) const {
  if (virtual_node < params_.nodes_per_stripe()) {
    return stripe * params_.nodes_per_stripe() + virtual_node;
  }
  return global_parity_node_id(params_, virtual_node - params_.nodes_per_stripe());
}

void ApproximateCode::account_plan(const codes::RepairPlan& plan, int stripe,
                                   bool is_virtual, RepairReport& report) const {
  const std::size_t len = plan_elem_len(params_, block_size_, is_virtual);
  const std::size_t per_node = len * static_cast<std::size_t>(rows_);
  for (const int src : plan.source_nodes) {
    const int real = is_virtual ? virtual_to_real(stripe, src)
                                : stripe * params_.nodes_per_stripe() + src;
    report.bytes_read_per_node[static_cast<std::size_t>(real)] += per_node;
    report.bytes_read += per_node;
  }
  report.compute_bytes += plan.source_elements * len;
  report.bytes_written += plan.target_elements * len;
  for (const auto& target : plan.targets) {
    const int real = is_virtual ? virtual_to_real(stripe, target.elem.node)
                                : stripe * params_.nodes_per_stripe() + target.elem.node;
    report.bytes_written_per_node[static_cast<std::size_t>(real)] += len;
  }
}

RepairReport ApproximateCode::plan_repair(std::span<const int> erased) const {
  return plan_repair(erased, RepairOptions{});
}

RepairReport ApproximateCode::plan_repair(std::span<const int> erased,
                                          RepairOptions options) const {
  APPROX_OBS_SPAN(span, "core.repair.plan");
  RepairReport report;
  report.erased.assign(erased.begin(), erased.end());
  std::sort(report.erased.begin(), report.erased.end());
  report.erased.erase(std::unique(report.erased.begin(), report.erased.end()),
                      report.erased.end());
  for (const int e : report.erased) {
    APPROX_REQUIRE(e >= 0 && e < total_nodes(), "erased node out of range");
  }
  report.bytes_read_per_node.assign(static_cast<std::size_t>(total_nodes()), 0);
  report.bytes_written_per_node.assign(static_cast<std::size_t>(total_nodes()), 0);

  // Partition failures.
  std::vector<std::vector<int>> stripe_failed(static_cast<std::size_t>(params_.h));
  for (const int e : report.erased) {
    const NodeRole role = node_role(params_, e);
    if (role.kind == NodeRole::Kind::GlobalParity) {
      report.failed_globals.push_back(role.index);
    } else {
      stripe_failed[static_cast<std::size_t>(role.stripe)].push_back(e);
    }
  }

  // Virtual ids of failed globals (same in every virtual stripe).
  std::vector<int> virtual_global_erased;
  for (const int gi : report.failed_globals) {
    virtual_global_erased.push_back(params_.nodes_per_stripe() + gi);
  }

  const std::size_t imp_elem = plan_elem_len(params_, block_size_, true);
  const std::size_t imp_node_bytes = imp_elem * static_cast<std::size_t>(rows_);
  const std::size_t unimp_node_bytes = node_bytes() - (params_.structure == Structure::Even
                                                           ? imp_node_bytes
                                                           : 0);

  report.stripes.resize(static_cast<std::size_t>(params_.h));
  for (int s = 0; s < params_.h; ++s) {
    StripeOutcome& out = report.stripes[static_cast<std::size_t>(s)];
    out.stripe = s;
    out.failed_members = stripe_failed[static_cast<std::size_t>(s)];
    if (out.failed_members.empty()) {
      out.kind = StripeOutcome::Kind::Intact;
      continue;
    }
    // Local coordinates of the failed members.
    std::vector<int> local_ids;
    for (const int e : out.failed_members) {
      local_ids.push_back(e - s * params_.nodes_per_stripe());
    }

    auto local_plan = local_->plan_repair(local_ids);
    if (local_plan != nullptr) {
      out.kind = StripeOutcome::Kind::LocalRepair;
      out.plan = std::move(local_plan);
      account_plan(*out.plan, s, /*is_virtual=*/false, report);
      continue;
    }

    const bool has_virtual =
        params_.structure == Structure::Even || s == 0;
    std::shared_ptr<const codes::RepairPlan> base_plan;
    if (has_virtual) {
      std::vector<int> verased = local_ids;
      verased.insert(verased.end(), virtual_global_erased.begin(),
                     virtual_global_erased.end());
      base_plan = base_->plan_repair(verased);
    }
    if (base_plan != nullptr) {
      out.kind = StripeOutcome::Kind::ImportantOnlyRepair;
      out.plan = std::move(base_plan);
      account_plan(*out.plan, s, /*is_virtual=*/true, report);
    } else {
      out.kind = StripeOutcome::Kind::Unrecoverable;
    }

    // Data-loss accounting for this stripe.
    for (const int e : out.failed_members) {
      if (node_role(params_, e).kind != NodeRole::Kind::Data) continue;
      if (params_.structure == Structure::Even) {
        if (out.kind == StripeOutcome::Kind::ImportantOnlyRepair) {
          report.unimportant_data_bytes_lost += unimp_node_bytes;
        } else {  // Unrecoverable
          report.unimportant_data_bytes_lost += unimp_node_bytes;
          report.important_data_bytes_lost += imp_node_bytes;
        }
      } else {
        if (s == 0) {
          if (out.kind == StripeOutcome::Kind::Unrecoverable) {
            report.important_data_bytes_lost += node_bytes();
          }
        } else {
          // Unimportant stripes have no virtual repair: anything beyond the
          // local tolerance is lost.
          report.unimportant_data_bytes_lost += node_bytes();
        }
      }
    }
    // Stripes left with zero-filled holes get their local parities
    // recomputed over the lost range so the stripe remains self-consistent
    // (a production repair must not leave stale parity behind).  An Even
    // important-only repair leaves none when the unimportant range is
    // empty (h = 1): the virtual plan then rebuilds every byte.
    const bool holes =
        (out.kind == StripeOutcome::Kind::ImportantOnlyRepair &&
         params_.structure == Structure::Even && unimp_node_bytes != 0) ||
        out.kind == StripeOutcome::Kind::Unrecoverable;
    if (holes) report.fully_recovered = false;
    if (holes && options.normalize_parity) {
      const bool full_range =
          out.kind == StripeOutcome::Kind::Unrecoverable ||
          params_.structure == Structure::Uneven;
      report.normalize_stripes.push_back({s, full_range});
      const std::size_t norm_len =
          full_range ? node_bytes()
                     : (block_size_ - seg()) * static_cast<std::size_t>(rows_);
      for (int j = 0; j < params_.k; ++j) {
        const int node = data_node_id(params_, s, j);
        if (node_role(params_, node).kind == NodeRole::Kind::Data &&
            !std::binary_search(report.erased.begin(), report.erased.end(), node)) {
          report.bytes_read_per_node[static_cast<std::size_t>(node)] += norm_len;
          report.bytes_read += norm_len;
        }
      }
      for (int i = 0; i < params_.r; ++i) {
        const int lp = local_parity_node_id(params_, s, i);
        report.bytes_written_per_node[static_cast<std::size_t>(lp)] += norm_len;
        report.bytes_written += norm_len;
      }
    }
  }
  report.all_important_recovered = (report.important_data_bytes_lost == 0);

  // Failed global parity nodes: restore per-stripe segments that the
  // virtual-plan repairs did not already rebuild.
  const bool even = params_.structure == Structure::Even;
  for (const int gi : report.failed_globals) {
    const int stripes_with_segments = even ? params_.h : 1;
    for (int s = 0; s < stripes_with_segments; ++s) {
      const StripeOutcome& out = report.stripes[static_cast<std::size_t>(s)];
      if (out.kind == StripeOutcome::Kind::ImportantOnlyRepair) {
        continue;  // rebuilt by the virtual plan (globals were in its erasure set)
      }
      if (out.kind == StripeOutcome::Kind::Unrecoverable) {
        report.fully_recovered = false;  // parity over lost data
        continue;
      }
      report.reencode_segments.emplace_back(gi, s);
      // Reads: important ranges of the stripe's k data nodes.
      for (int j = 0; j < params_.k; ++j) {
        const int node = data_node_id(params_, s, j);
        report.bytes_read_per_node[static_cast<std::size_t>(node)] += imp_node_bytes;
        report.bytes_read += imp_node_bytes;
      }
      report.bytes_written += imp_node_bytes;
      report.bytes_written_per_node[static_cast<std::size_t>(
          global_parity_node_id(params_, gi))] += imp_node_bytes;
      // Compute volume: term counts of this global parity's elements.
      const int parity_node = params_.nodes_per_stripe() + gi;
      for (int row = 0; row < rows_; ++row) {
        report.compute_bytes +=
            base_->parity_terms(parity_node, row).size() * imp_elem;
      }
    }
  }

  // Registry accounting: the important/unimportant split per stripe and the
  // I/O the plan will move (drives the paper's recovery-cost bookkeeping).
  static obs::Counter& stripes_intact =
      obs::registry().counter("core.repair.stripes.intact");
  static obs::Counter& stripes_local =
      obs::registry().counter("core.repair.stripes.local");
  static obs::Counter& stripes_important_only =
      obs::registry().counter("core.repair.stripes.important_only");
  static obs::Counter& stripes_unrecoverable =
      obs::registry().counter("core.repair.stripes.unrecoverable");
  static obs::Counter& bytes_read = obs::registry().counter("core.repair.bytes_read");
  static obs::Counter& bytes_written =
      obs::registry().counter("core.repair.bytes_written");
  static obs::Counter& unimportant_lost =
      obs::registry().counter("core.repair.unimportant_bytes_lost");
  for (const StripeOutcome& out : report.stripes) {
    switch (out.kind) {
      case StripeOutcome::Kind::Intact: stripes_intact.add(); break;
      case StripeOutcome::Kind::LocalRepair: stripes_local.add(); break;
      case StripeOutcome::Kind::ImportantOnlyRepair:
        stripes_important_only.add();
        break;
      case StripeOutcome::Kind::Unrecoverable: stripes_unrecoverable.add(); break;
    }
  }
  bytes_read.add(report.bytes_read);
  bytes_written.add(report.bytes_written);
  unimportant_lost.add(report.unimportant_data_bytes_lost);
  return report;
}

void ApproximateCode::execute(const RepairReport& report,
                              std::span<std::span<std::uint8_t>> nodes) const {
  APPROX_REQUIRE(nodes.size() == static_cast<std::size_t>(total_nodes()),
                 "node span count mismatch");
  APPROX_OBS_SPAN(span, "core.repair.execute");
  for (const StripeOutcome& out : report.stripes) {
    if (out.plan == nullptr) continue;
    if (out.kind == StripeOutcome::Kind::LocalRepair) {
      local_->apply(*out.plan, local_views(nodes, out.stripe));
    } else if (out.kind == StripeOutcome::Kind::ImportantOnlyRepair) {
      base_->apply(*out.plan, virtual_views(nodes, out.stripe));
    }
  }
  for (const auto& [gi, s] : report.reencode_segments) {
    const std::vector<int> parity_node{params_.nodes_per_stripe() + gi};
    base_->encode_parity_nodes(virtual_views(nodes, s), parity_node);
  }
  // Recompute local parities over the zero-filled lost ranges.
  std::vector<int> local_parities;
  for (int i = 0; i < params_.r; ++i) local_parities.push_back(params_.k + i);
  for (const auto& [s, full_range] : report.normalize_stripes) {
    std::vector<codes::NodeView> views;
    const int base_id = s * params_.nodes_per_stripe();
    for (int m = 0; m < params_.nodes_per_stripe(); ++m) {
      auto node = nodes[static_cast<std::size_t>(base_id + m)];
      views.push_back(full_range
                          ? codes::full_view(node, block_size_)
                          : codes::range_view(node, block_size_, seg(),
                                              block_size_ - seg()));
    }
    local_->encode_parity_nodes(views, local_parities);
  }
}

RepairReport ApproximateCode::repair(std::span<std::span<std::uint8_t>> nodes,
                                     std::span<const int> erased) const {
  return repair(nodes, erased, RepairOptions{});
}

RepairReport ApproximateCode::repair(std::span<std::span<std::uint8_t>> nodes,
                                     std::span<const int> erased,
                                     RepairOptions options) const {
  RepairReport report = plan_repair(erased, options);
  execute(report, nodes);
  return report;
}

namespace {

// Scratch buffers standing in for erased nodes during a degraded read:
// rows elements of `len` bytes, contiguous.
struct Scratch {
  explicit Scratch(int rows, std::size_t len)
      : buffer(static_cast<std::size_t>(rows) * len), view{buffer.data(), len, len} {}
  AlignedBuffer buffer;
  codes::NodeView view;
};

}  // namespace

ApproximateCode::DegradedReadReport ApproximateCode::degraded_read_important(
    std::span<std::span<std::uint8_t>> nodes, std::span<const int> erased,
    std::size_t offset, std::span<std::uint8_t> out) const {
  APPROX_OBS_SPAN(span, "core.degraded_read.important");
  static obs::Counter& reads =
      obs::registry().counter("core.degraded_read.important.calls");
  reads.add();
  APPROX_REQUIRE(offset + out.size() <= important_capacity(),
                 "important read out of range");
  APPROX_REQUIRE(nodes.size() == static_cast<std::size_t>(total_nodes()),
                 "node span count mismatch");
  DegradedReadReport report;
  const bool even = params_.structure == Structure::Even;
  const std::size_t piece_cap = even ? seg() : block_size_;

  std::vector<bool> is_erased(static_cast<std::size_t>(total_nodes()), false);
  for (const int e : erased) {
    APPROX_REQUIRE(e >= 0 && e < total_nodes(), "erased node out of range");
    is_erased[static_cast<std::size_t>(e)] = true;
  }
  std::vector<int> virtual_global_erased;
  for (int t = 0; t < params_.g; ++t) {
    if (is_erased[static_cast<std::size_t>(global_parity_node_id(params_, t))]) {
      virtual_global_erased.push_back(params_.nodes_per_stripe() + t);
    }
  }

  std::size_t cursor = 0;
  while (cursor < out.size()) {
    const std::size_t pos = offset + cursor;
    const std::size_t elem_idx = pos / piece_cap;
    const std::size_t in_piece = pos % piece_cap;
    const std::size_t len = std::min(piece_cap - in_piece, out.size() - cursor);

    int stripe, j, row;
    if (even) {
      const std::size_t node_idx = elem_idx / static_cast<std::size_t>(rows_);
      row = static_cast<int>(elem_idx % static_cast<std::size_t>(rows_));
      stripe = static_cast<int>(node_idx) / params_.k;
      j = static_cast<int>(node_idx) % params_.k;
    } else {
      stripe = 0;
      j = static_cast<int>(elem_idx / static_cast<std::size_t>(rows_));
      row = static_cast<int>(elem_idx % static_cast<std::size_t>(rows_));
    }
    const int node = data_node_id(params_, stripe, j);

    if (!is_erased[static_cast<std::size_t>(node)]) {
      std::memcpy(out.data() + cursor,
                  nodes[static_cast<std::size_t>(node)].data() +
                      static_cast<std::size_t>(row) * block_size_ + in_piece,
                  len);
      report.bytes_direct += len;
      cursor += len;
      continue;
    }

    // Failed members of this stripe, in local coordinates.
    std::vector<int> local_ids;
    const int base_id = stripe * params_.nodes_per_stripe();
    for (int m = 0; m < params_.nodes_per_stripe(); ++m) {
      if (is_erased[static_cast<std::size_t>(base_id + m)]) local_ids.push_back(m);
    }

    auto build_views = [&](bool with_globals,
                           std::vector<std::unique_ptr<Scratch>>& scratch) {
      std::vector<codes::NodeView> views;
      for (int m = 0; m < params_.nodes_per_stripe(); ++m) {
        const int real = base_id + m;
        if (is_erased[static_cast<std::size_t>(real)]) {
          scratch.push_back(std::make_unique<Scratch>(rows_, len));
          views.push_back(scratch.back()->view);
        } else {
          views.push_back(codes::NodeView{
              nodes[static_cast<std::size_t>(real)].data() + in_piece, len,
              block_size_});
        }
      }
      if (with_globals) {
        for (int t = 0; t < params_.g; ++t) {
          const int real = global_parity_node_id(params_, t);
          if (is_erased[static_cast<std::size_t>(real)]) {
            scratch.push_back(std::make_unique<Scratch>(rows_, len));
            views.push_back(scratch.back()->view);
          } else {
            const std::size_t gbase =
                even ? static_cast<std::size_t>(stripe) * seg() + in_piece
                     : in_piece;
            views.push_back(codes::NodeView{
                nodes[static_cast<std::size_t>(real)].data() + gbase, len,
                block_size_});
          }
        }
      }
      return views;
    };

    auto local_plan = local_->plan_repair(local_ids);
    bool served = false;
    if (local_plan != nullptr) {
      std::vector<std::unique_ptr<Scratch>> scratch;
      auto views = build_views(/*with_globals=*/false, scratch);
      local_->apply_for_element(*local_plan, views, {j, row});
      std::memcpy(out.data() + cursor,
                  views[static_cast<std::size_t>(j)].elem(row), len);
      served = true;
    } else {
      std::vector<int> verased = local_ids;
      verased.insert(verased.end(), virtual_global_erased.begin(),
                     virtual_global_erased.end());
      auto base_plan = base_->plan_repair(verased);
      if (base_plan != nullptr) {
        std::vector<std::unique_ptr<Scratch>> scratch;
        auto views = build_views(/*with_globals=*/true, scratch);
        base_->apply_for_element(*base_plan, views, {j, row});
        std::memcpy(out.data() + cursor,
                    views[static_cast<std::size_t>(j)].elem(row), len);
        report.used_global_repair = true;
        served = true;
      }
    }
    if (served) {
      report.bytes_decoded += len;
    } else {
      std::memset(out.data() + cursor, 0, len);
      report.ok = false;
    }
    cursor += len;
  }
  return report;
}

ApproximateCode::DegradedReadReport ApproximateCode::degraded_read_unimportant(
    std::span<std::span<std::uint8_t>> nodes, std::span<const int> erased,
    std::size_t offset, std::span<std::uint8_t> out) const {
  APPROX_OBS_SPAN(span, "core.degraded_read.unimportant");
  static obs::Counter& reads =
      obs::registry().counter("core.degraded_read.unimportant.calls");
  reads.add();
  APPROX_REQUIRE(offset + out.size() <= unimportant_capacity(),
                 "unimportant read out of range");
  APPROX_REQUIRE(nodes.size() == static_cast<std::size_t>(total_nodes()),
                 "node span count mismatch");
  DegradedReadReport report;
  const bool even = params_.structure == Structure::Even;
  const std::size_t piece_cap = even ? block_size_ - seg() : block_size_;

  std::vector<bool> is_erased(static_cast<std::size_t>(total_nodes()), false);
  for (const int e : erased) {
    APPROX_REQUIRE(e >= 0 && e < total_nodes(), "erased node out of range");
    is_erased[static_cast<std::size_t>(e)] = true;
  }

  std::size_t cursor = 0;
  while (cursor < out.size()) {
    const std::size_t pos = offset + cursor;
    const std::size_t elem_idx = pos / piece_cap;
    const std::size_t in_piece = pos % piece_cap;
    const std::size_t len = std::min(piece_cap - in_piece, out.size() - cursor);

    const std::size_t node_idx = elem_idx / static_cast<std::size_t>(rows_);
    const int row = static_cast<int>(elem_idx % static_cast<std::size_t>(rows_));
    int stripe, j;
    if (even) {
      stripe = static_cast<int>(node_idx) / params_.k;
      j = static_cast<int>(node_idx) % params_.k;
    } else {
      stripe = 1 + static_cast<int>(node_idx) / params_.k;
      j = static_cast<int>(node_idx) % params_.k;
    }
    const std::size_t in_elem = even ? seg() + in_piece : in_piece;
    const int node = data_node_id(params_, stripe, j);

    if (!is_erased[static_cast<std::size_t>(node)]) {
      std::memcpy(out.data() + cursor,
                  nodes[static_cast<std::size_t>(node)].data() +
                      static_cast<std::size_t>(row) * block_size_ + in_elem,
                  len);
      report.bytes_direct += len;
      cursor += len;
      continue;
    }

    const int base_id = stripe * params_.nodes_per_stripe();
    std::vector<int> local_ids;
    for (int m = 0; m < params_.nodes_per_stripe(); ++m) {
      if (is_erased[static_cast<std::size_t>(base_id + m)]) local_ids.push_back(m);
    }
    auto local_plan = local_->plan_repair(local_ids);
    if (local_plan == nullptr) {
      // Beyond the local tolerance there is no unimportant protection.
      std::memset(out.data() + cursor, 0, len);
      report.ok = false;
      cursor += len;
      continue;
    }
    std::vector<std::unique_ptr<Scratch>> scratch;
    std::vector<codes::NodeView> views;
    for (int m = 0; m < params_.nodes_per_stripe(); ++m) {
      const int real = base_id + m;
      if (is_erased[static_cast<std::size_t>(real)]) {
        scratch.push_back(std::make_unique<Scratch>(rows_, len));
        views.push_back(scratch.back()->view);
      } else {
        views.push_back(codes::NodeView{
            nodes[static_cast<std::size_t>(real)].data() + in_elem, len,
            block_size_});
      }
    }
    local_->apply_for_element(*local_plan, views, {j, row});
    std::memcpy(out.data() + cursor, views[static_cast<std::size_t>(j)].elem(row),
                len);
    report.bytes_decoded += len;
    cursor += len;
  }
  return report;
}

ApproximateCode::ScrubReport ApproximateCode::scrub(
    std::span<std::span<std::uint8_t>> nodes) const {
  APPROX_REQUIRE(nodes.size() == static_cast<std::size_t>(total_nodes()),
                 "node span count mismatch");
  APPROX_OBS_SPAN(span, "core.scrub");
  ScrubReport report;

  std::vector<int> local_parities;
  for (int i = 0; i < params_.r; ++i) local_parities.push_back(params_.k + i);
  std::vector<int> global_parities;
  for (int t = 0; t < params_.g; ++t) {
    global_parities.push_back(params_.k + params_.r + t);
  }

  for (int s = 0; s < params_.h; ++s) {
    auto lviews = local_views(nodes, s);
    const auto local = local_->scrub(lviews, local_parities);
    for (const auto& e : local.mismatched) {
      report.mismatched.push_back(
          {s * params_.nodes_per_stripe() + e.node, e.row});
    }
    if (params_.structure == Structure::Uneven && s != 0) continue;
    auto vviews = virtual_views(nodes, s);
    const auto global = base_->scrub(vviews, global_parities);
    for (const auto& e : global.mismatched) {
      report.mismatched.push_back(
          {global_parity_node_id(params_, e.node - params_.nodes_per_stripe()),
           e.row});
    }
  }
  return report;
}

ApproximateCode::UpdateReport ApproximateCode::update_important(
    std::span<std::span<std::uint8_t>> nodes, std::size_t offset,
    std::span<const std::uint8_t> data) const {
  APPROX_REQUIRE(offset + data.size() <= important_capacity(),
                 "important update out of range");
  APPROX_REQUIRE(nodes.size() == static_cast<std::size_t>(total_nodes()),
                 "node span count mismatch");
  UpdateReport report;
  const bool even = params_.structure == Structure::Even;
  const std::size_t piece_cap = even ? seg() : block_size_;

  std::vector<int> local_parities;
  for (int i = 0; i < params_.r; ++i) local_parities.push_back(params_.k + i);
  std::vector<int> global_parities;
  for (int t = 0; t < params_.g; ++t) {
    global_parities.push_back(params_.k + params_.r + t);
  }

  std::size_t cursor = 0;
  while (cursor < data.size()) {
    const std::size_t pos = offset + cursor;
    const std::size_t elem_idx = pos / piece_cap;
    const std::size_t in_elem = pos % piece_cap;
    const std::size_t len = std::min(piece_cap - in_elem, data.size() - cursor);

    int stripe, j, row;
    if (even) {
      const std::size_t node_idx = elem_idx / static_cast<std::size_t>(rows_);
      row = static_cast<int>(elem_idx % static_cast<std::size_t>(rows_));
      stripe = static_cast<int>(node_idx) / params_.k;
      j = static_cast<int>(node_idx) % params_.k;
    } else {
      stripe = 0;
      j = static_cast<int>(elem_idx / static_cast<std::size_t>(rows_));
      row = static_cast<int>(elem_idx % static_cast<std::size_t>(rows_));
    }

    // Compute the delta, write the data, patch locals, patch globals.
    const int node = data_node_id(params_, stripe, j);
    std::uint8_t* target = nodes[static_cast<std::size_t>(node)].data() +
                           static_cast<std::size_t>(row) * block_size_ + in_elem;
    std::vector<std::uint8_t> delta(len);
    for (std::size_t i = 0; i < len; ++i) {
      delta[i] = static_cast<std::uint8_t>(target[i] ^ data[cursor + i]);
    }
    std::memcpy(target, data.data() + cursor, len);
    report.data_bytes_written += len;

    auto lviews = local_views(nodes, stripe);
    const int local_touched =
        local_->apply_update_delta(lviews, j, row, in_elem, delta, local_parities);
    auto vviews = virtual_views(nodes, stripe);
    const int global_touched =
        base_->apply_update_delta(vviews, j, row, in_elem, delta, global_parities);

    report.parity_elements_touched += local_touched + global_touched;
    report.parity_bytes_written +=
        static_cast<std::size_t>(local_touched + global_touched) * len;
    report.touched_globals |= global_touched > 0;
    cursor += len;
  }
  return report;
}

ApproximateCode::UpdateReport ApproximateCode::update_unimportant(
    std::span<std::span<std::uint8_t>> nodes, std::size_t offset,
    std::span<const std::uint8_t> data) const {
  APPROX_REQUIRE(offset + data.size() <= unimportant_capacity(),
                 "unimportant update out of range");
  APPROX_REQUIRE(nodes.size() == static_cast<std::size_t>(total_nodes()),
                 "node span count mismatch");
  UpdateReport report;
  const bool even = params_.structure == Structure::Even;
  const std::size_t piece_cap = even ? block_size_ - seg() : block_size_;

  std::vector<int> local_parities;
  for (int i = 0; i < params_.r; ++i) local_parities.push_back(params_.k + i);

  std::size_t cursor = 0;
  while (cursor < data.size()) {
    const std::size_t pos = offset + cursor;
    const std::size_t elem_idx = pos / piece_cap;
    const std::size_t in_piece = pos % piece_cap;
    const std::size_t len = std::min(piece_cap - in_piece, data.size() - cursor);

    const std::size_t node_idx = elem_idx / static_cast<std::size_t>(rows_);
    const int row = static_cast<int>(elem_idx % static_cast<std::size_t>(rows_));
    int stripe, j;
    if (even) {
      stripe = static_cast<int>(node_idx) / params_.k;
      j = static_cast<int>(node_idx) % params_.k;
    } else {
      stripe = 1 + static_cast<int>(node_idx) / params_.k;
      j = static_cast<int>(node_idx) % params_.k;
    }
    const std::size_t in_elem = even ? seg() + in_piece : in_piece;

    auto lviews = local_views(nodes, stripe);
    const int touched = local_->update_element(
        lviews, j, row, in_elem, data.subspan(cursor, len), local_parities);
    report.data_bytes_written += len;
    report.parity_elements_touched += touched;
    report.parity_bytes_written += static_cast<std::size_t>(touched) * len;
    cursor += len;
  }
  return report;
}

}  // namespace approx::core
