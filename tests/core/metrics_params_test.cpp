// ApprParams layout helpers and the analytic metrics against the paper's
// closed forms (Table 3).
#include <gtest/gtest.h>

#include "core/metrics.h"

namespace approx::core {
namespace {

using codes::Family;

TEST(ApprParams, Validation) {
  ApprParams ok{Family::RS, 4, 1, 2, 4, Structure::Even};
  EXPECT_NO_THROW(ok.validate());

  ApprParams bad = ok;
  bad.r = 0;
  EXPECT_THROW(bad.validate(), InvalidArgument);
  bad = ok;
  bad.r = 2;
  bad.g = 2;  // r+g > 3
  EXPECT_THROW(bad.validate(), InvalidArgument);
  bad = ok;
  bad.family = Family::STAR;
  bad.k = 9;  // not prime
  EXPECT_THROW(bad.validate(), InvalidArgument);
  bad = ok;
  bad.h = 0;
  EXPECT_THROW(bad.validate(), InvalidArgument);
  bad = ok;
  bad.g = 0;  // an Approximate Code needs a global parity
  EXPECT_THROW(bad.validate(), InvalidArgument);

  // With a block size the layout is checked too.
  EXPECT_NO_THROW(ok.validate(4096));
  EXPECT_THROW(ok.validate(0), InvalidArgument);
  bad = ok;
  bad.h = 3;  // Even: the block must split into h equal segments
  EXPECT_THROW(bad.validate(4096), InvalidArgument);
  EXPECT_NO_THROW(bad.validate(4095));
  bad.structure = Structure::Uneven;
  EXPECT_NO_THROW(bad.validate(4096));
}

TEST(ApprParams, NodeCountsAndName) {
  ApprParams p{Family::STAR, 5, 2, 1, 4, Structure::Uneven};
  EXPECT_EQ(p.nodes_per_stripe(), 7);
  EXPECT_EQ(p.total_nodes(), 29);
  EXPECT_EQ(p.total_data_nodes(), 20);
  EXPECT_EQ(p.total_parity_nodes(), 9);
  EXPECT_EQ(p.name(), "APPR.STAR(5,2,1,4,Uneven)");
}

TEST(ApprParams, RoleMappingRoundtrip) {
  ApprParams p{Family::RS, 3, 2, 1, 3, Structure::Even};
  // Walk every node and verify the role helpers agree.
  int data = 0, local = 0, global = 0;
  for (int n = 0; n < p.total_nodes(); ++n) {
    const auto role = node_role(p, n);
    switch (role.kind) {
      case NodeRole::Kind::Data:
        EXPECT_EQ(data_node_id(p, role.stripe, role.index), n);
        ++data;
        break;
      case NodeRole::Kind::LocalParity:
        EXPECT_EQ(local_parity_node_id(p, role.stripe, role.index), n);
        ++local;
        break;
      case NodeRole::Kind::GlobalParity:
        EXPECT_EQ(global_parity_node_id(p, role.index), n);
        EXPECT_EQ(role.stripe, -1);
        ++global;
        break;
    }
  }
  EXPECT_EQ(data, 9);
  EXPECT_EQ(local, 6);
  EXPECT_EQ(global, 1);
  EXPECT_THROW(node_role(p, p.total_nodes()), InvalidArgument);
}

TEST(Metrics, StorageOverheadIsGeometry) {
  const ApprParams p{Family::RS, 4, 1, 2, 4, Structure::Even};
  const auto m = appr_metrics(p);
  // N / (h*k) = (4*5 + 2) / 16
  EXPECT_DOUBLE_EQ(m.storage_overhead, 22.0 / 16.0);
  EXPECT_EQ(m.fault_tolerance_important, 3);
  EXPECT_EQ(m.fault_tolerance_unimportant, 1);
}

TEST(Metrics, ApprRsSingleWriteMatchesPaperFormula) {
  for (const int h : {3, 4, 6}) {
    for (const auto& [r, g] : {std::pair{1, 2}, std::pair{2, 1}}) {
      const ApprParams p{Family::RS, 6, r, g, h, Structure::Even};
      EXPECT_NEAR(appr_metrics(p).avg_single_write_cost,
                  paper_single_write_appr_rs(r, g, h), 1e-12)
          << p.name();
    }
  }
}

TEST(Metrics, ApprStarSingleWriteDecomposes) {
  // Generic computation = EVENODD local part + (STAR - EVENODD) / h.
  const int p_prime = 7;
  const ApprParams p{Family::STAR, p_prime, 2, 1, 4, Structure::Even};
  const double evenodd = 4.0 - 2.0 / p_prime;
  const double star = 6.0 - 4.0 / p_prime;
  EXPECT_NEAR(appr_metrics(p).avg_single_write_cost,
              evenodd + (star - evenodd) / 4.0, 1e-12);
}

TEST(Metrics, BaseMetricsAgreeWithPaperRows) {
  EXPECT_DOUBLE_EQ(paper_single_write_rs(9, 3), 4.0);
  EXPECT_DOUBLE_EQ(paper_single_write_lrc(2), 4.0);
  EXPECT_NEAR(paper_single_write_star(7), 6.0 - 4.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(paper_single_write_tip(), 4.0);
  EXPECT_DOUBLE_EQ(paper_single_write_appr_lrc(2, 4), 2.5);
  EXPECT_NEAR(paper_single_write_appr_tip(6), 2.0 + 2.0 / 6.0, 1e-12);
}

TEST(Metrics, CrsFamilyMetricsAreFinite) {
  const ApprParams p{Family::CRS, 6, 1, 2, 4, Structure::Even};
  const auto m = appr_metrics(p);
  EXPECT_GT(m.avg_single_write_cost, 1.0);
  // CRS bit-matrix rows touch several parity elements per update; still
  // bounded by 1 + (r + g) * rows.
  EXPECT_LT(m.avg_single_write_cost, 1.0 + 3.0 * 8.0);
}

}  // namespace
}  // namespace approx::core
