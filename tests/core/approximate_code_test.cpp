// End-to-end behaviour of the Approximate Code framework across families,
// structures and parameters: unequal protection semantics, scatter/gather
// geometry, global parity reconstruction and I/O accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/buffer.h"
#include "common/prng.h"
#include "codes/verify.h"
#include "core/approximate_code.h"

namespace approx::core {
namespace {

using codes::Family;

struct Fixture {
  explicit Fixture(const ApprParams& p, std::size_t block = 96)
      : code(p, block),
        buffers(code.total_nodes(), code.node_bytes()),
        important(code.important_capacity()),
        unimportant(code.unimportant_capacity()) {
    Rng rng(0x5eedu + static_cast<unsigned>(p.k));
    fill_random(important.data(), important.size(), rng);
    fill_random(unimportant.data(), unimportant.size(), rng);
    auto spans = buffers.spans();
    code.scatter(important, unimportant, spans);
    code.encode(spans);
    for (int n = 0; n < code.total_nodes(); ++n) {
      snapshot.emplace_back(buffers.node(n).begin(), buffers.node(n).end());
    }
  }

  RepairReport wipe_and_repair(const std::vector<int>& erased) {
    for (const int e : erased) buffers.clear_node(e);
    auto spans = buffers.spans();
    return code.repair(spans, erased);
  }

  bool node_matches(int n) const {
    return std::equal(buffers.node(n).begin(), buffers.node(n).end(),
                      snapshot[static_cast<std::size_t>(n)].begin());
  }

  // Gather and compare the important stream with the original.
  bool important_matches() {
    std::vector<std::uint8_t> imp(code.important_capacity());
    std::vector<std::uint8_t> unimp(code.unimportant_capacity());
    auto spans = buffers.spans();
    code.gather(spans, imp, unimp);
    return imp == important;
  }

  ApproximateCode code;
  StripeBuffers buffers;
  std::vector<std::uint8_t> important;
  std::vector<std::uint8_t> unimportant;
  std::vector<std::vector<std::uint8_t>> snapshot;
};

struct Config {
  Family family;
  int k, r, g, h;
  Structure structure;
};

std::string config_name(const testing::TestParamInfo<Config>& info) {
  const Config& c = info.param;
  return codes::family_name(c.family) + "_k" + std::to_string(c.k) + "_r" +
         std::to_string(c.r) + "_g" + std::to_string(c.g) + "_h" +
         std::to_string(c.h) + "_" + structure_name(c.structure);
}

class ApprCodeTest : public testing::TestWithParam<Config> {
 protected:
  ApprParams params() const {
    const Config& c = GetParam();
    return ApprParams{c.family, c.k, c.r, c.g, c.h, c.structure};
  }
};

TEST_P(ApprCodeTest, EncodeMakesEveryStripeLocallyConsistent) {
  Fixture fx(params());
  // Wiping any single local parity node and re-repairing restores it.
  const ApprParams p = fx.code.params();
  for (int s = 0; s < p.h; ++s) {
    const int lp = local_parity_node_id(p, s, 0);
    auto report = fx.wipe_and_repair({lp});
    EXPECT_TRUE(report.fully_recovered);
    EXPECT_TRUE(fx.node_matches(lp));
  }
}

TEST_P(ApprCodeTest, LocalToleranceRepairsEverything) {
  // Any r failures inside one stripe: full repair, no data loss.
  Fixture fx(params());
  const ApprParams p = fx.code.params();
  std::vector<int> erased;
  for (int i = 0; i < p.r; ++i) erased.push_back(data_node_id(p, 1 % p.h, i));
  auto report = fx.wipe_and_repair(erased);
  EXPECT_TRUE(report.fully_recovered);
  EXPECT_EQ(report.unimportant_data_bytes_lost, 0u);
  EXPECT_EQ(report.important_data_bytes_lost, 0u);
  for (int n = 0; n < fx.code.total_nodes(); ++n) EXPECT_TRUE(fx.node_matches(n));
}

TEST_P(ApprCodeTest, FailuresSpreadAcrossStripesRepairLocally) {
  // One failure per stripe stays within every local tolerance.
  Fixture fx(params());
  const ApprParams p = fx.code.params();
  std::vector<int> erased;
  for (int s = 0; s < p.h; ++s) erased.push_back(data_node_id(p, s, s % p.k));
  auto report = fx.wipe_and_repair(erased);
  EXPECT_TRUE(report.fully_recovered);
  for (int n = 0; n < fx.code.total_nodes(); ++n) EXPECT_TRUE(fx.node_matches(n));
  for (const auto& so : report.stripes) {
    EXPECT_NE(so.kind, StripeOutcome::Kind::ImportantOnlyRepair);
    EXPECT_NE(so.kind, StripeOutcome::Kind::Unrecoverable);
  }
}

TEST_P(ApprCodeTest, BeyondLocalToleranceRecoversImportantData) {
  // r+g failures concentrated in one stripe: important data always
  // recovered; unimportant data of that stripe's failed data nodes lost
  // (Even) or lost/absent per structure.
  Fixture fx(params());
  const ApprParams p = fx.code.params();
  std::vector<int> erased;
  for (int i = 0; i < p.r + p.g && i < p.k; ++i) erased.push_back(data_node_id(p, 0, i));
  auto report = fx.wipe_and_repair(erased);
  EXPECT_TRUE(report.all_important_recovered) << fx.code.name();
  EXPECT_TRUE(fx.important_matches()) << fx.code.name();
  if (p.structure == Structure::Even) {
    EXPECT_FALSE(report.fully_recovered);
    EXPECT_GT(report.unimportant_data_bytes_lost, 0u);
  } else {
    // Stripe 0 is fully important: everything is rebuilt.
    EXPECT_TRUE(report.fully_recovered);
    for (int n = 0; n < fx.code.total_nodes(); ++n) EXPECT_TRUE(fx.node_matches(n));
  }
}

TEST_P(ApprCodeTest, GlobalParityLossIsReencoded) {
  Fixture fx(params());
  const ApprParams p = fx.code.params();
  std::vector<int> erased;
  for (int t = 0; t < p.g; ++t) erased.push_back(global_parity_node_id(p, t));
  auto report = fx.wipe_and_repair(erased);
  EXPECT_TRUE(report.fully_recovered);
  for (int n = 0; n < fx.code.total_nodes(); ++n) EXPECT_TRUE(fx.node_matches(n));
}

TEST_P(ApprCodeTest, MixedDataAndGlobalFailure) {
  // r data failures in one stripe + one global node.
  Fixture fx(params());
  const ApprParams p = fx.code.params();
  std::vector<int> erased{global_parity_node_id(p, 0)};
  for (int i = 0; i < p.r; ++i) erased.push_back(data_node_id(p, 0, i));
  auto report = fx.wipe_and_repair(erased);
  EXPECT_TRUE(report.fully_recovered) << fx.code.name();
  for (int n = 0; n < fx.code.total_nodes(); ++n) EXPECT_TRUE(fx.node_matches(n));
}

TEST_P(ApprCodeTest, ScatterGatherRoundtrip) {
  Fixture fx(params());
  EXPECT_TRUE(fx.important_matches());
  std::vector<std::uint8_t> imp(fx.code.important_capacity());
  std::vector<std::uint8_t> unimp(fx.code.unimportant_capacity());
  auto spans = fx.buffers.spans();
  fx.code.gather(spans, imp, unimp);
  EXPECT_EQ(unimp, fx.unimportant);
}

TEST_P(ApprCodeTest, AccountingIsConsistent) {
  Fixture fx(params());
  const ApprParams p = fx.code.params();
  std::vector<int> erased;
  for (int i = 0; i < p.r + p.g && i < p.k; ++i) erased.push_back(data_node_id(p, 0, i));
  auto report = fx.code.plan_repair(erased);
  const std::size_t sum = std::accumulate(report.bytes_read_per_node.begin(),
                                          report.bytes_read_per_node.end(),
                                          std::size_t{0});
  EXPECT_EQ(sum, report.bytes_read);
  // Failed nodes are never read from.
  for (const int e : erased) {
    EXPECT_EQ(report.bytes_read_per_node[static_cast<std::size_t>(e)], 0u);
  }
  EXPECT_GT(report.bytes_written, 0u);
}

const Config kConfigs[] = {
    {Family::RS, 4, 1, 2, 3, Structure::Even},
    {Family::RS, 4, 1, 2, 3, Structure::Uneven},
    {Family::RS, 5, 2, 1, 4, Structure::Even},
    {Family::RS, 5, 2, 1, 4, Structure::Uneven},
    {Family::LRC, 6, 1, 2, 4, Structure::Even},
    {Family::LRC, 6, 1, 2, 4, Structure::Uneven},
    {Family::STAR, 5, 1, 2, 4, Structure::Even},
    {Family::STAR, 5, 1, 2, 4, Structure::Uneven},
    {Family::STAR, 5, 2, 1, 4, Structure::Even},
    {Family::STAR, 5, 2, 1, 3, Structure::Uneven},
    {Family::TIP, 5, 1, 2, 4, Structure::Even},
    {Family::TIP, 5, 1, 2, 6, Structure::Uneven},
    {Family::TIP, 3, 2, 1, 3, Structure::Even},
    {Family::CRS, 5, 1, 2, 4, Structure::Even},
    {Family::CRS, 4, 2, 1, 3, Structure::Uneven},
};

INSTANTIATE_TEST_SUITE_P(AllFamilies, ApprCodeTest, testing::ValuesIn(kConfigs),
                         config_name);

// With h = 1 every byte is important, so a failure pattern that needs the
// virtual (global) plan still restores the whole volume: no holes, no
// parity normalization, and a report that says so.
TEST(ApprCodeH1, ImportantOnlyRepairIsAFullRestore) {
  const ApprParams p{Family::RS, 4, 2, 1, 1, Structure::Even};
  Fixture fx(p);
  ASSERT_EQ(fx.code.unimportant_capacity(), 0u);
  const std::vector<int> erased = {0, 1, 4};
  const RepairReport plan = fx.code.plan_repair(erased);
  EXPECT_TRUE(plan.fully_recovered);
  EXPECT_TRUE(plan.normalize_stripes.empty());
  EXPECT_EQ(plan.unimportant_data_bytes_lost, 0u);
  const RepairReport report = fx.wipe_and_repair(erased);
  EXPECT_TRUE(report.fully_recovered);
  EXPECT_TRUE(report.normalize_stripes.empty());
  for (int n = 0; n < fx.code.total_nodes(); ++n) {
    EXPECT_TRUE(fx.node_matches(n)) << "node " << n;
  }
}

// Exhaustive unequal-protection sweep on a small instance: for EVERY double
// failure pattern, important data must be recoverable; for every single
// pattern, everything must be.
TEST(ApprCodeExhaustive, DoubleFailuresAlwaysRecoverImportantData) {
  const ApprParams p{Family::RS, 3, 1, 2, 3, Structure::Even};
  ApproximateCode code(p, 48);
  const int n = code.total_nodes();
  codes::for_each_subset(n, 2, [&](const std::vector<int>& erased) {
    Fixture fx(p, 48);
    auto report = fx.wipe_and_repair(erased);
    EXPECT_TRUE(report.all_important_recovered)
        << "erased " << erased[0] << "," << erased[1];
    EXPECT_TRUE(fx.important_matches());
    return true;
  });
}

// For every family, every failure pattern up to r+g nodes (including
// local/global parities in any mix) must keep important data recoverable -
// the framework's central guarantee, proven by enumeration.
TEST(ApprCodeExhaustive, AllFamiliesAllPatternsUpToTolerance) {
  const Config configs[] = {
      {Family::RS, 3, 1, 2, 3, Structure::Even},
      {Family::RS, 3, 2, 1, 3, Structure::Uneven},
      {Family::STAR, 3, 1, 2, 3, Structure::Even},
      {Family::TIP, 3, 1, 2, 3, Structure::Uneven},
      {Family::CRS, 3, 1, 2, 3, Structure::Even},
      {Family::LRC, 3, 1, 2, 3, Structure::Uneven},
  };
  for (const Config& c : configs) {
    const ApprParams p{c.family, c.k, c.r, c.g, c.h, c.structure};
    ApproximateCode code(p, 24);
    for (int f = 1; f <= p.r + p.g; ++f) {
      codes::for_each_subset(code.total_nodes(), f,
                             [&](const std::vector<int>& erased) {
                               const auto report = code.plan_repair(erased);
                               EXPECT_TRUE(report.all_important_recovered)
                                   << p.name() << " f=" << f;
                               if (f <= p.r) {
                                 EXPECT_TRUE(report.fully_recovered)
                                     << p.name() << " f=" << f;
                               }
                               return true;
                             });
    }
  }
}

TEST(ApprCodeExhaustive, TripleFailuresAlwaysRecoverImportantData) {
  const ApprParams p{Family::RS, 3, 1, 2, 3, Structure::Uneven};
  ApproximateCode code(p, 48);
  codes::for_each_subset(code.total_nodes(), 3, [&](const std::vector<int>& erased) {
    Fixture fx(p, 48);
    auto report = fx.wipe_and_repair(erased);
    EXPECT_TRUE(report.all_important_recovered)
        << "erased " << erased[0] << "," << erased[1] << "," << erased[2];
    EXPECT_TRUE(fx.important_matches());
    return true;
  });
}

}  // namespace
}  // namespace approx::core
