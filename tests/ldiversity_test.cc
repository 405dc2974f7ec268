#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/incognito.h"
#include "core/ldiversity.h"
#include "data/patients.h"
#include "freq/frequency_set.h"
#include "lattice/lattice.h"
#include "test_util.h"

namespace incognito {
namespace {

using testing_util::NodeSet;

class LDiversityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<PatientsDataset> ds = MakePatientsDataset();
    ASSERT_TRUE(ds.ok());
    table_ = std::move(ds->table);
    qid_ = std::move(ds->qid);
    disease_col_ =
        static_cast<size_t>(table_.schema().FindColumn("Disease"));
  }

  Table table_;
  QuasiIdentifier qid_;
  size_t disease_col_ = 0;
};

// ---------------------------------------------------------------------------
// The node ∪ {S} frequency set and its grouped (k, ℓ) check
// ---------------------------------------------------------------------------

/// (count, distinct) per QID group, in canonical order.
std::vector<std::pair<int64_t, int64_t>> QidGroups(const FrequencySet& fs) {
  std::vector<std::pair<int64_t, int64_t>> out;
  fs.ForEachQidGroup([&](const int32_t* codes, int64_t count,
                         int64_t distinct) {
    (void)codes;
    out.emplace_back(count, distinct);
  });
  return out;
}

TEST_F(LDiversityTest, ComputeTracksDistinctSensitive) {
  // Group by <S1, Z0>: three groups of 2 tuples; all diseases distinct, so
  // every group has 2 distinct sensitive values.
  FrequencySet fs = ComputeSensitiveSet(
      table_, qid_, SubsetNode({1, 2}, {1, 0}), disease_col_);
  EXPECT_EQ(QidGroups(fs).size(), 3u);
  EXPECT_EQ(fs.TotalCount(), 6);
  for (const auto& [count, distinct] : QidGroups(fs)) {
    EXPECT_EQ(count, 2);
    EXPECT_EQ(distinct, 2);
  }
  EXPECT_EQ(fs.TuplesViolating(1, 2), 0);  // 2-diverse
  EXPECT_GT(fs.TuplesViolating(1, 3), 0);  // not 3-diverse
  EXPECT_EQ(fs.TuplesViolating(2, 2), 0);
  EXPECT_GT(fs.TuplesViolating(3, 2), 0);
}

TEST_F(LDiversityTest, RollupUnionsSensitiveSets) {
  const QuasiIdentifier keyed = qid_.WithSensitive(table_, disease_col_);
  FrequencySet base = ComputeSensitiveSet(table_, qid_,
                                          SubsetNode({1, 2}, {0, 0}),
                                          disease_col_);
  // S stays at level 0 while Sex and Zip generalize.
  FrequencySet rolled = base.RollupTo(SubsetNode({1, 2, 3}, {1, 2, 0}), keyed);
  // Fully generalized over Sex and Zip: one group, 6 tuples, 6 diseases.
  ASSERT_EQ(QidGroups(rolled).size(), 1u);
  EXPECT_EQ(QidGroups(rolled)[0], std::make_pair(int64_t{6}, int64_t{6}));
  EXPECT_EQ(rolled.TuplesViolating(1, 6), 0);
}

TEST_F(LDiversityTest, RollupMatchesDirectComputation) {
  const QuasiIdentifier keyed = qid_.WithSensitive(table_, disease_col_);
  FrequencySet base = ComputeSensitiveSet(
      table_, qid_, SubsetNode({0, 1, 2}, {0, 0, 0}), disease_col_);
  for (int32_t b = 0; b <= 1; ++b) {
    for (int32_t s = 0; s <= 1; ++s) {
      for (int32_t z = 0; z <= 2; ++z) {
        SubsetNode target({0, 1, 2}, {b, s, z});
        FrequencySet rolled =
            base.RollupTo(SubsetNode({0, 1, 2, 3}, {b, s, z, 0}), keyed);
        FrequencySet direct =
            ComputeSensitiveSet(table_, qid_, target, disease_col_);
        EXPECT_EQ(QidGroups(rolled), QidGroups(direct)) << target.ToString();
        for (int64_t k = 1; k <= 3; ++k) {
          for (int64_t l = 1; l <= 3; ++l) {
            EXPECT_EQ(rolled.TuplesViolating(k, l),
                      direct.TuplesViolating(k, l))
                << target.ToString() << " k=" << k << " l=" << l;
            EXPECT_EQ(direct.TuplesViolating(k, l),
                      testing_util::DiversityViolations(
                          table_, qid_, target, disease_col_, k, l))
                << target.ToString() << " k=" << k << " l=" << l;
          }
        }
      }
    }
  }
}

TEST(LDiversityWideTest, VectorKeysMatchOracle) {
  // Five 12-bit QID fields plus a 12-bit S need 72 key bits, beyond the
  // packed keys: node ∪ {S} at the all-zero node takes the vector-key path.
  testing_util::RandomDataset data =
      testing_util::MakeWideFallbackDataset(120);
  const QuasiIdentifier qid = data.qid.Prefix(5);
  const size_t sensitive = data.qid.column(5);
  GeneralizationLattice lattice(qid.MaxLevels());
  for (const LevelVector& v : lattice.AllNodesByHeight()) {
    SubsetNode node = SubsetNode::Full(v);
    FrequencySet fs = ComputeSensitiveSet(data.table, qid, node, sensitive);
    int64_t groups = 0;
    fs.ForEachQidGroup([&](const int32_t*, int64_t, int64_t) { ++groups; });
    EXPECT_EQ(groups, static_cast<int64_t>(testing_util::SensitiveGroups(
                                               data.table, qid, node,
                                               sensitive)
                                               .size()));
    for (int64_t k = 1; k <= 3; ++k) {
      for (int64_t l = 1; l <= 3; ++l) {
        EXPECT_EQ(fs.TuplesViolating(k, l),
                  testing_util::DiversityViolations(data.table, qid, node,
                                                    sensitive, k, l))
            << node.ToString() << " k=" << k << " l=" << l;
      }
    }
  }
}

TEST_F(LDiversityTest, SuppressionBudget) {
  // <S0, Z0>: singleton groups have 1 distinct disease each (2 violating
  // tuples at l=2 among groups of size >= 2? counts: 1,1,2,2; the two
  // 2-groups have 2 distinct diseases).
  FrequencySet fs = ComputeSensitiveSet(
      table_, qid_, SubsetNode({1, 2}, {0, 0}), disease_col_);
  EXPECT_EQ(fs.TuplesViolating(1, 2), 2);  // the two singletons
  // The search admits <B1, S0, Z0> (the same groups) within a budget of
  // two suppressed tuples, and not within one.
  LDiversityConfig config;
  config.k = 1;
  config.l = 2;
  config.sensitive_attribute = "Disease";
  const std::string node = SubsetNode::Full({1, 0, 0}).ToString();
  config.max_suppressed = 2;
  PartialResult<LDiversityResult> within =
      RunLDiversityIncognito(table_, qid_, config);
  ASSERT_TRUE(within.ok());
  EXPECT_EQ(NodeSet(within->diverse_nodes).count(node), 1u);
  config.max_suppressed = 1;
  PartialResult<LDiversityResult> over =
      RunLDiversityIncognito(table_, qid_, config);
  ASSERT_TRUE(over.ok());
  EXPECT_EQ(NodeSet(over->diverse_nodes).count(node), 0u);
}

// ---------------------------------------------------------------------------
// RunLDiversityIncognito
// ---------------------------------------------------------------------------

TEST_F(LDiversityTest, MatchesBruteForce) {
  LDiversityConfig config;
  config.k = 2;
  config.l = 2;
  config.sensitive_attribute = "Disease";
  PartialResult<LDiversityResult> r = RunLDiversityIncognito(table_, qid_, config);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  AnonymizationConfig kconfig;
  kconfig.k = config.k;
  const std::set<std::string> oracle = testing_util::DiversityOracle(
      table_, qid_, kconfig, disease_col_, config.l);
  EXPECT_EQ(NodeSet(r->diverse_nodes), oracle);
  EXPECT_FALSE(oracle.empty());
}

TEST_F(LDiversityTest, DiversitySubsetOfAnonymity) {
  // Every (k=2, l=2)-diverse node is 2-anonymous (diversity only adds a
  // constraint).
  LDiversityConfig lconfig;
  lconfig.k = 2;
  lconfig.l = 2;
  lconfig.sensitive_attribute = "Disease";
  PartialResult<LDiversityResult> lr = RunLDiversityIncognito(table_, qid_, lconfig);
  ASSERT_TRUE(lr.ok());
  AnonymizationConfig kconfig;
  kconfig.k = 2;
  PartialResult<IncognitoResult> kr = RunIncognito(table_, qid_, kconfig);
  ASSERT_TRUE(kr.ok());
  std::set<std::string> anonymous = NodeSet(kr->anonymous_nodes);
  for (const SubsetNode& node : lr->diverse_nodes) {
    EXPECT_TRUE(anonymous.count(node.ToString()) > 0) << node.ToString();
  }
}

TEST_F(LDiversityTest, HighLOnlyTopOrNothing) {
  LDiversityConfig config;
  config.l = 6;  // needs all six diseases in every group
  config.sensitive_attribute = "Disease";
  PartialResult<LDiversityResult> r = RunLDiversityIncognito(table_, qid_, config);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->diverse_nodes.size(), 1u);
  EXPECT_EQ(r->diverse_nodes[0].ToString(), "<d0:1, d1:1, d2:2>");

  config.l = 7;  // impossible
  r = RunLDiversityIncognito(table_, qid_, config);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->diverse_nodes.empty());
}

TEST_F(LDiversityTest, LEqualsOneReducesToKAnonymity) {
  LDiversityConfig config;
  config.k = 2;
  config.l = 1;
  config.sensitive_attribute = "Disease";
  PartialResult<LDiversityResult> lr = RunLDiversityIncognito(table_, qid_, config);
  ASSERT_TRUE(lr.ok());
  AnonymizationConfig kconfig;
  kconfig.k = 2;
  PartialResult<IncognitoResult> kr = RunIncognito(table_, qid_, kconfig);
  ASSERT_TRUE(kr.ok());
  EXPECT_EQ(NodeSet(lr->diverse_nodes), NodeSet(kr->anonymous_nodes));
}

TEST_F(LDiversityTest, RejectsBadConfig) {
  LDiversityConfig config;
  config.sensitive_attribute = "Disease";
  config.k = 0;
  EXPECT_FALSE(RunLDiversityIncognito(table_, qid_, config).ok());
  config.k = 2;
  config.l = 0;
  EXPECT_FALSE(RunLDiversityIncognito(table_, qid_, config).ok());
  config.l = 2;
  config.sensitive_attribute = "NoSuchColumn";
  EXPECT_FALSE(RunLDiversityIncognito(table_, qid_, config).ok());
  // Sensitive attribute inside the QID is rejected.
  config.sensitive_attribute = "Sex";
  EXPECT_EQ(RunLDiversityIncognito(table_, qid_, config).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(LDiversityTest, DiverseRecoderPublishesValidView) {
  LDiversityConfig config;
  config.k = 2;
  config.l = 2;
  config.sensitive_attribute = "Disease";
  PartialResult<LDiversityResult> r = RunLDiversityIncognito(table_, qid_, config);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->diverse_nodes.empty());
  for (const SubsetNode& node : r->diverse_nodes) {
    Result<DiverseRecodeResult> view =
        ApplyDiverseGeneralization(table_, qid_, node, config);
    ASSERT_TRUE(view.ok()) << node.ToString();
    EXPECT_EQ(view->suppressed_tuples, 0);  // search used zero budget
    // Every class of the released view satisfies both bounds.
    EXPECT_EQ(testing_util::DiversityViolations(table_, qid_, node,
                                                disease_col_, config.k,
                                                config.l),
              0);
  }
}

TEST_F(LDiversityTest, DiverseRecoderSuppressesWithinBudget) {
  LDiversityConfig config;
  config.k = 2;
  config.l = 2;
  config.max_suppressed = 2;
  config.sensitive_attribute = "Disease";
  // <S0, Z0> (as full-QID <B1,S0,Z0>) has two singleton groups.
  Result<DiverseRecodeResult> view = ApplyDiverseGeneralization(
      table_, qid_, SubsetNode::Full({1, 0, 0}), config);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->suppressed_tuples, 2);
  EXPECT_EQ(view->view.num_rows(), 4u);
}

TEST_F(LDiversityTest, DiverseRecoderRejectsOverBudget) {
  LDiversityConfig config;
  config.k = 2;
  config.l = 2;
  config.sensitive_attribute = "Disease";
  Result<DiverseRecodeResult> view = ApplyDiverseGeneralization(
      table_, qid_, SubsetNode::Full({0, 0, 0}), config);
  EXPECT_EQ(view.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(LDiversityTest, DiverseRecoderRejectsMalformedNodes) {
  LDiversityConfig config;
  config.k = 2;
  config.l = 2;
  config.sensitive_attribute = "Disease";
  // Partial QID.
  EXPECT_EQ(ApplyDiverseGeneralization(table_, qid_, SubsetNode({0, 1}, {1, 1}),
                                       config)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Level out of range.
  EXPECT_EQ(ApplyDiverseGeneralization(table_, qid_,
                                       SubsetNode::Full({5, 1, 0}), config)
                .status()
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(ApplyDiverseGeneralization(table_, qid_,
                                       SubsetNode::Full({1, -1, 0}), config)
                .status()
                .code(),
            StatusCode::kOutOfRange);
  // Wrong dims.
  EXPECT_EQ(ApplyDiverseGeneralization(
                table_, qid_, SubsetNode({0, 1, 3}, {1, 1, 0}), config)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(LDiversityRandomTest, MonotoneUnderGeneralization) {
  // The property that justifies reusing Incognito's search: if a node is
  // (k,l)-diverse, so are its direct generalizations.
  Rng rng(4242);
  for (int trial = 0; trial < 5; ++trial) {
    testing_util::RandomDatasetOptions opts;
    opts.num_attrs = 3;
    opts.num_rows = 60;
    testing_util::RandomDataset ds = testing_util::MakeRandomDataset(rng, opts);
    // Use attr2 as sensitive: rebuild a 2-attribute QID from the first two.
    QuasiIdentifier qid2 = ds.qid.Prefix(2);
    size_t sensitive_col = ds.qid.column(2);
    GeneralizationLattice lattice(qid2.MaxLevels());
    for (const LevelVector& v : lattice.AllNodesByHeight()) {
      SubsetNode node = SubsetNode::Full(v);
      if (testing_util::DiversityViolations(ds.table, qid2, node,
                                            sensitive_col, 2, 2) > 0) {
        continue;
      }
      for (const LevelVector& g : lattice.DirectGeneralizations(v)) {
        EXPECT_EQ(testing_util::DiversityViolations(
                      ds.table, qid2, SubsetNode::Full(g), sensitive_col, 2,
                      2),
                  0);
      }
    }
  }
}

}  // namespace
}  // namespace incognito
