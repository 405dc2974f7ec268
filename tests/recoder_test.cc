#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "common/random.h"
#include "core/ldiversity.h"
#include "core/recoder.h"
#include "data/patients.h"
#include "freq/frequency_set.h"
#include "freq/key_codec.h"
#include "metrics/metrics.h"
#include "relation/csv.h"
#include "test_util.h"

namespace incognito {
namespace {

class RecoderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<PatientsDataset> ds = MakePatientsDataset();
    ASSERT_TRUE(ds.ok());
    table_ = std::move(ds->table);
    qid_ = std::move(ds->qid);
  }

  Table table_;
  QuasiIdentifier qid_;
};

TEST_F(RecoderTest, AppliesMinimalGeneralization) {
  AnonymizationConfig config;
  config.k = 2;
  // <B1, S1, Z0>: Birthdate and Sex suppressed, Zipcode intact.
  Result<RecodeResult> r = ApplyFullDomainGeneralization(
      table_, qid_, SubsetNode::Full({1, 1, 0}), config);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->suppressed_tuples, 0);
  EXPECT_EQ(r->view.num_rows(), 6u);
  // Full-domain property: every Birthdate is '*', every Sex is 'Person'.
  for (size_t row = 0; row < r->view.num_rows(); ++row) {
    EXPECT_EQ(r->view.GetValue(row, 0), Value("*"));
    EXPECT_EQ(r->view.GetValue(row, 1), Value("Person"));
  }
  // Zipcode (level 0) keeps its original int values.
  EXPECT_EQ(r->view.schema().column(2).type, DataType::kInt64);
  EXPECT_EQ(r->view.GetValue(0, 2), Value(int64_t{53715}));
  // Disease (non-QID) carried through unchanged.
  EXPECT_EQ(r->view.GetValue(0, 3), Value("Flu"));
}

TEST_F(RecoderTest, ViewIsKAnonymous) {
  AnonymizationConfig config;
  config.k = 2;
  Result<RecodeResult> r = ApplyFullDomainGeneralization(
      table_, qid_, SubsetNode::Full({1, 1, 0}), config);
  ASSERT_TRUE(r.ok());
  Result<std::vector<int64_t>> sizes =
      ClassSizes(r->view, {"Birthdate", "Sex", "Zipcode"});
  ASSERT_TRUE(sizes.ok());
  for (int64_t size : *sizes) EXPECT_GE(size, 2);
}

TEST_F(RecoderTest, GeneralizedLabelsAreAncestors) {
  AnonymizationConfig config;
  config.k = 2;
  Result<RecodeResult> r = ApplyFullDomainGeneralization(
      table_, qid_, SubsetNode::Full({0, 1, 1}), config);
  // <B0,S1,Z1>: is it 2-anonymous? Groups by (birthdate, Person, 5371x):
  // (1/21/76, 5371*)=1 → NOT 2-anonymous; expect failure.
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(RecoderTest, ZipcodeLevelOneLabels) {
  AnonymizationConfig config;
  config.k = 2;
  Result<RecodeResult> r = ApplyFullDomainGeneralization(
      table_, qid_, SubsetNode::Full({1, 1, 1}), config);
  ASSERT_TRUE(r.ok());
  std::set<std::string> zips;
  for (size_t row = 0; row < r->view.num_rows(); ++row) {
    zips.insert(r->view.GetValue(row, 2).ToString());
  }
  EXPECT_EQ(zips, (std::set<std::string>{"5371*", "5370*"}));
}

TEST_F(RecoderTest, SuppressionRemovesOutliers) {
  AnonymizationConfig config;
  config.k = 2;
  config.max_suppressed = 2;
  // <B1,S0,Z0> leaves two singleton groups; with budget 2 they are
  // suppressed and the rest is released.
  Result<RecodeResult> r = ApplyFullDomainGeneralization(
      table_, qid_, SubsetNode::Full({1, 0, 0}), config);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->suppressed_tuples, 2);
  EXPECT_EQ(r->view.num_rows(), 4u);
  Result<std::vector<int64_t>> sizes =
      ClassSizes(r->view, {"Birthdate", "Sex", "Zipcode"});
  ASSERT_TRUE(sizes.ok());
  for (int64_t size : *sizes) EXPECT_GE(size, 2);
}

TEST_F(RecoderTest, FailsWhenBudgetInsufficient) {
  AnonymizationConfig config;
  config.k = 2;
  config.max_suppressed = 1;
  Result<RecodeResult> r = ApplyFullDomainGeneralization(
      table_, qid_, SubsetNode::Full({1, 0, 0}), config);
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(RecoderTest, IdentityNodeWithK1) {
  AnonymizationConfig config;
  config.k = 1;
  Result<RecodeResult> r = ApplyFullDomainGeneralization(
      table_, qid_, SubsetNode::Full({0, 0, 0}), config);
  ASSERT_TRUE(r.ok());
  // k=1: the view equals the original table.
  EXPECT_TRUE(r->view.MultisetEquals(table_));
}

TEST_F(RecoderTest, RejectsMalformedNodes) {
  AnonymizationConfig config;
  config.k = 2;
  // Partial QID.
  EXPECT_FALSE(ApplyFullDomainGeneralization(table_, qid_,
                                             SubsetNode({0, 1}, {1, 1}),
                                             config)
                   .ok());
  // Level out of range.
  EXPECT_EQ(ApplyFullDomainGeneralization(table_, qid_,
                                          SubsetNode::Full({5, 1, 0}), config)
                .status()
                .code(),
            StatusCode::kOutOfRange);
  // Wrong dims.
  EXPECT_FALSE(ApplyFullDomainGeneralization(
                   table_, qid_, SubsetNode({0, 1, 3}, {1, 1, 0}), config)
                   .ok());
}

TEST_F(RecoderTest, FullSuppressionTopNode) {
  AnonymizationConfig config;
  config.k = 6;
  Result<RecodeResult> r = ApplyFullDomainGeneralization(
      table_, qid_, SubsetNode::Full({1, 1, 2}), config);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->view.num_rows(), 6u);
  for (size_t row = 0; row < r->view.num_rows(); ++row) {
    EXPECT_EQ(r->view.GetValue(row, 2), Value("537**"));
  }
}

// ---------------------------------------------------------------------------
// Differential check of the code-level view builder (MaterializeView)
// against the Value-row recoders it replaced.

/// Appends row `r` of `table` at `node` to `view` the way the replaced
/// recoders did: decode every cell to a Value, swap generalized QID cells
/// for their level label rendered as a string, then AppendRow.
Status ReferenceAppendRow(const Table& table, const QuasiIdentifier& qid,
                          const SubsetNode& node, const int32_t* gen,
                          size_t r, Table* view) {
  std::vector<Value> row(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    row[c] = table.GetValue(r, c);
  }
  for (size_t i = 0; i < qid.size(); ++i) {
    size_t level = static_cast<size_t>(node.levels[i]);
    if (level > 0) {
      row[qid.column(i)] =
          Value(qid.hierarchy(i).LevelValue(level, gen[i]).ToString());
    }
  }
  return view->AppendRow(row);
}

Table ReferenceViewSkeleton(const Table& table, const QuasiIdentifier& qid,
                            const SubsetNode& node) {
  std::vector<ColumnSpec> specs(table.schema().columns());
  for (size_t i = 0; i < qid.size(); ++i) {
    if (node.levels[i] > 0) specs[qid.column(i)].type = DataType::kString;
  }
  return Table{Schema(std::move(specs))};
}

/// The replaced k-anonymity recoder: packed-key or string-key set of the
/// undersized groups, then a Value row per kept tuple.
Result<RecodeResult> ReferenceApplyFullDomain(
    const Table& table, const QuasiIdentifier& qid, const SubsetNode& node,
    const AnonymizationConfig& config) {
  FrequencySet freq = FrequencySet::Compute(table, qid, node);
  if (freq.TuplesBelowK(config.k) > config.max_suppressed) {
    return Status::FailedPrecondition("over budget");
  }
  const size_t n = qid.size();
  std::vector<size_t> cards(n);
  for (size_t i = 0; i < n; ++i) {
    cards[i] = qid.hierarchy(i).DomainSize(static_cast<size_t>(node.levels[i]));
  }
  KeyCodec codec = KeyCodec::Create(cards);
  std::unordered_set<uint64_t> small_packed;
  std::unordered_set<std::string> small_str;
  auto group_string = [n](const int32_t* codes) {
    std::string s;
    for (size_t i = 0; i < n; ++i) s += StringPrintf("%d,", codes[i]);
    return s;
  };
  freq.ForEachGroup([&](const int32_t* codes, int64_t count) {
    if (count < config.k) {
      if (codec.packed()) {
        small_packed.insert(codec.Pack(codes));
      } else {
        small_str.insert(group_string(codes));
      }
    }
  });
  RecodeResult result;
  result.view = ReferenceViewSkeleton(table, qid, node);
  std::vector<int32_t> gen(n);
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t i = 0; i < n; ++i) {
      gen[i] = qid.hierarchy(i).BaseToLevelMap(
          static_cast<size_t>(node.levels[i]))[static_cast<size_t>(
          table.GetCode(r, qid.column(i)))];
    }
    bool suppress = codec.packed()
                        ? small_packed.count(codec.Pack(gen.data())) > 0
                        : small_str.count(group_string(gen.data())) > 0;
    if (suppress) {
      ++result.suppressed_tuples;
      continue;
    }
    Status s =
        ReferenceAppendRow(table, qid, node, gen.data(), r, &result.view);
    if (!s.ok()) return s;
  }
  return result;
}

/// The replaced ℓ-diversity recoder: a std::set of violating code vectors,
/// then a Value row per kept tuple.
Result<DiverseRecodeResult> ReferenceApplyDiverse(
    const Table& table, const QuasiIdentifier& qid, const SubsetNode& node,
    const LDiversityConfig& config) {
  size_t sensitive =
      table.schema().ColumnIndex(config.sensitive_attribute).value();
  int64_t violating_tuples = 0;
  std::set<std::vector<int32_t>> violating;
  for (const auto& [codes, group] :
       testing_util::SensitiveGroups(table, qid, node, sensitive)) {
    if (group.count < config.k ||
        static_cast<int64_t>(group.sensitive.size()) < config.l) {
      violating_tuples += group.count;
      violating.insert(codes);
    }
  }
  if (violating_tuples > config.max_suppressed) {
    return Status::FailedPrecondition("over budget");
  }
  const size_t n = qid.size();
  DiverseRecodeResult result;
  result.view = ReferenceViewSkeleton(table, qid, node);
  std::vector<int32_t> gen(n);
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t i = 0; i < n; ++i) {
      gen[i] = qid.hierarchy(i).BaseToLevelMap(
          static_cast<size_t>(node.levels[i]))[static_cast<size_t>(
          table.GetCode(r, qid.column(i)))];
    }
    if (violating.count(gen) > 0) {
      ++result.suppressed_tuples;
      continue;
    }
    Status s =
        ReferenceAppendRow(table, qid, node, gen.data(), r, &result.view);
    if (!s.ok()) return s;
  }
  return result;
}

/// Same schema, dictionaries (values, types and order), codes and CSV bytes.
void ExpectSameView(const Table& want, const Table& got) {
  ASSERT_TRUE(want.schema() == got.schema())
      << want.schema().ToString() << " vs " << got.schema().ToString();
  ASSERT_EQ(want.num_rows(), got.num_rows());
  for (size_t c = 0; c < want.num_columns(); ++c) {
    const Dictionary& a = want.dictionary(c);
    const Dictionary& b = got.dictionary(c);
    ASSERT_EQ(a.size(), b.size()) << "column " << c;
    for (size_t v = 0; v < a.size(); ++v) {
      const Value& x = a.value(static_cast<int32_t>(v));
      const Value& y = b.value(static_cast<int32_t>(v));
      EXPECT_TRUE(x == y && x.is_null() == y.is_null() &&
                  x.is_int64() == y.is_int64() &&
                  x.is_double() == y.is_double())
          << "column " << c << " value " << v << ": " << x.ToString() << " vs "
          << y.ToString();
    }
    EXPECT_EQ(want.ColumnCodes(c), got.ColumnCodes(c)) << "column " << c;
  }
  EXPECT_EQ(ToCsvString(want), ToCsvString(got));
}

/// A random hierarchy over `domain` base values whose labels repeat across
/// types: level-1 labels alternate int64 and string spellings of the same
/// number, so the view must merge "3" and 3 into one string value.
ValueHierarchy MixedHierarchy(const std::string& name,
                              const std::vector<Value>& base, size_t height,
                              Rng& rng) {
  std::vector<std::vector<Value>> levels(height + 1);
  std::vector<std::vector<int32_t>> parents(height);
  levels[0] = base;
  size_t size = base.size();
  for (size_t l = 1; l <= height; ++l) {
    size_t next = l == height ? 1 : std::max<size_t>(1, size / 2);
    for (size_t c = 0; c < next; ++c) {
      int64_t label = static_cast<int64_t>(c / 2);
      levels[l].push_back(c % 2 == 0 ? Value(label)
                                     : Value(std::to_string(label)));
    }
    for (size_t c = 0; c < size; ++c) {
      parents[l - 1].push_back(static_cast<int32_t>(
          c < next ? c : rng.Uniform(next)));
    }
    size = next;
  }
  return ValueHierarchy::Create(name, std::move(levels), std::move(parents))
      .value();
}

struct MixedDataset {
  Table table;
  QuasiIdentifier qid;
};

/// Columns: sensitive string "s", QID string "q0", int64 "n" with NULLs,
/// QID int64 "q1", double "d", QID string "q2". Every dictionary is filled
/// in a shuffled order with unused values, so first-seen order in the view
/// differs from source code order.
MixedDataset MakeMixedDataset(Rng& rng, size_t num_rows) {
  Table table{Schema({{"s", DataType::kString},
                      {"q0", DataType::kString},
                      {"n", DataType::kInt64},
                      {"q1", DataType::kInt64},
                      {"d", DataType::kDouble},
                      {"q2", DataType::kString}})};
  const size_t qcols[] = {1, 3, 5};
  std::vector<std::pair<std::string, ValueHierarchy>> hierarchies;
  std::vector<size_t> domains;
  for (size_t q = 0; q < 3; ++q) {
    size_t col = qcols[q];
    size_t domain = 2 + rng.Uniform(9);
    std::vector<Value> base;
    for (size_t v = 0; v < domain; ++v) {
      base.push_back(col == 3 ? Value(static_cast<int64_t>(v * 7))
                              : Value(StringPrintf("v%zu,\"%zu\"", v, v)));
    }
    std::vector<int32_t> order(domain);
    for (size_t v = 0; v < domain; ++v) order[v] = static_cast<int32_t>(v);
    for (size_t v = domain; v > 1; --v) {
      std::swap(order[v - 1], order[rng.Uniform(v)]);
    }
    std::vector<Value> shuffled;
    for (int32_t v : order) shuffled.push_back(base[static_cast<size_t>(v)]);
    for (const Value& v : shuffled) {
      table.mutable_dictionary(col).GetOrInsert(v);
    }
    std::string name = table.schema().column(col).name;
    hierarchies.emplace_back(
        name, MixedHierarchy(name, shuffled, 1 + rng.Uniform(3), rng));
    domains.push_back(domain);
  }
  for (int64_t v = 0; v < 5; ++v) {
    table.mutable_dictionary(0).GetOrInsert(Value("s" + std::to_string(4 - v)));
    table.mutable_dictionary(2).GetOrInsert(Value(v * 100));
    table.mutable_dictionary(4).GetOrInsert(
        Value(static_cast<double>(v) + 0.25));
  }
  table.mutable_dictionary(2).GetOrInsert(Value());
  std::vector<int32_t> codes(6);
  for (size_t r = 0; r < num_rows; ++r) {
    codes[0] = static_cast<int32_t>(rng.Uniform(3));  // s0..s2 used, rest not
    codes[2] = static_cast<int32_t>(rng.Uniform(6));  // NULL included
    codes[4] = static_cast<int32_t>(rng.Uniform(5));
    for (size_t q = 0; q < 3; ++q) {
      codes[qcols[q]] = static_cast<int32_t>(rng.Uniform(domains[q]));
    }
    table.AppendRowCodes(codes);
  }
  MixedDataset out;
  out.qid = QuasiIdentifier::Create(table, std::move(hierarchies)).value();
  out.table = std::move(table);
  return out;
}

/// Level 0, a middle level or the top, per attribute.
SubsetNode RandomNode(const QuasiIdentifier& qid, Rng& rng) {
  std::vector<int32_t> levels;
  for (size_t i = 0; i < qid.size(); ++i) {
    int32_t height = static_cast<int32_t>(qid.hierarchy(i).height());
    int32_t choice[] = {0, height / 2, height};
    levels.push_back(choice[rng.Uniform(3)]);
  }
  return SubsetNode::Full(std::move(levels));
}

void CompareRecoders(const Table& table, const QuasiIdentifier& qid,
                     const SubsetNode& node, int64_t k, int64_t l,
                     int64_t budget, const std::string& sensitive) {
  SCOPED_TRACE(node.ToString() + StringPrintf(" k=%lld l=%lld budget=%lld",
                                              static_cast<long long>(k),
                                              static_cast<long long>(l),
                                              static_cast<long long>(budget)));
  AnonymizationConfig config;
  config.k = k;
  config.max_suppressed = budget;
  Result<RecodeResult> want =
      ReferenceApplyFullDomain(table, qid, node, config);
  Result<RecodeResult> got =
      ApplyFullDomainGeneralization(table, qid, node, config);
  ASSERT_EQ(want.status().code(), got.status().code())
      << got.status().ToString();
  if (want.ok()) {
    EXPECT_EQ(want->suppressed_tuples, got->suppressed_tuples);
    ExpectSameView(want->view, got->view);
  }
  if (sensitive.empty()) return;
  LDiversityConfig dconfig;
  dconfig.k = k;
  dconfig.l = l;
  dconfig.max_suppressed = budget;
  dconfig.sensitive_attribute = sensitive;
  Result<DiverseRecodeResult> dwant =
      ReferenceApplyDiverse(table, qid, node, dconfig);
  Result<DiverseRecodeResult> dgot =
      ApplyDiverseGeneralization(table, qid, node, dconfig);
  ASSERT_EQ(dwant.status().code(), dgot.status().code())
      << dgot.status().ToString();
  if (dwant.ok()) {
    EXPECT_EQ(dwant->suppressed_tuples, dgot->suppressed_tuples);
    ExpectSameView(dwant->view, dgot->view);
  }
}

TEST(RecoderReferenceTest, MatchesValueRowRecodersOnRandomTables) {
  Rng rng(1701);
  int released = 0, suppressed = 0;
  for (int iter = 0; iter < 150; ++iter) {
    MixedDataset ds = MakeMixedDataset(rng, 1 + rng.Uniform(80));
    for (int trial = 0; trial < 4; ++trial) {
      SubsetNode node = RandomNode(ds.qid, rng);
      int64_t k = 1 + static_cast<int64_t>(rng.Uniform(4));
      int64_t l = 1 + static_cast<int64_t>(rng.Uniform(3));
      for (int64_t budget :
           {int64_t{0}, static_cast<int64_t>(ds.table.num_rows())}) {
        CompareRecoders(ds.table, ds.qid, node, k, l, budget, "s");
        Result<RecodeResult> r = ApplyFullDomainGeneralization(
            ds.table, ds.qid, node, AnonymizationConfig{k, budget});
        if (r.ok()) {
          ++released;
          if (r->suppressed_tuples > 0) ++suppressed;
        }
      }
    }
  }
  // Both the plain and the suppressing path run many times.
  EXPECT_GT(released, 200);
  EXPECT_GT(suppressed, 50);
}

TEST(RecoderReferenceTest, MatchesValueRowRecodersWhenAttributesShareAColumn) {
  // A fourth attribute generalizes column q0 again with its own hierarchy:
  // the view shows the last attribute generalized above level 0.
  Rng rng(77);
  for (int iter = 0; iter < 40; ++iter) {
    MixedDataset ds = MakeMixedDataset(rng, 1 + rng.Uniform(60));
    std::vector<std::pair<std::string, ValueHierarchy>> hierarchies;
    for (size_t i = 0; i < ds.qid.size(); ++i) {
      hierarchies.emplace_back(ds.qid.name(i), ds.qid.hierarchy(i));
    }
    const Dictionary& q0 = ds.table.dictionary(1);
    std::vector<Value> base;
    for (size_t v = 0; v < q0.size(); ++v) {
      base.push_back(q0.value(static_cast<int32_t>(v)));
    }
    hierarchies.emplace_back("q0", MixedHierarchy("q0", base, 2, rng));
    QuasiIdentifier qid =
        QuasiIdentifier::Create(ds.table, std::move(hierarchies)).value();
    for (int trial = 0; trial < 4; ++trial) {
      CompareRecoders(ds.table, qid, RandomNode(qid, rng),
                      1 + static_cast<int64_t>(rng.Uniform(3)), 1,
                      static_cast<int64_t>(ds.table.num_rows()), "s");
    }
  }
}

TEST(RecoderReferenceTest, MatchesValueRowRecodersOnWideKeys) {
  testing_util::RandomDataset ds = testing_util::MakeWideFallbackDataset(300);
  Rng rng(4242);
  for (int trial = 0; trial < 12; ++trial) {
    std::vector<int32_t> levels(ds.qid.size());
    // Mostly level 0 keeps the key over 64 bits.
    for (int32_t& level : levels) level = rng.Uniform(6) == 0 ? 1 : 0;
    SubsetNode node = SubsetNode::Full(levels);
    for (int64_t k : {int64_t{1}, int64_t{2}, int64_t{5}}) {
      for (int64_t budget : {int64_t{0}, int64_t{300}}) {
        CompareRecoders(ds.table, ds.qid, node, k, 1, budget, "");
      }
    }
  }
  // The fixture's level-0 node really takes the wide-key path, and
  // suppresses there.
  SubsetNode bottom = SubsetNode::Full(std::vector<int32_t>(ds.qid.size(), 0));
  ASSERT_FALSE(
      KeyCodec::Create(std::vector<size_t>(ds.qid.size(), 4096)).packed());
  Result<RecodeResult> r = ApplyFullDomainGeneralization(
      ds.table, ds.qid, bottom, AnonymizationConfig{2, 300});
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->suppressed_tuples, 0);
}

TEST(RecoderReferenceTest, MatchesValueRowDiverseRecoderOnWideKeys) {
  // Six 4096-value QID columns (72 key bits) plus a sensitive column.
  testing_util::RandomDataset wide = testing_util::MakeWideFallbackDataset(200);
  std::vector<ColumnSpec> specs(wide.table.schema().columns());
  specs.push_back({"sens", DataType::kString});
  Table table{Schema(specs)};
  for (size_t c = 0; c < wide.table.num_columns(); ++c) {
    const Dictionary& dict = wide.table.dictionary(c);
    for (size_t v = 0; v < dict.size(); ++v) {
      table.mutable_dictionary(c).GetOrInsert(
          dict.value(static_cast<int32_t>(v)));
    }
  }
  Rng rng(99);
  for (size_t r = 0; r < wide.table.num_rows(); ++r) {
    std::vector<Value> row = wide.table.GetRow(r);
    row.push_back(Value("x" + std::to_string(rng.Uniform(3))));
    ASSERT_TRUE(table.AppendRow(row).ok());
  }
  std::vector<std::pair<std::string, ValueHierarchy>> hierarchies;
  for (size_t i = 0; i < wide.qid.size(); ++i) {
    hierarchies.emplace_back(wide.qid.name(i), wide.qid.hierarchy(i));
  }
  QuasiIdentifier qid =
      QuasiIdentifier::Create(table, std::move(hierarchies)).value();
  for (int64_t l : {int64_t{1}, int64_t{2}, int64_t{3}}) {
    for (int64_t budget : {int64_t{0}, int64_t{200}}) {
      CompareRecoders(table, qid, SubsetNode::Full(std::vector<int32_t>(6, 0)),
                      2, l, budget, "sens");
      CompareRecoders(table, qid, SubsetNode::Full({0, 0, 0, 0, 0, 1}), 1, l,
                      budget, "sens");
    }
  }
}

}  // namespace
}  // namespace incognito
