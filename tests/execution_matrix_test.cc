// The execution-shape matrix: one table-driven harness that runs the
// Incognito search in every execution shape — worker threads {1, 2, 4, 8}
// x variant x scan batching on/off x {ungoverned, governed with a generous
// budget, resumed from a mid-run checkpoint} — and checks every row
// against the brute-force oracle and its deterministic counters against
// the one-worker run.
//
// The same rows, Basic variant only, run distinct ℓ-diversity (the
// RunIncognito overload with a DiversityPredicate) against the std::map
// (k, ℓ) oracle of test_util.h.
//
// Also here: an 18-attribute QID, whose subset DAG only stays small
// because subsets with an empty sub-subset are never materialized, run
// against the oracle at one and four workers, under a governed partial
// and from a checkpoint; and the 64-attribute limit itself.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/strings.h"
#include "core/checker.h"
#include "core/incognito.h"
#include "core/run_context.h"
#include "data/adults.h"
#include "freq/cube.h"
#include "obs/counters.h"
#include "robust/checkpoint.h"
#include "robust/governor.h"
#include "robust/partial_result.h"
#include "test_util.h"

namespace incognito {
namespace {

using testing_util::NodeSet;
using testing_util::Oracle;
using testing_util::RandomDataset;

enum class Mode { kUngoverned, kGoverned, kResumed };

/// One row of the matrix.
struct Shape {
  int threads;
  IncognitoVariant variant;
  bool batch_scans;
  Mode mode;

  std::string Name() const {
    static const char* kModes[] = {"ungoverned", "governed", "resumed"};
    return StringPrintf("threads=%d variant=%s batch=%d mode=%s", threads,
                        IncognitoVariantName(variant), batch_scans ? 1 : 0,
                        kModes[static_cast<int>(mode)]);
  }
};

std::vector<Shape> AllShapes() {
  std::vector<Shape> shapes;
  for (int threads : {1, 2, 4, 8}) {
    for (IncognitoVariant variant :
         {IncognitoVariant::kBasic, IncognitoVariant::kSuperRoots,
          IncognitoVariant::kCube}) {
      for (bool batch : {true, false}) {
        for (Mode mode : {Mode::kUngoverned, Mode::kGoverned,
                          Mode::kResumed}) {
          shapes.push_back({threads, variant, batch, mode});
        }
      }
    }
  }
  return shapes;
}

std::vector<std::string> Strings(const std::vector<SubsetNode>& nodes) {
  std::vector<std::string> out;
  out.reserve(nodes.size());
  for (const SubsetNode& n : nodes) out.push_back(n.ToString());
  return out;
}

/// The survivor sets and the deterministic counters must not depend on the
/// execution shape. governor_checks and the trip counters describe the
/// run, not the answer, and are excluded.
void ExpectSameSearch(const IncognitoResult& want, const IncognitoResult& got) {
  EXPECT_EQ(Strings(got.anonymous_nodes), Strings(want.anonymous_nodes));
  ASSERT_EQ(got.per_iteration_survivors.size(),
            want.per_iteration_survivors.size());
  for (size_t i = 0; i < want.per_iteration_survivors.size(); ++i) {
    EXPECT_EQ(Strings(got.per_iteration_survivors[i]),
              Strings(want.per_iteration_survivors[i]))
        << "iteration " << i + 1;
  }
  EXPECT_EQ(got.completed_iterations, want.completed_iterations);
  EXPECT_EQ(got.stats.nodes_checked, want.stats.nodes_checked);
  EXPECT_EQ(got.stats.nodes_marked, want.stats.nodes_marked);
  EXPECT_EQ(got.stats.table_scans, want.stats.table_scans);
  EXPECT_EQ(got.stats.rollups, want.stats.rollups);
  EXPECT_EQ(got.stats.freq_groups_built, want.stats.freq_groups_built);
  EXPECT_EQ(got.stats.candidate_nodes, want.stats.candidate_nodes);
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Rewrites the complete checkpoint at `path` as a mid-run one: the first
/// `keep` records in ascending mask order. Every immediate sub-subset of a
/// mask is a smaller mask, so the kept set is downward closed, as a killed
/// run leaves it.
void TruncateCheckpoint(const std::string& path, size_t keep) {
  Result<CheckpointSnapshot> snapshot = LoadCheckpoint(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ASSERT_LE(keep, snapshot->records.size());
  snapshot->records.resize(keep);
  ASSERT_TRUE(WriteCheckpoint(path, snapshot.value()).ok());
}

struct MatrixDataset {
  std::string name;
  RandomDataset data;
  AnonymizationConfig config;
};

RandomDataset AdultsPrefix(size_t rows, size_t qid_size) {
  AdultsOptions adults;
  adults.num_rows = rows;
  SyntheticDataset data = MakeAdultsDataset(adults).value();
  RandomDataset out;
  out.qid = data.qid.Prefix(qid_size);
  out.table = std::move(data.table);
  return out;
}

MatrixDataset MakeMatrixDataset(int index) {
  MatrixDataset out;
  switch (index) {
    case 0:
    case 1: {
      const uint64_t seed = index == 0 ? 3 : 17;
      Rng rng(seed);
      out.name = "random-" + std::to_string(seed);
      out.data = testing_util::MakeRandomDataset(rng);
      out.config.k = 2 + static_cast<int64_t>(seed % 3);
      break;
    }
    case 2:
      // Paper-schema attributes at a size where scans take several radix
      // passes and pools split the rows into sizeable chunks.
      out.name = "adults-5000-qid3";
      out.data = AdultsPrefix(5000, 3);
      out.config.k = 25;
      break;
    default:
      // Domains beyond the 64-bit packed keys: the vector-key fallback.
      out.name = "wide-fallback-keys";
      out.data = testing_util::MakeWideFallbackDataset(120);
      out.config.k = 2;
      break;
  }
  return out;
}

class ExecutionMatrixTest : public ::testing::TestWithParam<int> {};

TEST_P(ExecutionMatrixTest, EveryShapeMatchesOracleAndOneWorkerCounters) {
  const MatrixDataset ds = MakeMatrixDataset(GetParam());
  const Table& table = ds.data.table;
  const QuasiIdentifier& qid = ds.data.qid;
  const std::set<std::string> oracle = Oracle(table, qid, ds.config);

  // One-worker references per (variant, batching) — the only options that
  // may change counters (batching changes table_scans) — each writing the
  // complete checkpoint the resumed rows start from, truncated to half.
  struct Reference {
    IncognitoResult result;
    std::string checkpoint;
    size_t kept_records = 0;
  };
  std::map<std::pair<int, bool>, Reference> references;
  for (IncognitoVariant variant :
       {IncognitoVariant::kBasic, IncognitoVariant::kSuperRoots,
        IncognitoVariant::kCube}) {
    for (bool batch : {true, false}) {
      Reference ref;
      ref.checkpoint = TempPath(StringPrintf(
          "matrix_%s_%d_%d.ckpt", ds.name.c_str(), static_cast<int>(variant),
          batch ? 1 : 0));
      std::remove(ref.checkpoint.c_str());
      CheckpointPolicy writer;
      writer.path = ref.checkpoint;
      IncognitoOptions options;
      options.variant = variant;
      options.batch_scans = batch;
      PartialResult<IncognitoResult> run = RunIncognito(
          table, qid, ds.config, options, RunContext().WithCheckpoint(&writer));
      ASSERT_TRUE(run.complete()) << run.status().ToString();
      Result<CheckpointSnapshot> written = LoadCheckpoint(ref.checkpoint);
      ASSERT_TRUE(written.ok()) << written.status().ToString();
      ref.kept_records = written->records.size() / 2;
      TruncateCheckpoint(ref.checkpoint, ref.kept_records);
      ref.result = std::move(run).value();
      references[{static_cast<int>(variant), batch}] = std::move(ref);
    }
  }

  for (const Shape& shape : AllShapes()) {
    SCOPED_TRACE(ds.name + " " + shape.Name());
    const Reference& ref =
        references.at({static_cast<int>(shape.variant), shape.batch_scans});
    IncognitoOptions options;
    options.variant = shape.variant;
    options.batch_scans = shape.batch_scans;
    ExecutionGovernor governor;
    CheckpointPolicy resume;
    resume.path = ref.checkpoint;
    resume.resume = ResumeMode::kRequire;
    // Resumed rows only read the checkpoint: a long interval keeps the
    // rows from rewriting it.
    resume.interval_ms = int64_t{1} << 40;
    RunContext ctx = RunContext().WithWorkers(shape.threads);
    if (shape.mode == Mode::kGoverned) {
      ctx.WithGovernor(governor)
          .WithDeadline(10 * 60 * 1000)
          .WithMemoryBudget(int64_t{1} << 33);
    } else if (shape.mode == Mode::kResumed) {
      ctx.WithCheckpoint(&resume);
    }

    PartialResult<IncognitoResult> run =
        RunIncognito(table, qid, ds.config, options, ctx);
    if (shape.mode == Mode::kResumed) {
      // The final write makes the apex durable; restore the mid-run file
      // for the next resumed row.
      TruncateCheckpoint(ref.checkpoint, ref.kept_records);
    }
    ASSERT_TRUE(run.complete()) << run.status().ToString();
    EXPECT_EQ(NodeSet(run->anonymous_nodes), oracle);
    ExpectSameSearch(ref.result, run.value());
    EXPECT_EQ(run->stats.parallel_workers, shape.threads);
    EXPECT_EQ(run->shard_high_water_bytes.size(),
              static_cast<size_t>(shape.threads));
    if (shape.mode == Mode::kGoverned) {
      EXPECT_EQ(governor.memory().used(), 0);
      EXPECT_GT(run->stats.governor_checks, 0);
    }
    if (shape.mode == Mode::kResumed) {
      EXPECT_EQ(run->stats.restored_subsets,
                static_cast<int64_t>(ref.kept_records));
    }
  }
  for (const auto& [key, ref] : references) std::remove(ref.checkpoint.c_str());
}

INSTANTIATE_TEST_SUITE_P(Datasets, ExecutionMatrixTest,
                         ::testing::Range(0, 4));

// ---------------------------------------------------------------------------
// Distinct ℓ-diversity on the same engine
// ---------------------------------------------------------------------------

struct DiversityMatrixDataset {
  std::string name;
  RandomDataset data;  // qid excludes the sensitive column
  AnonymizationConfig config;
  DiversityPredicate diversity;
};

DiversityMatrixDataset MakeDiversityDataset(int index) {
  DiversityMatrixDataset out;
  out.config.k = 2;
  switch (index) {
    case 0: {
      Rng rng(5);
      testing_util::RandomDatasetOptions opts;
      opts.num_attrs = 4;
      RandomDataset data = testing_util::MakeRandomDataset(rng, opts);
      out.name = "random-5";
      out.diversity = {data.qid.column(3), 2};
      out.data.qid = data.qid.Prefix(3);
      out.data.table = std::move(data.table);
      break;
    }
    case 1: {
      out.name = "adults-5000-qid3-salary";
      out.data = AdultsPrefix(5000, 3);
      out.config.k = 25;
      out.diversity = {
          static_cast<size_t>(out.data.table.schema().FindColumn(
              "Salary-class")),
          2};
      break;
    }
    default: {
      // Five 12-bit QID fields plus a 12-bit S: the all-zero root's keys
      // need 72 bits, so its node ∪ {S} set takes the vector-key path. At
      // 4,000 rows over 243 QID groups the root passes, so every shape
      // must get the wide check right.
      RandomDataset data = testing_util::MakeWideFallbackDataset(4000);
      out.name = "wide-fallback-keys";
      out.diversity = {data.qid.column(5), 2};
      out.data.qid = data.qid.Prefix(5);
      out.data.table = std::move(data.table);
      break;
    }
  }
  return out;
}

class DiversityMatrixTest : public ::testing::TestWithParam<int> {};

// threads {1, 2, 4, 8} x scan batching on/off x {ungoverned, governed,
// resumed}, each against the std::map (k, ℓ) oracle and the one-worker
// run's counters.
TEST_P(DiversityMatrixTest, EveryShapeMatchesOracleAndOneWorkerCounters) {
  const DiversityMatrixDataset ds = MakeDiversityDataset(GetParam());
  const Table& table = ds.data.table;
  const QuasiIdentifier& qid = ds.data.qid;
  const std::set<std::string> oracle = testing_util::DiversityOracle(
      table, qid, ds.config, ds.diversity.sensitive_column,
      ds.diversity.l);
  EXPECT_FALSE(oracle.empty());

  struct Reference {
    IncognitoResult result;
    std::string checkpoint;
    size_t kept_records = 0;
  };
  std::map<bool, Reference> references;
  for (bool batch : {true, false}) {
    Reference ref;
    ref.checkpoint = TempPath(StringPrintf("diversity_%s_%d.ckpt",
                                           ds.name.c_str(), batch ? 1 : 0));
    std::remove(ref.checkpoint.c_str());
    CheckpointPolicy writer;
    writer.path = ref.checkpoint;
    IncognitoOptions options;
    options.batch_scans = batch;
    PartialResult<IncognitoResult> run =
        RunIncognito(table, qid, ds.config, ds.diversity, options,
                     RunContext().WithCheckpoint(&writer));
    ASSERT_TRUE(run.complete()) << run.status().ToString();
    Result<CheckpointSnapshot> written = LoadCheckpoint(ref.checkpoint);
    ASSERT_TRUE(written.ok()) << written.status().ToString();
    ref.kept_records = written->records.size() / 2;
    TruncateCheckpoint(ref.checkpoint, ref.kept_records);
    ref.result = std::move(run).value();
    references[batch] = std::move(ref);
  }

  for (const Shape& shape : AllShapes()) {
    if (shape.variant != IncognitoVariant::kBasic) continue;
    SCOPED_TRACE(ds.name + " " + shape.Name());
    const Reference& ref = references.at(shape.batch_scans);
    IncognitoOptions options;
    options.batch_scans = shape.batch_scans;
    ExecutionGovernor governor;
    CheckpointPolicy resume;
    resume.path = ref.checkpoint;
    resume.resume = ResumeMode::kRequire;
    resume.interval_ms = int64_t{1} << 40;
    RunContext ctx = RunContext().WithWorkers(shape.threads);
    if (shape.mode == Mode::kGoverned) {
      ctx.WithGovernor(governor)
          .WithDeadline(10 * 60 * 1000)
          .WithMemoryBudget(int64_t{1} << 33);
    } else if (shape.mode == Mode::kResumed) {
      ctx.WithCheckpoint(&resume);
    }

    PartialResult<IncognitoResult> run =
        RunIncognito(table, qid, ds.config, ds.diversity, options, ctx);
    if (shape.mode == Mode::kResumed) {
      TruncateCheckpoint(ref.checkpoint, ref.kept_records);
    }
    ASSERT_TRUE(run.complete()) << run.status().ToString();
    EXPECT_EQ(NodeSet(run->anonymous_nodes), oracle);
    ExpectSameSearch(ref.result, run.value());
    EXPECT_EQ(run->stats.parallel_workers, shape.threads);
    if (shape.mode == Mode::kGoverned) {
      EXPECT_EQ(governor.memory().used(), 0);
      EXPECT_GT(run->stats.governor_checks, 0);
    }
    if (shape.mode == Mode::kResumed) {
      EXPECT_EQ(run->stats.restored_subsets,
                static_cast<int64_t>(ref.kept_records));
    }
  }
  for (const auto& [batch, ref] : references) {
    std::remove(ref.checkpoint.c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(Datasets, DiversityMatrixTest,
                         ::testing::Range(0, 3));

// ---------------------------------------------------------------------------
// Wide quasi-identifiers
// ---------------------------------------------------------------------------

constexpr size_t kWideAttrs = 18;

AnonymizationConfig WideConfig() {
  AnonymizationConfig config;
  config.k = 2;
  return config;
}

const RandomDataset& WideData() {
  static const RandomDataset* data =
      new RandomDataset(testing_util::MakeWideQidDataset(kWideAttrs));
  return *data;
}

/// Every k-anonymous node over every attribute subset of size `size`,
/// checked one by one.
std::set<std::string> SubsetOracle(const RandomDataset& data, size_t size) {
  const size_t n = data.qid.size();
  std::set<std::string> out;
  std::vector<int32_t> dims;
  // Enumerates the size-`size` subsets in lexicographic order.
  auto recurse = [&](auto&& self, size_t next) -> void {
    if (dims.size() == size) {
      for (uint32_t levels = 0; levels < (1u << size); ++levels) {
        SubsetNode node;
        node.dims = dims;
        for (size_t j = 0; j < size; ++j) {
          node.levels.push_back(static_cast<int32_t>((levels >> j) & 1));
        }
        if (IsKAnonymous(data.table, data.qid, node, WideConfig())) {
          out.insert(node.ToString());
        }
      }
      return;
    }
    for (size_t d = next; d < n; ++d) {
      dims.push_back(static_cast<int32_t>(d));
      self(self, d + 1);
      dims.pop_back();
    }
  };
  recurse(recurse, 0);
  return out;
}

TEST(WideQidTest, MatchesOracleAtOneAndFourWorkers) {
  const RandomDataset& data = WideData();
  const std::set<std::string> oracle =
      Oracle(data.table, data.qid, WideConfig());
  PartialResult<IncognitoResult> one =
      RunIncognito(data.table, data.qid, WideConfig());
  ASSERT_TRUE(one.complete()) << one.status().ToString();
  EXPECT_EQ(NodeSet(one->anonymous_nodes), oracle);
  ASSERT_EQ(one->per_iteration_survivors.size(), kWideAttrs);
  // S_1 and S_2 are complete: exactly the k-anonymous one- and
  // two-attribute generalizations.
  EXPECT_EQ(NodeSet(one->per_iteration_survivors[0]), SubsetOracle(data, 1));
  EXPECT_EQ(NodeSet(one->per_iteration_survivors[1]), SubsetOracle(data, 2));
  // And every survivor of every size is sound.
  int64_t survivors = 0;
  for (const std::vector<SubsetNode>& level : one->per_iteration_survivors) {
    for (const SubsetNode& node : level) {
      ++survivors;
      EXPECT_TRUE(IsKAnonymous(data.table, data.qid, node, WideConfig()))
          << node.ToString();
    }
  }
  EXPECT_GT(survivors, 1000);

  PartialResult<IncognitoResult> four = RunIncognito(
      data.table, data.qid, WideConfig(), {}, RunContext::WithThreads(4));
  ASSERT_TRUE(four.complete()) << four.status().ToString();
  ExpectSameSearch(one.value(), four.value());
}

TEST(WideQidTest, GovernedPartialIsASoundPrefix) {
  const RandomDataset& data = WideData();
  PartialResult<IncognitoResult> full =
      RunIncognito(data.table, data.qid, WideConfig());
  ASSERT_TRUE(full.complete());
  bool saw_partial = false;
  for (int threads : {1, 4}) {
    for (int64_t limit : {int64_t{512}, int64_t{4} << 10, int64_t{64} << 10}) {
      SCOPED_TRACE(StringPrintf("threads=%d limit=%lld", threads,
                                static_cast<long long>(limit)));
      ExecutionGovernor governor;
      PartialResult<IncognitoResult> run = RunIncognito(
          data.table, data.qid, WideConfig(), {},
          RunContext::Governed(governor, threads).WithMemoryBudget(limit));
      ASSERT_FALSE(run.hard_error()) << run.status().ToString();
      EXPECT_EQ(governor.memory().used(), 0);
      if (!run.partial()) {
        ExpectSameSearch(full.value(), run.value());
        continue;
      }
      saw_partial = true;
      EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
      EXPECT_TRUE(run->anonymous_nodes.empty());
      ASSERT_EQ(run->per_iteration_survivors.size(),
                static_cast<size_t>(run->completed_iterations));
      ASSERT_LT(run->completed_iterations,
                static_cast<int64_t>(kWideAttrs));
      for (size_t i = 0; i < run->per_iteration_survivors.size(); ++i) {
        EXPECT_EQ(Strings(run->per_iteration_survivors[i]),
                  Strings(full->per_iteration_survivors[i]));
      }
    }
  }
  EXPECT_TRUE(saw_partial) << "no limit in the sweep tripped; weaken limits";
}

TEST(WideQidTest, ResumeFromMidRunCheckpointMatchesFreshRun) {
  const RandomDataset& data = WideData();
  const std::string path = TempPath("wide_qid.ckpt");
  std::remove(path.c_str());
  // Long intervals: one write at the first boundary, one at the end (a
  // write per subset would rewrite thousands of records thousands of
  // times).
  CheckpointPolicy writer;
  writer.path = path;
  writer.interval_ms = int64_t{1} << 40;
  PartialResult<IncognitoResult> full =
      RunIncognito(data.table, data.qid, WideConfig(), {},
                   RunContext().WithCheckpoint(&writer));
  ASSERT_TRUE(full.complete());
  Result<CheckpointSnapshot> written = LoadCheckpoint(path);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  // A run killed after finishing every subset of up to three attributes.
  constexpr int kDoneLevels = 3;
  CheckpointSnapshot mid_run = written.value();
  mid_run.records.clear();
  for (const CheckpointRecord& record : written->records) {
    if (__builtin_popcountll(record.mask) <= kDoneLevels) {
      mid_run.records.push_back(record);
    }
  }
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ASSERT_TRUE(WriteCheckpoint(path, mid_run).ok());
    CheckpointPolicy resume;
    resume.path = path;
    resume.resume = ResumeMode::kRequire;
    resume.interval_ms = int64_t{1} << 40;
    PartialResult<IncognitoResult> resumed = RunIncognito(
        data.table, data.qid, WideConfig(), {},
        RunContext::WithThreads(threads).WithCheckpoint(&resume));
    ASSERT_TRUE(resumed.complete()) << resumed.status().ToString();
    ExpectSameSearch(full.value(), resumed.value());
    EXPECT_EQ(resumed->stats.restored_subsets,
              static_cast<int64_t>(mid_run.records.size()));
    EXPECT_EQ(resumed->stats.restored_iterations, kDoneLevels);
  }
  std::remove(path.c_str());
}

TEST(WideQidTest, CubeOverMaxAttributesIsInvalidArgumentBeforeAnyScan) {
  // The cube would hold 2^25 - 1 frequency sets, so Cube Incognito refuses
  // the QID before touching the table. The 1-byte budget is a backstop:
  // were the run not refused, the root scan would trip it long before the
  // cube grew.
  RandomDataset data =
      testing_util::MakeWideQidDataset(ZeroGenCube::kMaxAttributes + 1);
  IncognitoOptions options;
  options.variant = IncognitoVariant::kCube;
  ExecutionGovernor governor;
  const obs::MetricsSnapshot before = obs::MetricsSnapshot::Take();
  PartialResult<IncognitoResult> run =
      RunIncognito(data.table, data.qid, WideConfig(), options,
                   RunContext::Governed(governor).WithMemoryBudget(1));
  const obs::MetricsSnapshot delta =
      obs::MetricsSnapshot::Take().DeltaSince(before);
  ASSERT_TRUE(run.hard_error());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(delta.counters.count("freq.scans"), 0u);
  EXPECT_EQ(delta.counters.count("cube.builds"), 0u);
  EXPECT_EQ(governor.memory().peak(), 0);
}

TEST(WideQidTest, MoreThan64AttributesIsInvalidArgument) {
  RandomDataset data = testing_util::MakeWideQidDataset(65);
  PartialResult<IncognitoResult> run =
      RunIncognito(data.table, data.qid, WideConfig());
  ASSERT_TRUE(run.hard_error());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace incognito
