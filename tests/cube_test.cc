#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/worker_pool.h"
#include "data/patients.h"
#include "freq/cube.h"
#include "robust/governor.h"
#include "test_util.h"

namespace incognito {
namespace {

/// Every non-empty subset of {0..n-1} as ascending QID index lists.
std::vector<std::vector<int32_t>> AllSubsets(size_t n) {
  std::vector<std::vector<int32_t>> out;
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    std::vector<int32_t> dims;
    for (size_t d = 0; d < n; ++d) {
      if (mask & (1u << d)) dims.push_back(static_cast<int32_t>(d));
    }
    out.push_back(std::move(dims));
  }
  return out;
}

/// Asserts two frequency sets are identical group for group — contents,
/// canonical order, and footprint.
void ExpectSameFrequencySet(const FrequencySet& a, const FrequencySet& b) {
  using Groups = std::vector<std::pair<std::vector<int32_t>, int64_t>>;
  auto collect = [](const FrequencySet& fs) {
    Groups out;
    const size_t width = fs.node().size();
    fs.ForEachGroup([&](const int32_t* codes, int64_t count) {
      out.emplace_back(std::vector<int32_t>(codes, codes + width), count);
    });
    return out;
  };
  EXPECT_EQ(collect(a), collect(b));
  EXPECT_EQ(a.TotalCount(), b.TotalCount());
  EXPECT_EQ(a.MemoryBytes(), b.MemoryBytes());
}

/// The direct-scan oracle: every subset's zero-generalization node
/// computed from scratch with one GROUP BY over the table, independent of
/// the cube's projection DAG.
struct Oracle {
  std::vector<std::pair<std::vector<int32_t>, FrequencySet>> sets;
  size_t total_groups = 0;
  size_t total_bytes = 0;
};

Oracle DirectScanOracle(const Table& table, const QuasiIdentifier& qid) {
  Oracle oracle;
  for (const auto& dims : AllSubsets(qid.size())) {
    SubsetNode node(dims, std::vector<int32_t>(dims.size(), 0));
    FrequencySet fs = FrequencySet::Compute(table, qid, node);
    oracle.total_groups += fs.NumGroups();
    oracle.total_bytes += fs.MemoryBytes();
    oracle.sets.emplace_back(dims, std::move(fs));
  }
  return oracle;
}

/// Asserts a cube equals the oracle subset for subset — groups, canonical
/// order and footprint — and that its BuildInfo has the oracle's totals:
/// one table scan and 2^n - 2 projections.
void ExpectMatchesOracle(const ZeroGenCube& cube,
                         const ZeroGenCube::BuildInfo& info,
                         const Oracle& oracle) {
  const size_t subsets = oracle.sets.size();
  EXPECT_EQ(cube.num_subsets(), subsets);
  EXPECT_EQ(info.num_subsets, subsets);
  EXPECT_EQ(info.total_groups, oracle.total_groups);
  EXPECT_EQ(info.total_bytes, oracle.total_bytes);
  EXPECT_EQ(info.table_scans, 1);
  EXPECT_EQ(info.projections, static_cast<int64_t>(subsets) - 1);
  for (const auto& [dims, direct] : oracle.sets) {
    ExpectSameFrequencySet(cube.Get(dims), direct);
  }
}

/// Builds the cube at a null pool and at pools of 1, 2, 4 and 8 workers
/// and checks each against the direct-scan oracle.
void ExpectEveryPoolMatchesOracle(const Table& table,
                                  const QuasiIdentifier& qid) {
  const Oracle oracle = DirectScanOracle(table, qid);
  {
    SCOPED_TRACE("null pool");
    ZeroGenCube::BuildInfo info;
    ZeroGenCube cube = ZeroGenCube::Build(table, qid, nullptr, &info);
    ExpectMatchesOracle(cube, info, oracle);
  }
  for (int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE(threads);
    WorkerPool pool(threads);
    ZeroGenCube::BuildInfo info;
    ZeroGenCube cube = ZeroGenCube::Build(table, qid, &pool, &info);
    ExpectMatchesOracle(cube, info, oracle);
  }
}

TEST(CubeTest, PatientsCubeCoversAllSubsets) {
  Result<PatientsDataset> ds = MakePatientsDataset();
  ASSERT_TRUE(ds.ok());
  ZeroGenCube::BuildInfo info;
  ZeroGenCube cube = ZeroGenCube::Build(ds->table, ds->qid, nullptr, &info);
  EXPECT_EQ(cube.num_subsets(), 7u);  // 2^3 - 1
  EXPECT_EQ(info.num_subsets, 7u);
  EXPECT_EQ(info.table_scans, 1);      // only the full set scans T
  EXPECT_EQ(info.projections, 6);      // every other subset aggregated
  EXPECT_GT(info.total_groups, 0u);
  EXPECT_GT(info.total_bytes, 0u);
}

TEST(CubeTest, EveryPoolMatchesDirectScanOnPatients) {
  Result<PatientsDataset> ds = MakePatientsDataset();
  ASSERT_TRUE(ds.ok());
  ExpectEveryPoolMatchesOracle(ds->table, ds->qid);
}

TEST(CubeTest, EveryPoolMatchesDirectScanOnRandomData) {
  Rng rng(4242);
  for (int trial = 0; trial < 4; ++trial) {
    testing_util::RandomDatasetOptions opts;
    opts.num_attrs = 4 + static_cast<size_t>(trial % 2);
    opts.num_rows = 120;
    testing_util::RandomDataset ds = testing_util::MakeRandomDataset(rng, opts);
    SCOPED_TRACE(trial);
    ExpectEveryPoolMatchesOracle(ds.table, ds.qid);
  }
}

TEST(CubeTest, RollupFromCubeEntryMatchesScan) {
  Result<PatientsDataset> ds = MakePatientsDataset();
  ASSERT_TRUE(ds.ok());
  ZeroGenCube cube = ZeroGenCube::Build(ds->table, ds->qid);
  // Cube Incognito's access pattern: roll a zero-generalization entry up
  // to an arbitrary node of the same attribute subset.
  SubsetNode target({1, 2}, {1, 1});
  FrequencySet rolled = cube.Get({1, 2}).RollupTo(target, ds->qid);
  FrequencySet direct = FrequencySet::Compute(ds->table, ds->qid, target);
  EXPECT_EQ(rolled.NumGroups(), direct.NumGroups());
  EXPECT_EQ(rolled.MinCount(), direct.MinCount());
}

TEST(CubeTest, SingleAttributeQid) {
  // n == 1: no projections, no DAG — the build is just the root scan.
  Result<PatientsDataset> ds = MakePatientsDataset();
  ASSERT_TRUE(ds.ok());
  QuasiIdentifier qid1 = ds->qid.Prefix(1);
  ExpectEveryPoolMatchesOracle(ds->table, qid1);
  WorkerPool pool(4);
  ZeroGenCube::BuildInfo info;
  ZeroGenCube cube = ZeroGenCube::Build(ds->table, qid1, &pool, &info);
  EXPECT_EQ(cube.num_subsets(), 1u);
  EXPECT_EQ(info.projections, 0);
  EXPECT_EQ(cube.Get({0}).TotalCount(), 6);
}

// ---------------------------------------------------------------------------
// Governed builds, with no pool and across a 4-worker pool.
// ---------------------------------------------------------------------------

TEST(CubeTest, GovernedBuildMatchesAndBalances) {
  Result<PatientsDataset> ds = MakePatientsDataset();
  ASSERT_TRUE(ds.ok());
  const Oracle oracle = DirectScanOracle(ds->table, ds->qid);
  for (int threads : {0, 4}) {
    SCOPED_TRACE(threads);
    std::unique_ptr<WorkerPool> pool;
    if (threads > 0) pool = std::make_unique<WorkerPool>(threads);
    ExecutionGovernor governor;
    governor.SetMemoryLimitBytes(int64_t{1} << 30);
    ZeroGenCube::BuildInfo info;
    ZeroGenCube cube =
        ZeroGenCube::Build(ds->table, ds->qid, pool.get(), &info, &governor);
    ASSERT_FALSE(governor.Tripped());
    ExpectMatchesOracle(cube, info, oracle);
    // The governed build charges exactly the cube's footprint; the
    // transient worker leases are gone and ReleaseMemory balances to zero.
    EXPECT_EQ(governor.memory().used(),
              static_cast<int64_t>(oracle.total_bytes));
    cube.ReleaseMemory(&governor);
    EXPECT_EQ(governor.memory().used(), 0);
  }
}

TEST(CubeTest, GovernedTinyBudgetTripsCleanly) {
  Result<PatientsDataset> ds = MakePatientsDataset();
  ASSERT_TRUE(ds.ok());
  for (int threads : {0, 4}) {
    SCOPED_TRACE(threads);
    std::unique_ptr<WorkerPool> pool;
    if (threads > 0) pool = std::make_unique<WorkerPool>(threads);
    ExecutionGovernor governor;
    governor.SetMemoryLimitBytes(64);
    ZeroGenCube::BuildInfo info;
    ZeroGenCube cube =
        ZeroGenCube::Build(ds->table, ds->qid, pool.get(), &info, &governor);
    EXPECT_TRUE(governor.Tripped());
    // A tripped build hands back nothing and leaks nothing.
    EXPECT_EQ(cube.num_subsets(), 0u);
    EXPECT_EQ(info.num_subsets, 0u);
    EXPECT_EQ(governor.memory().used(), 0);
  }
}

}  // namespace
}  // namespace incognito
