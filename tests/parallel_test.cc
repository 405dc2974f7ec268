// Tests for the parallel machinery of the Incognito search
// (src/core/incognito.cc): the worker pool, the GovernorShard lease
// protocol, the parallel frequency-set scan and cube build, the ablation
// switches across thread counts, and the sound partial-result contract
// when a budget trips mid-search. The thread-count x variant x batching x
// governance x resume matrix lives in execution_matrix_test.cc.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/checker.h"
#include "core/incognito.h"
#include "core/worker_pool.h"
#include "data/adults.h"
#include "data/patients.h"
#include "freq/cube.h"
#include "freq/frequency_set.h"
#include "robust/fault_injector.h"
#include "robust/governor.h"
#include "robust/partial_result.h"
#include "test_util.h"

namespace incognito {
namespace {

using testing_util::MakeRandomDataset;
using testing_util::NodeSet;
using testing_util::RandomDataset;

// ---------------------------------------------------------------------------
// WorkerPool
// ---------------------------------------------------------------------------

TEST(WorkerPoolTest, PartitionCoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 3, 4, 8}) {
    WorkerPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{17}, size_t{100}}) {
      std::vector<std::atomic<int>> hits(n);
      for (auto& h : hits) h.store(0);
      pool.Run(n, [&](int worker, size_t begin, size_t end) {
        EXPECT_GE(worker, 0);
        EXPECT_LT(worker, threads);
        for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST(WorkerPoolTest, RunIsABarrierAndReusable) {
  WorkerPool pool(4);
  // Sequential Runs see each other's writes without extra synchronization:
  // the barrier at the end of Run orders them.
  std::vector<int64_t> data(1000, 0);
  for (int round = 1; round <= 3; ++round) {
    pool.Run(data.size(), [&](int, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) data[i] += round;
    });
  }
  for (int64_t v : data) EXPECT_EQ(v, 1 + 2 + 3);
}

TEST(WorkerPoolTest, DistinctWorkersRunDistinctChunks) {
  WorkerPool pool(4);
  std::vector<int> owner(64, -1);
  pool.Run(owner.size(), [&](int worker, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) owner[i] = worker;
  });
  // Static partition: workers own contiguous, ascending ranges.
  for (size_t i = 1; i < owner.size(); ++i) {
    EXPECT_GE(owner[i], owner[i - 1]);
  }
  EXPECT_EQ(owner.front(), 0);
  EXPECT_EQ(owner.back(), 3);
}

// ---------------------------------------------------------------------------
// GovernorShard lease protocol
// ---------------------------------------------------------------------------

TEST(GovernorShardTest, LeasesInChunksAndDrainReturnsEverything) {
  ExecutionGovernor governor;  // unlimited
  {
    GovernorShard shard(&governor, /*lease_chunk_bytes=*/1024);
    EXPECT_TRUE(shard.ChargeMemory(100).ok());
    // One whole chunk was leased for a 100-byte charge.
    EXPECT_EQ(shard.leased_bytes(), 1024);
    EXPECT_EQ(shard.used_bytes(), 100);
    EXPECT_EQ(governor.memory().used(), 1024);
    // Fits inside the existing lease: no new chunk.
    EXPECT_TRUE(shard.ChargeMemory(900).ok());
    EXPECT_EQ(shard.leased_bytes(), 1024);
    // Overflows the lease: another chunk.
    EXPECT_TRUE(shard.ChargeMemory(100).ok());
    EXPECT_EQ(shard.leased_bytes(), 2048);
    EXPECT_EQ(shard.high_water_bytes(), 2048);
    shard.ReleaseMemory(1100);
    EXPECT_EQ(shard.used_bytes(), 0);
    // Releases stay local: the lease is monotonic until Drain.
    EXPECT_EQ(governor.memory().used(), 2048);
    shard.Drain();
    EXPECT_EQ(governor.memory().used(), 0);
    EXPECT_EQ(shard.high_water_bytes(), 2048);  // high-water survives Drain
  }
  EXPECT_EQ(governor.memory().used(), 0);
}

TEST(GovernorShardTest, ExactSizeRetryWhenChunkRefused) {
  ExecutionGovernor governor;
  governor.SetMemoryLimitBytes(500);  // smaller than one chunk
  GovernorShard shard(&governor, /*lease_chunk_bytes=*/1024);
  // The whole-chunk lease is refused but the exact-size retry fits, so a
  // global budget smaller than the chunk still admits what fits (like the
  // serial path's exact accounting).
  EXPECT_TRUE(shard.ChargeMemory(400).ok());
  EXPECT_EQ(shard.leased_bytes(), 400);
  EXPECT_FALSE(governor.Tripped());
  shard.Drain();
  EXPECT_EQ(governor.memory().used(), 0);
}

TEST(GovernorShardTest, RefusalLatchesSharedTripForSiblings) {
  ExecutionGovernor governor;
  governor.SetMemoryLimitBytes(1000);
  GovernorShard a(&governor, 256);
  GovernorShard b(&governor, 256);
  EXPECT_TRUE(a.ChargeMemory(900).ok());
  Status refused = b.ChargeMemory(900);
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(b.trips().memory_trips, 1);
  // The sibling observes the shared trip at its next checkpoint.
  EXPECT_EQ(a.Check().code(), StatusCode::kResourceExhausted);
  a.Drain();
  b.Drain();
  EXPECT_EQ(governor.memory().used(), 0);
  // Drain folded both shards' counters into the governor.
  EXPECT_GE(governor.trips().memory_trips, 1);
  EXPECT_GE(governor.trips().checks, 1);
}

TEST(GovernorShardTest, ChecksObserveParentDeadlineAndCancel) {
  CancelToken token;
  ExecutionGovernor governor;
  governor.SetCancelToken(&token);
  GovernorShard shard(&governor);
  EXPECT_TRUE(shard.Check().ok());
  token.Cancel();
  EXPECT_EQ(shard.Check().code(), StatusCode::kCancelled);
  // Latched locally and shared.
  EXPECT_EQ(shard.Check().code(), StatusCode::kCancelled);
  EXPECT_EQ(governor.SharedTrip().code(), StatusCode::kCancelled);
}

// ---------------------------------------------------------------------------
// Ablation switches: every thread count == one worker, bit for bit
// ---------------------------------------------------------------------------

std::vector<std::string> Strings(const std::vector<SubsetNode>& nodes) {
  std::vector<std::string> out;
  out.reserve(nodes.size());
  for (const SubsetNode& n : nodes) out.push_back(n.ToString());
  return out;
}

/// Asserts a multi-worker result is indistinguishable from the one-worker
/// one: same answer set (in the same order), same survivor sets per
/// iteration, and the same node-count statistics. governor_checks and the trip
/// counters are excluded — checkpoint cadence is per-worker by design.
void ExpectBitIdentical(const IncognitoResult& serial,
                        const IncognitoResult& parallel) {
  EXPECT_EQ(Strings(serial.anonymous_nodes), Strings(parallel.anonymous_nodes));
  ASSERT_EQ(serial.per_iteration_survivors.size(),
            parallel.per_iteration_survivors.size());
  for (size_t i = 0; i < serial.per_iteration_survivors.size(); ++i) {
    EXPECT_EQ(Strings(serial.per_iteration_survivors[i]),
              Strings(parallel.per_iteration_survivors[i]))
        << "iteration " << i + 1;
  }
  EXPECT_EQ(serial.completed_iterations, parallel.completed_iterations);
  EXPECT_EQ(serial.stats.nodes_checked, parallel.stats.nodes_checked);
  EXPECT_EQ(serial.stats.nodes_marked, parallel.stats.nodes_marked);
  EXPECT_EQ(serial.stats.table_scans, parallel.stats.table_scans);
  EXPECT_EQ(serial.stats.rollups, parallel.stats.rollups);
  EXPECT_EQ(serial.stats.freq_groups_built, parallel.stats.freq_groups_built);
  EXPECT_EQ(serial.stats.candidate_nodes, parallel.stats.candidate_nodes);
}

TEST(ParallelIncognitoTest, RollupAblationStaysBitIdentical) {
  Rng rng(5);
  RandomDataset data = MakeRandomDataset(rng);
  AnonymizationConfig config;
  config.k = 3;
  IncognitoOptions options;
  options.use_rollup = false;
  PartialResult<IncognitoResult> serial =
      RunIncognito(data.table, data.qid, config, options);
  ASSERT_TRUE(serial.ok());
  PartialResult<IncognitoResult> parallel =
      RunIncognito(data.table, data.qid, config, options, RunContext::WithThreads(3));
  ASSERT_TRUE(parallel.ok());
  ExpectBitIdentical(*serial, *parallel);
  EXPECT_EQ(parallel->stats.rollups, 0);
}

TEST(ParallelIncognitoTest, NonTransitiveMarkingStaysBitIdentical) {
  Rng rng(29);
  RandomDataset data = MakeRandomDataset(rng);
  AnonymizationConfig config;
  config.k = 2;
  IncognitoOptions options;
  options.mark_transitively = false;
  PartialResult<IncognitoResult> serial =
      RunIncognito(data.table, data.qid, config, options);
  ASSERT_TRUE(serial.ok());
  PartialResult<IncognitoResult> parallel =
      RunIncognito(data.table, data.qid, config, options, RunContext::WithThreads(4));
  ASSERT_TRUE(parallel.ok());
  ExpectBitIdentical(*serial, *parallel);
}

// ---------------------------------------------------------------------------
// Trips: cancellation, deadline, shard memory budgets
// ---------------------------------------------------------------------------

TEST(ParallelIncognitoTest, DeadlineZeroReturnsEmptyValidPartial) {
  Rng rng(7);
  RandomDataset data = MakeRandomDataset(rng);
  AnonymizationConfig config;
  config.k = 2;
  ExecutionGovernor governor;
  governor.SetDeadline(Deadline::AfterMillis(0));
  PartialResult<IncognitoResult> run =
      RunIncognito(data.table, data.qid, config, {}, RunContext::Governed(governor, 4));
  ASSERT_TRUE(run.partial());
  EXPECT_EQ(run.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(run->anonymous_nodes.empty());
  EXPECT_EQ(run->completed_iterations, 0);
  EXPECT_GE(run->stats.deadline_trips, 1);
  EXPECT_EQ(governor.memory().used(), 0);
}

TEST(ParallelIncognitoTest, PreCancelledTokenTripsCleanly) {
  Rng rng(7);
  RandomDataset data = MakeRandomDataset(rng);
  AnonymizationConfig config;
  config.k = 2;
  CancelToken token;
  token.Cancel();
  ExecutionGovernor governor;
  governor.SetCancelToken(&token);
  PartialResult<IncognitoResult> run =
      RunIncognito(data.table, data.qid, config, {}, RunContext::Governed(governor, 4));
  ASSERT_TRUE(run.partial());
  EXPECT_EQ(run.status().code(), StatusCode::kCancelled);
  EXPECT_GE(run->stats.cancel_trips, 1);
  EXPECT_EQ(governor.memory().used(), 0);
}

TEST(ParallelIncognitoTest, MidSearchCancelFromSecondThreadDrainsCleanly) {
  // A search slow enough (5 attributes, no rollup, larger table) that the
  // canceller thread reliably lands mid-run; every worker must latch and
  // the pool must drain with all shard memory returned.
  Rng rng(11);
  testing_util::RandomDatasetOptions opts;
  opts.num_attrs = 5;
  opts.max_height = 3;
  opts.num_rows = 4000;
  RandomDataset data = MakeRandomDataset(rng, opts);
  AnonymizationConfig config;
  config.k = 2;
  IncognitoOptions options;
  options.use_rollup = false;
  CancelToken token;
  ExecutionGovernor governor;
  governor.SetCancelToken(&token);
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    token.Cancel();
  });
  PartialResult<IncognitoResult> run = RunIncognito(
      data.table, data.qid, config, options, RunContext::Governed(governor, 4));
  canceller.join();
  if (run.partial()) {
    EXPECT_EQ(run.status().code(), StatusCode::kCancelled);
    EXPECT_GE(run->stats.cancel_trips, 1);
    // Everything proven before the trip is sound: completed iterations
    // carry their full survivor sets.
    EXPECT_EQ(run->per_iteration_survivors.size(),
              static_cast<size_t>(run->completed_iterations));
  } else {
    EXPECT_TRUE(run.complete());
  }
  EXPECT_EQ(governor.memory().used(), 0);
}

TEST(ParallelIncognitoTest, ShardBudgetTripYieldsSoundPrefixAndBoundedPeaks) {
  Rng rng(33);
  RandomDataset data = MakeRandomDataset(rng);
  AnonymizationConfig config;
  config.k = 2;
  PartialResult<IncognitoResult> full = RunIncognito(data.table, data.qid, config);
  ASSERT_TRUE(full.ok());

  bool saw_partial = false;
  for (int64_t limit : {int64_t{512}, int64_t{4} << 10, int64_t{64} << 10,
                        int64_t{1} << 20, int64_t{16} << 20}) {
    ExecutionGovernor governor;
    governor.SetMemoryLimitBytes(limit);
    PartialResult<IncognitoResult> run =
        RunIncognito(data.table, data.qid, config, {}, RunContext::Governed(governor, 4));
    ASSERT_FALSE(run.hard_error()) << run.status().ToString();
    // Sum of per-shard high-water leases never exceeds the global limit —
    // leases are charged to the shared budget before they count.
    int64_t high_water_sum = 0;
    for (int64_t hw : run->shard_high_water_bytes) high_water_sum += hw;
    EXPECT_LE(high_water_sum, limit) << "limit=" << limit;
    EXPECT_EQ(governor.memory().used(), 0) << "limit=" << limit;
    if (run.partial()) {
      saw_partial = true;
      EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
      EXPECT_GE(run->stats.memory_trips, 1);
      // Sound prefix: every completed iteration's survivor set equals the
      // unconstrained run's.
      ASSERT_LE(run->per_iteration_survivors.size(),
                full->per_iteration_survivors.size());
      for (size_t i = 0; i < run->per_iteration_survivors.size(); ++i) {
        EXPECT_EQ(Strings(run->per_iteration_survivors[i]),
                  Strings(full->per_iteration_survivors[i]));
      }
    } else {
      ExpectBitIdentical(*full, run.value());
    }
  }
  EXPECT_TRUE(saw_partial) << "no limit in the sweep tripped; weaken limits";
}

// ---------------------------------------------------------------------------
// Differential: pool-wide FrequencySet::ComputeBatch scans == the
// single-threaded scan, bit for bit, on every fixture dataset (cube_test
// sweeps the cube build's pool sizes against a direct-scan oracle).
// ---------------------------------------------------------------------------

using GroupList = std::vector<std::pair<std::vector<int32_t>, int64_t>>;

GroupList GroupsOf(const FrequencySet& fs) {
  GroupList out;
  const size_t width = fs.node().size();
  fs.ForEachGroup([&](const int32_t* codes, int64_t count) {
    out.emplace_back(std::vector<int32_t>(codes, codes + width), count);
  });
  return out;
}

void ExpectSameFrequencySet(const FrequencySet& serial,
                            const FrequencySet& parallel) {
  EXPECT_EQ(GroupsOf(serial), GroupsOf(parallel));
  EXPECT_EQ(serial.TotalCount(), parallel.TotalCount());
  EXPECT_EQ(serial.MinCount(), parallel.MinCount());
  EXPECT_EQ(serial.MemoryBytes(), parallel.MemoryBytes());
}

/// Sweeps serial-vs-parallel scans over a representative node set of
/// `qid` at 1/2/4/8 threads: the full bottom node, every single
/// attribute, and the full node one level up on every dimension.
void SweepPooledScans(const Table& table, const QuasiIdentifier& qid) {
  const size_t n = qid.size();
  std::vector<SubsetNode> nodes;
  std::vector<int32_t> dims(n);
  for (size_t i = 0; i < n; ++i) dims[i] = static_cast<int32_t>(i);
  nodes.emplace_back(dims, std::vector<int32_t>(n, 0));
  for (size_t i = 0; i < n; ++i) {
    nodes.emplace_back(std::vector<int32_t>{static_cast<int32_t>(i)},
                       std::vector<int32_t>{0});
  }
  std::vector<int32_t> up(n);
  for (size_t i = 0; i < n; ++i) {
    up[i] = qid.hierarchy(i).height() >= 1 ? 1 : 0;
  }
  nodes.emplace_back(dims, up);
  for (int threads : {1, 2, 4, 8}) {
    WorkerPool pool(threads);
    for (const SubsetNode& node : nodes) {
      SCOPED_TRACE(node.ToString() + " threads=" + std::to_string(threads));
      FrequencySet serial = FrequencySet::Compute(table, qid, node);
      std::vector<FrequencySet> parallel =
          FrequencySet::ComputeBatch(table, qid, {node}, &pool);
      ExpectSameFrequencySet(serial, parallel[0]);
    }
  }
}

TEST(PooledScanTest, MatchesSerialOnEveryFixture) {
  {
    Result<PatientsDataset> patients = MakePatientsDataset();
    ASSERT_TRUE(patients.ok());
    SweepPooledScans(patients->table, patients->qid);
  }
  {
    AdultsOptions adults;
    adults.num_rows = 300;
    Result<SyntheticDataset> data = MakeAdultsDataset(adults);
    ASSERT_TRUE(data.ok());
    SweepPooledScans(data->table, data->qid.Prefix(3));
  }
  for (uint64_t seed : {uint64_t{3}, uint64_t{17}, uint64_t{101}}) {
    Rng rng(seed);
    RandomDataset data = MakeRandomDataset(rng);
    SweepPooledScans(data.table, data.qid);
  }
  {
    RandomDataset wide = testing_util::MakeWideFallbackDataset(400);
    SweepPooledScans(wide.table, wide.qid);
  }
}

TEST(PooledScanTest, GovernedScanMatchesAndDrainsShardsToZero) {
  AdultsOptions adults;
  adults.num_rows = 300;
  Result<SyntheticDataset> data = MakeAdultsDataset(adults);
  ASSERT_TRUE(data.ok());
  QuasiIdentifier qid = data->qid.Prefix(3);
  std::vector<int32_t> dims = {0, 1, 2};
  SubsetNode node(dims, {0, 0, 0});
  FrequencySet serial = FrequencySet::Compute(data->table, qid, node);
  WorkerPool pool(4);
  ExecutionGovernor governor;
  governor.SetMemoryLimitBytes(int64_t{1} << 30);
  std::vector<FrequencySet> parallel =
      FrequencySet::ComputeBatch(data->table, qid, {node}, &pool, &governor);
  EXPECT_FALSE(governor.Tripped());
  ExpectSameFrequencySet(serial, parallel[0]);
  // The per-worker shard leases are transient: drained before returning,
  // so the caller owns the only live charge (here: none yet).
  EXPECT_EQ(governor.memory().used(), 0);
  EXPECT_GE(governor.trips().checks, 1);
}

TEST(PooledScanTest, TinyBudgetTripsToEmptySetWithNothingLeaked) {
  AdultsOptions adults;
  adults.num_rows = 300;
  Result<SyntheticDataset> data = MakeAdultsDataset(adults);
  ASSERT_TRUE(data.ok());
  QuasiIdentifier qid = data->qid.Prefix(3);
  SubsetNode node({0, 1, 2}, {0, 0, 0});
  WorkerPool pool(4);
  ExecutionGovernor governor;
  governor.SetMemoryLimitBytes(16);  // smaller than a single group entry
  std::vector<FrequencySet> tripped =
      FrequencySet::ComputeBatch(data->table, qid, {node}, &pool, &governor);
  EXPECT_TRUE(governor.Tripped());
  EXPECT_EQ(tripped[0].NumGroups(), 0u);
  EXPECT_EQ(governor.memory().used(), 0);
  // Callers detect the trip exactly like a serial refusal: the latched
  // status comes back from the next charge.
  EXPECT_EQ(governor.ChargeMemory(0).code(), StatusCode::kResourceExhausted);
}

TEST(ParallelIncognitoTest, GovernedCubeVariantDrainsEveryShardToZero) {
  AdultsOptions adults;
  adults.num_rows = 300;
  Result<SyntheticDataset> data = MakeAdultsDataset(adults);
  ASSERT_TRUE(data.ok());
  QuasiIdentifier qid = data->qid.Prefix(3);
  AnonymizationConfig config;
  config.k = 5;
  IncognitoOptions options;
  options.variant = IncognitoVariant::kCube;
  PartialResult<IncognitoResult> serial =
      RunIncognito(data->table, qid, config, options);
  ASSERT_TRUE(serial.ok());
  ExecutionGovernor governor;
  governor.SetMemoryLimitBytes(int64_t{1} << 33);
  PartialResult<IncognitoResult> governed =
      RunIncognito(data->table, qid, config, options, RunContext::Governed(governor, 4));
  ASSERT_TRUE(governed.complete()) << governed.status().ToString();
  ExpectBitIdentical(*serial, governed.value());
  EXPECT_EQ(governed->stats.parallel_workers, 4);
  // Acceptance: every shard — search workers, scan chunks, cube
  // projections — drained back to the shared budget.
  EXPECT_EQ(governor.memory().used(), 0);
}

// ---------------------------------------------------------------------------
// Fault injection (only with -DINCOGNITO_FAULTS=ON)
// ---------------------------------------------------------------------------

TEST(ParallelFaultTest, RandomFaultsNeverCrashTheParallelSearch) {
  if (!FaultInjector::kCompiledIn) {
    GTEST_SKIP() << "build with -DINCOGNITO_FAULTS=ON";
  }
  Rng rng(7);
  RandomDataset data = MakeRandomDataset(rng);
  AnonymizationConfig config;
  config.k = 2;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    FaultInjector::Global().Reset();
    FaultInjector::Global().EnableRandom(seed, 0.05);
    ExecutionGovernor governor;
    governor.SetDeadline(Deadline::AfterMillis(60 * 1000));
    PartialResult<IncognitoResult> run =
        RunIncognito(data.table, data.qid, config, {}, RunContext::Governed(governor, 4));
    // Injected failures surface as clean partials (latched like a refused
    // charge) — never a crash, never leaked charges.
    if (run.partial()) {
      EXPECT_TRUE(IsResourceGovernance(run.status().code()))
          << run.status().ToString();
    }
    EXPECT_EQ(governor.memory().used(), 0) << "seed=" << seed;
  }
  FaultInjector::Global().Reset();
}

TEST(ParallelFaultTest, ScanFaultYieldsEmptySetAndLatchedTrip) {
  if (!FaultInjector::kCompiledIn) {
    GTEST_SKIP() << "build with -DINCOGNITO_FAULTS=ON";
  }
  Rng rng(7);
  RandomDataset data = MakeRandomDataset(rng);
  const size_t n = data.qid.size();
  std::vector<int32_t> dims(n);
  for (size_t i = 0; i < n; ++i) dims[i] = static_cast<int32_t>(i);
  SubsetNode node(dims, std::vector<int32_t>(n, 0));
  FaultInjector::Global().Reset();
  FaultInjector::Global().ScriptFailNthHit("freq.batch.scan", 1);
  WorkerPool pool(4);
  ExecutionGovernor governor;
  std::vector<FrequencySet> fs = FrequencySet::ComputeBatch(
      data.table, data.qid, {node}, &pool, &governor);
  EXPECT_EQ(FaultInjector::Global().FaultsFired(), 1);
  EXPECT_EQ(fs[0].NumGroups(), 0u);
  EXPECT_TRUE(governor.Tripped());
  EXPECT_EQ(governor.memory().used(), 0);
  // The one-shot script is consumed: a retry of the scan succeeds — but
  // on a fresh governor, since the first one stays latched.
  ExecutionGovernor retry_governor;
  std::vector<FrequencySet> retry = FrequencySet::ComputeBatch(
      data.table, data.qid, {node}, &pool, &retry_governor);
  EXPECT_FALSE(retry_governor.Tripped());
  EXPECT_EQ(GroupsOf(retry[0]),
            GroupsOf(FrequencySet::Compute(data.table, data.qid, node)));
  FaultInjector::Global().Reset();
}

TEST(ParallelFaultTest, CubeProjectFaultYieldsEmptyCubeAndBalances) {
  if (!FaultInjector::kCompiledIn) {
    GTEST_SKIP() << "build with -DINCOGNITO_FAULTS=ON";
  }
  Rng rng(7);
  RandomDataset data = MakeRandomDataset(rng);
  FaultInjector::Global().Reset();
  FaultInjector::Global().ScriptFailNthHit("cube.project", 1);
  WorkerPool pool(4);
  ExecutionGovernor governor;
  ZeroGenCube::BuildInfo info;
  ZeroGenCube cube =
      ZeroGenCube::Build(data.table, data.qid, &pool, &info, &governor);
  EXPECT_EQ(FaultInjector::Global().FaultsFired(), 1);
  EXPECT_TRUE(governor.Tripped());
  EXPECT_EQ(cube.num_subsets(), 0u);
  EXPECT_EQ(info.num_subsets, 0u);
  EXPECT_EQ(governor.memory().used(), 0);
  FaultInjector::Global().Reset();
}

TEST(ParallelFaultTest, NewSitesSurfaceAsCleanPartialsEndToEnd) {
  if (!FaultInjector::kCompiledIn) {
    GTEST_SKIP() << "build with -DINCOGNITO_FAULTS=ON";
  }
  // The governed parallel cube search reaches both new compute sites: the
  // parallel root scan ("freq.batch.scan") and the DAG projections
  // ("cube.project"). A scripted failure at either must surface as a
  // governance partial with the byte accounting balanced.
  Rng rng(7);
  RandomDataset data = MakeRandomDataset(rng);
  AnonymizationConfig config;
  config.k = 2;
  IncognitoOptions options;
  options.variant = IncognitoVariant::kCube;
  for (const char* site : {"freq.batch.scan", "cube.project"}) {
    FaultInjector::Global().Reset();
    FaultInjector::Global().ScriptFailNthHit(site, 1);
    ExecutionGovernor governor;
    PartialResult<IncognitoResult> run =
        RunIncognito(data.table, data.qid, config, options, RunContext::Governed(governor, 4));
    EXPECT_EQ(FaultInjector::Global().FaultsFired(), 1) << site;
    ASSERT_TRUE(run.partial()) << site;
    EXPECT_TRUE(IsResourceGovernance(run.status().code()))
        << site << ": " << run.status().ToString();
    EXPECT_EQ(governor.memory().used(), 0) << site;
  }
  FaultInjector::Global().Reset();
}

TEST(ParallelFaultTest, SubsetScheduleFaultSurfacesAsCleanPartial) {
  if (!FaultInjector::kCompiledIn) {
    GTEST_SKIP() << "build with -DINCOGNITO_FAULTS=ON";
  }
  // A scripted failure at the pipelined scheduler's dispatch site
  // ("incognito.subset.schedule") must latch like a refused charge:
  // governance partial, honest completed_iterations, balanced bytes.
  Rng rng(7);
  RandomDataset data = MakeRandomDataset(rng);
  AnonymizationConfig config;
  config.k = 2;
  FaultInjector::Global().Reset();
  FaultInjector::Global().ScriptFailNthHit("incognito.subset.schedule", 1);
  ExecutionGovernor governor;
  PartialResult<IncognitoResult> run = RunIncognito(
      data.table, data.qid, config, {}, RunContext::Governed(governor, 4));
  EXPECT_EQ(FaultInjector::Global().FaultsFired(), 1);
  ASSERT_TRUE(run.partial()) << run.status().ToString();
  EXPECT_TRUE(IsResourceGovernance(run.status().code()))
      << run.status().ToString();
  EXPECT_EQ(run->per_iteration_survivors.size(),
            static_cast<size_t>(run->completed_iterations));
  EXPECT_EQ(governor.memory().used(), 0);
  FaultInjector::Global().Reset();
}

TEST(ParallelFaultTest, RandomFaultsNeverCrashTheParallelCubeSearch) {
  if (!FaultInjector::kCompiledIn) {
    GTEST_SKIP() << "build with -DINCOGNITO_FAULTS=ON";
  }
  // The cube-variant soak additionally sweeps the DAG scheduler's fault
  // handling: a projection failure must stop every worker cleanly.
  Rng rng(7);
  RandomDataset data = MakeRandomDataset(rng);
  AnonymizationConfig config;
  config.k = 2;
  IncognitoOptions options;
  options.variant = IncognitoVariant::kCube;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    FaultInjector::Global().Reset();
    FaultInjector::Global().EnableRandom(seed, 0.05);
    ExecutionGovernor governor;
    governor.SetDeadline(Deadline::AfterMillis(60 * 1000));
    PartialResult<IncognitoResult> run =
        RunIncognito(data.table, data.qid, config, options, RunContext::Governed(governor, 4));
    if (run.partial()) {
      EXPECT_TRUE(IsResourceGovernance(run.status().code()))
          << run.status().ToString();
    }
    EXPECT_EQ(governor.memory().used(), 0) << "seed=" << seed;
  }
  FaultInjector::Global().Reset();
}

}  // namespace
}  // namespace incognito
