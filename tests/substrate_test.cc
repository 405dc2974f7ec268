// Unit and property tests for the group-by engine (src/freq/substrate.h,
// DESIGN.md "Group-by engine"): the radix kernels and the flat arena map
// against naive oracles; ComputeBatch, RollupTo and ProjectTo against a
// test-local std::map GROUP BY oracle — groups, canonical order and the
// exact-capacity MemoryBytes() — for packed and wide keys at every batch
// and pool size; and the governed scans' byte accounting (drain-to-zero,
// up-front radix buffer charges, mid-sort cancellation).

#include "freq/substrate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/incognito.h"
#include "core/run_context.h"
#include "core/worker_pool.h"
#include "data/adults.h"
#include "freq/frequency_set.h"
#include "freq/key_codec.h"
#include "robust/governor.h"
#include "robust/partial_result.h"
#include "test_util.h"

namespace incognito {
namespace {

using testing_util::MakeRandomDataset;
using testing_util::MakeWideFallbackDataset;
using testing_util::RandomDataset;

using CodeGroups = std::vector<std::pair<std::vector<int32_t>, int64_t>>;

CodeGroups GroupsOf(const FrequencySet& fs) {
  CodeGroups out;
  const size_t width = fs.node().size();
  fs.ForEachGroup([&](const int32_t* codes, int64_t count) {
    out.emplace_back(std::vector<int32_t>(codes, codes + width), count);
  });
  return out;
}

/// The bit-identity contract, in one assertion: same groups in the same
/// canonical order, same totals, and the same exact heap footprint.
void ExpectIdenticalSets(const FrequencySet& expected,
                         const FrequencySet& actual,
                         const std::string& context) {
  EXPECT_EQ(GroupsOf(expected), GroupsOf(actual)) << context;
  EXPECT_EQ(expected.TotalCount(), actual.TotalCount()) << context;
  EXPECT_EQ(expected.NumGroups(), actual.NumGroups()) << context;
  EXPECT_EQ(expected.MemoryBytes(), actual.MemoryBytes()) << context;
  EXPECT_EQ(expected.MinCount(), actual.MinCount()) << context;
}

// ---------------------------------------------------------------------------
// Radix kernels against naive oracles
// ---------------------------------------------------------------------------

TEST(RadixKernelTest, SortsExactlyLikeStdSort) {
  Rng rng(7);
  for (size_t total_bits : {0u, 1u, 7u, 8u, 9u, 16u, 24u, 33u, 64u}) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{1000}}) {
      std::vector<uint64_t> keys(n);
      const uint64_t mask =
          total_bits >= 64 ? ~uint64_t{0} : (uint64_t{1} << total_bits) - 1;
      for (auto& k : keys) k = rng.Next() & mask;
      std::vector<uint64_t> expected = keys;
      std::sort(expected.begin(), expected.end());
      std::vector<uint64_t> scratch;
      ASSERT_TRUE(RadixSortKeys(keys, scratch, total_bits));
      EXPECT_EQ(keys, expected) << "bits=" << total_bits << " n=" << n;
    }
  }
}

TEST(RadixKernelTest, CountedSortIsStable) {
  // Equal keys must keep their input order (the second pair member tags
  // the original position), or parallel merges would reorder chunk counts.
  Rng rng(11);
  std::vector<std::pair<uint64_t, int64_t>> items;
  for (int64_t i = 0; i < 2000; ++i) {
    items.emplace_back(rng.Next() % 17, i);
  }
  std::vector<std::pair<uint64_t, int64_t>> expected = items;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::vector<std::pair<uint64_t, int64_t>> scratch;
  ASSERT_TRUE(RadixSortCounted(items, scratch, 5));
  EXPECT_EQ(items, expected);
}

TEST(RadixKernelTest, TickAbortStopsTheSortAndReportsFalse) {
  Rng rng(13);
  std::vector<uint64_t> keys(4096);
  for (auto& k : keys) k = rng.Next();
  std::vector<uint64_t> sum_check = keys;
  std::sort(sum_check.begin(), sum_check.end());
  std::vector<uint64_t> scratch;
  int ticks = 0;
  // Deny the second scatter pass: the sort must abandon cleanly (returning
  // the permutation in `keys`, not half of it in scratch) and report false.
  EXPECT_FALSE(RadixSortKeys(keys, scratch, 64, [&] { return ++ticks < 2; }));
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(keys, sum_check);  // still a permutation of the input
  // A tick that always allows completes normally.
  EXPECT_TRUE(RadixSortKeys(keys, scratch, 64, [] { return true; }));
}

TEST(RadixKernelTest, ExtractGroupsMatchesMapOracle) {
  Rng rng(17);
  std::vector<uint64_t> keys(3000);
  std::map<uint64_t, int64_t> oracle;
  for (auto& k : keys) {
    k = rng.Next() % 100;
    ++oracle[k];
  }
  std::sort(keys.begin(), keys.end());
  std::vector<std::pair<uint64_t, int64_t>> groups;
  EXPECT_EQ(ExtractGroups(keys, &groups), oracle.size());
  ASSERT_EQ(groups.size(), oracle.size());
  // Exact-capacity reserve: the footprint contract MemoryBytes leans on.
  EXPECT_EQ(groups.capacity(), groups.size());
  size_t i = 0;
  for (const auto& [key, count] : oracle) {
    EXPECT_EQ(groups[i].first, key);
    EXPECT_EQ(groups[i].second, count);
    ++i;
  }
}

TEST(RadixKernelTest, GatherMatchesPerRowPack) {
  Rng rng(23);
  const std::vector<size_t> domains = {5, 3, 17, 2};
  KeyCodec codec = KeyCodec::Create(domains);
  ASSERT_TRUE(codec.packed());
  const size_t n = domains.size();
  const size_t rows = 500;
  // Base columns plus identity maps — GatherPackedKeys folds maps[i][col]
  // exactly like the per-row scan does.
  std::vector<std::vector<int32_t>> cols(n);
  std::vector<std::vector<int32_t>> maps(n);
  for (size_t i = 0; i < n; ++i) {
    cols[i].resize(rows);
    for (auto& c : cols[i]) c = static_cast<int32_t>(rng.Uniform(domains[i]));
    maps[i].resize(domains[i]);
    for (size_t v = 0; v < domains[i]; ++v) {
      maps[i][v] = static_cast<int32_t>(rng.Uniform(domains[i]));
    }
  }
  std::vector<const int32_t*> col_ptrs(n);
  std::vector<const int32_t*> map_ptrs(n);
  for (size_t i = 0; i < n; ++i) {
    col_ptrs[i] = cols[i].data();
    map_ptrs[i] = maps[i].data();
  }
  std::vector<uint64_t> keys;
  GatherPackedKeys(col_ptrs, map_ptrs, codec, 100, 400, &keys);
  ASSERT_EQ(keys.size(), 300u);
  std::vector<int32_t> codes(n);
  for (size_t r = 100; r < 400; ++r) {
    for (size_t i = 0; i < n; ++i) codes[i] = maps[i][cols[i][r]];
    EXPECT_EQ(keys[r - 100], codec.Pack(codes.data())) << "row " << r;
  }
}

// ---------------------------------------------------------------------------
// FlatCodeMap against a naive oracle
// ---------------------------------------------------------------------------

TEST(FlatCodeMapTest, MatchesMapOracleThroughGrowth) {
  Rng rng(29);
  const size_t width = 6;
  FlatCodeMap flat(width);  // default capacity: forces several growths
  std::map<std::vector<int32_t>, int64_t> oracle;
  std::vector<std::vector<int32_t>> insertion_order;
  for (int i = 0; i < 5000; ++i) {
    std::vector<int32_t> key(width);
    for (auto& c : key) c = static_cast<int32_t>(rng.Uniform(7));
    int64_t count = 1 + static_cast<int64_t>(rng.Uniform(3));
    if (oracle.find(key) == oracle.end()) insertion_order.push_back(key);
    oracle[key] += count;
    flat.Add(key.data(), count);
  }
  ASSERT_EQ(flat.size(), oracle.size());
  CodeGroups groups;
  flat.AppendTo(&groups);
  ASSERT_EQ(groups.size(), oracle.size());
  for (size_t i = 0; i < groups.size(); ++i) {
    // AppendTo preserves insertion order; counts match the oracle.
    EXPECT_EQ(groups[i].first, insertion_order[i]) << i;
    EXPECT_EQ(groups[i].second, oracle.at(groups[i].first)) << i;
    // Exact-size key copies: capacity == size for the MemoryBytes contract.
    EXPECT_EQ(groups[i].first.capacity(), groups[i].first.size()) << i;
  }
  EXPECT_GT(flat.MemoryBytes(), 0u);
}

TEST(FlatCodeMapTest, MemoryBytesGrowsMonotonically) {
  FlatCodeMap flat(3);
  size_t prev = flat.MemoryBytes();
  Rng rng(31);
  for (int i = 0; i < 2000; ++i) {
    int32_t key[3] = {static_cast<int32_t>(rng.Uniform(50)),
                      static_cast<int32_t>(rng.Uniform(50)),
                      static_cast<int32_t>(rng.Uniform(50))};
    flat.Add(key, 1);
    size_t now = flat.MemoryBytes();
    EXPECT_GE(now, prev);
    prev = now;
  }
}

// ---------------------------------------------------------------------------
// The GROUP BY oracle: ComputeBatch, RollupTo, ProjectTo
// ---------------------------------------------------------------------------

using OracleGroups = std::map<std::vector<int32_t>, int64_t>;

/// SELECT <node's generalized attrs>, COUNT(*) FROM table GROUP BY ...,
/// computed row by row into an ordered map.
OracleGroups GroupByOracle(const Table& table, const QuasiIdentifier& qid,
                           const SubsetNode& node) {
  OracleGroups oracle;
  std::vector<int32_t> codes(node.size());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t i = 0; i < node.size(); ++i) {
      const size_t d = static_cast<size_t>(node.dims[i]);
      const auto& map = qid.hierarchy(d).BaseToLevelMap(
          static_cast<size_t>(node.levels[i]));
      codes[i] = map[static_cast<size_t>(
          table.ColumnCodes(qid.column(d))[r])];
    }
    ++oracle[codes];
  }
  return oracle;
}

/// The exact-capacity footprint of a set holding `oracle`: 16-byte
/// entries when the node's key packs into 64 bits, else one
/// (vector, count) entry plus an exact-size code vector per group.
size_t OracleBytes(const QuasiIdentifier& qid, const SubsetNode& node,
                   const OracleGroups& oracle) {
  std::vector<size_t> cards;
  for (size_t i = 0; i < node.size(); ++i) {
    cards.push_back(qid.hierarchy(static_cast<size_t>(node.dims[i]))
                        .DomainSize(static_cast<size_t>(node.levels[i])));
  }
  if (KeyCodec::Create(cards).packed()) {
    return oracle.size() * sizeof(std::pair<uint64_t, int64_t>);
  }
  return oracle.size() *
         (sizeof(std::pair<std::vector<int32_t>, int64_t>) +
          node.size() * sizeof(int32_t));
}

/// Groups (in canonical order), totals and MemoryBytes() against the
/// oracle of `node` over `table`.
void ExpectMatchesOracle(const FrequencySet& fs, const Table& table,
                         const QuasiIdentifier& qid, const SubsetNode& node,
                         const std::string& context) {
  OracleGroups oracle = GroupByOracle(table, qid, node);
  CodeGroups expected(oracle.begin(), oracle.end());
  EXPECT_EQ(GroupsOf(fs), expected) << context;
  EXPECT_EQ(fs.NumGroups(), oracle.size()) << context;
  EXPECT_EQ(fs.TotalCount(), static_cast<int64_t>(table.num_rows()))
      << context;
  EXPECT_EQ(fs.MemoryBytes(), OracleBytes(qid, node, oracle)) << context;
}

/// A random node over a random non-empty subset of the QID's attributes.
SubsetNode RandomNode(Rng& rng, const QuasiIdentifier& qid) {
  const size_t n = qid.size();
  std::vector<int32_t> dims;
  while (dims.empty()) {
    for (size_t i = 0; i < n; ++i) {
      if (rng.Uniform(2) == 1) dims.push_back(static_cast<int32_t>(i));
    }
  }
  std::vector<int32_t> levels;
  for (int32_t d : dims) {
    levels.push_back(static_cast<int32_t>(
        rng.Uniform(qid.hierarchy(static_cast<size_t>(d)).height() + 1)));
  }
  return SubsetNode(dims, levels);
}

/// Every hierarchy at its root: one group whenever the table has rows.
SubsetNode ApexNode(const QuasiIdentifier& qid) {
  std::vector<int32_t> dims;
  std::vector<int32_t> levels;
  for (size_t i = 0; i < qid.size(); ++i) {
    dims.push_back(static_cast<int32_t>(i));
    levels.push_back(static_cast<int32_t>(qid.hierarchy(i).height()));
  }
  return SubsetNode(dims, levels);
}

/// Every attribute at level 0.
SubsetNode BaseNode(const QuasiIdentifier& qid) {
  std::vector<int32_t> dims;
  for (size_t i = 0; i < qid.size(); ++i) {
    dims.push_back(static_cast<int32_t>(i));
  }
  return SubsetNode(dims, std::vector<int32_t>(qid.size(), 0));
}

/// Runs batches of 1-4 nodes drawn by `draw` through ComputeBatch on no
/// pool and on pools of 1, 2 and 4 workers; every set must match the
/// oracle.
template <typename Draw>
void SweepBatches(Rng& rng, const RandomDataset& ds, Draw draw,
                  const std::string& label) {
  WorkerPool pool1(1);
  WorkerPool pool2(2);
  WorkerPool pool4(4);
  for (size_t batch_size = 1; batch_size <= 4; ++batch_size) {
    std::vector<SubsetNode> batch;
    for (size_t j = 0; j < batch_size; ++j) batch.push_back(draw(rng, j));
    for (WorkerPool* pool : {static_cast<WorkerPool*>(nullptr), &pool1,
                             &pool2, &pool4}) {
      std::vector<FrequencySet> sets =
          FrequencySet::ComputeBatch(ds.table, ds.qid, batch, pool);
      ASSERT_EQ(sets.size(), batch.size());
      for (size_t j = 0; j < batch.size(); ++j) {
        ExpectMatchesOracle(
            sets[j], ds.table, ds.qid, batch[j],
            label + " rows=" + std::to_string(ds.table.num_rows()) +
                " batch=" + std::to_string(batch_size) + " pool=" +
                std::to_string(pool != nullptr ? pool->size() : 0) + " " +
                batch[j].ToString());
      }
    }
  }
}

TEST(GroupByOracleTest, ComputeBatchMatchesOnPackedKeys) {
  Rng rng(1009);
  for (size_t rows : {size_t{0}, size_t{1}, size_t{57}, size_t{400}}) {
    testing_util::RandomDatasetOptions opts;
    opts.num_attrs = 2 + rng.Uniform(4);
    opts.num_rows = rows;
    RandomDataset ds = MakeRandomDataset(rng, opts);
    SweepBatches(rng, ds,
                 [&](Rng& r, size_t j) {
                   // The first node of every batch is the apex (a single
                   // group); the rest are random.
                   return j == 0 ? ApexNode(ds.qid) : RandomNode(r, ds.qid);
                 },
                 "packed");
  }
}

TEST(GroupByOracleTest, ComputeBatchMatchesOnWideKeys) {
  // All six 4096-value attributes at level 0 need 72 key bits, beyond the
  // packed path; a batch mixes that wide node with random (mostly packed)
  // ones, so both engines share one scan.
  Rng rng(2027);
  for (size_t rows : {size_t{0}, size_t{1}, size_t{300}}) {
    RandomDataset ds = MakeWideFallbackDataset(rows);
    SweepBatches(rng, ds,
                 [&](Rng& r, size_t j) {
                   return j == 0 ? BaseNode(ds.qid) : RandomNode(r, ds.qid);
                 },
                 "wide");
  }
}

TEST(GroupByOracleTest, ComputeMatchesMapOracleOnRandomTables) {
  Rng rng(1013);
  for (int trial = 0; trial < 12; ++trial) {
    testing_util::RandomDatasetOptions opts;
    opts.num_attrs = 2 + rng.Uniform(4);
    opts.num_rows = 50 + rng.Uniform(400);
    RandomDataset ds = MakeRandomDataset(rng, opts);
    SubsetNode node = RandomNode(rng, ds.qid);
    FrequencySet fs = FrequencySet::Compute(ds.table, ds.qid, node);
    ExpectMatchesOracle(fs, ds.table, ds.qid, node,
                        "trial " + std::to_string(trial));
  }
}

TEST(GroupByOracleTest, RollupToMatchesOracleOnRandomTables) {
  // Rolling a node up to any generalization of it equals grouping the
  // table at that generalization directly.
  Rng rng(1019);
  for (int trial = 0; trial < 24; ++trial) {
    testing_util::RandomDatasetOptions opts;
    opts.num_attrs = 2 + rng.Uniform(4);
    opts.num_rows = rng.Uniform(300);
    RandomDataset ds = MakeRandomDataset(rng, opts);
    SubsetNode from = RandomNode(rng, ds.qid);
    SubsetNode to = from;
    for (size_t i = 0; i < to.size(); ++i) {
      const size_t height =
          ds.qid.hierarchy(static_cast<size_t>(to.dims[i])).height();
      to.levels[i] += static_cast<int32_t>(
          rng.Uniform(height - static_cast<size_t>(to.levels[i]) + 1));
    }
    FrequencySet base = FrequencySet::Compute(ds.table, ds.qid, from);
    ExpectMatchesOracle(base.RollupTo(to, ds.qid), ds.table, ds.qid, to,
                        "trial " + std::to_string(trial) + " " +
                            from.ToString() + " -> " + to.ToString());
  }
  // Wide keys roll up through the flat map; rolling one attribute to '*'
  // leaves 60 bits, which packs again.
  RandomDataset wide = MakeWideFallbackDataset(300);
  SubsetNode base_node = BaseNode(wide.qid);
  FrequencySet base = FrequencySet::Compute(wide.table, wide.qid, base_node);
  ExpectMatchesOracle(base.RollupTo(base_node, wide.qid), wide.table,
                      wide.qid, base_node, "wide identity rollup");
  SubsetNode packed_target = base_node;
  packed_target.levels[0] = 1;
  ExpectMatchesOracle(base.RollupTo(packed_target, wide.qid), wide.table,
                      wide.qid, packed_target, "wide to packed rollup");
}

TEST(GroupByOracleTest, ProjectToMatchesOracleOnRandomTables) {
  // Projecting onto a subset of the attributes equals grouping the table
  // by that subset directly.
  Rng rng(1021);
  for (int trial = 0; trial < 24; ++trial) {
    testing_util::RandomDatasetOptions opts;
    opts.num_attrs = 2 + rng.Uniform(4);
    opts.num_rows = rng.Uniform(300);
    RandomDataset ds = MakeRandomDataset(rng, opts);
    SubsetNode from = RandomNode(rng, ds.qid);
    SubsetNode to;
    while (to.dims.empty()) {
      to = SubsetNode();
      for (size_t i = 0; i < from.size(); ++i) {
        if (rng.Uniform(2) == 1) {
          to.dims.push_back(from.dims[i]);
          to.levels.push_back(from.levels[i]);
        }
      }
    }
    FrequencySet base = FrequencySet::Compute(ds.table, ds.qid, from);
    ExpectMatchesOracle(base.ProjectTo(to, ds.qid), ds.table, ds.qid, to,
                        "trial " + std::to_string(trial) + " " +
                            from.ToString() + " -> " + to.ToString());
  }
  RandomDataset wide = MakeWideFallbackDataset(300);
  FrequencySet base =
      FrequencySet::Compute(wide.table, wide.qid, BaseNode(wide.qid));
  SubsetNode target({0, 1, 2, 3, 4}, {0, 0, 0, 0, 0});
  ExpectMatchesOracle(base.ProjectTo(target, wide.qid), wide.table, wide.qid,
                      target, "wide projection");
}

// ---------------------------------------------------------------------------
// Governed scans: exact byte accounting
// ---------------------------------------------------------------------------

TEST(SubstrateGovernedTest, GovernedScanDrainsToZero) {
  AdultsOptions adults;
  adults.num_rows = 5000;
  Result<SyntheticDataset> data = MakeAdultsDataset(adults);
  ASSERT_TRUE(data.ok());
  SubsetNode node({0, 1, 2}, {0, 0, 0});
  FrequencySet expected = FrequencySet::Compute(data->table, data->qid, node);
  for (int threads : {1, 4}) {
    ExecutionGovernor governor;
    governor.SetMemoryLimitBytes(int64_t{1} << 30);
    WorkerPool pool(threads);
    FrequencySet governed = std::move(FrequencySet::ComputeBatch(
        data->table, data->qid, {node}, &pool, &governor)[0]);
    const std::string context = "threads=" + std::to_string(threads);
    ExpectIdenticalSets(expected, governed, context);
    EXPECT_TRUE(governor.Check().ok()) << context;
    // Every transient byte — sort buffers included — returned to the
    // budget; only the drained high-water marks remain.
    EXPECT_EQ(governor.memory().used(), 0) << context;
    EXPECT_GT(governor.memory().peak(), 0) << context;
  }
}

TEST(SubstrateGovernedTest, RadixBufferChargeTripsTinyBudgets) {
  // The budget is smaller than one worker's gather+scratch buffers, so the
  // radix scan must trip at the up-front buffer charge — before the sort —
  // and unwind with nothing leaked.
  AdultsOptions adults;
  adults.num_rows = 5000;
  Result<SyntheticDataset> data = MakeAdultsDataset(adults);
  ASSERT_TRUE(data.ok());
  SubsetNode node({0, 1, 2}, {0, 0, 0});
  for (int threads : {1, 4}) {
    ExecutionGovernor governor;
    governor.SetMemoryLimitBytes(1024);  // << 2 * chunk_rows * 8 bytes
    WorkerPool pool(threads);
    FrequencySet tripped = std::move(FrequencySet::ComputeBatch(
        data->table, data->qid, {node}, &pool, &governor)[0]);
    EXPECT_EQ(tripped.NumGroups(), 0u);
    EXPECT_EQ(governor.SharedTrip().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(governor.memory().used(), 0);
  }
}

TEST(SubstrateGovernedTest, MidSortCancelAbandonsTheSortCleanly) {
  // Cancel before the scan starts: the radix workers see the trip at their
  // sort tick (or the initial Check), abandon, and the scan returns empty
  // with the budget balanced — the mid-sort trip soundness check.
  AdultsOptions adults;
  adults.num_rows = 5000;
  Result<SyntheticDataset> data = MakeAdultsDataset(adults);
  ASSERT_TRUE(data.ok());
  SubsetNode node({0, 1, 2}, {0, 0, 0});
  CancelToken token;
  ExecutionGovernor governor;
  governor.SetCancelToken(&token);
  token.Cancel();
  WorkerPool pool(4);
  FrequencySet tripped = std::move(FrequencySet::ComputeBatch(
      data->table, data->qid, {node}, &pool, &governor)[0]);
  EXPECT_EQ(tripped.NumGroups(), 0u);
  EXPECT_EQ(governor.SharedTrip().code(), StatusCode::kCancelled);
  EXPECT_EQ(governor.memory().used(), 0);
}

TEST(SubstrateGovernedTest, GovernedBatchDrainsToZero) {
  AdultsOptions adults;
  adults.num_rows = 5000;
  Result<SyntheticDataset> data = MakeAdultsDataset(adults);
  ASSERT_TRUE(data.ok());
  const std::vector<SubsetNode> batch = {SubsetNode({0, 1, 2}, {0, 0, 0}),
                                         SubsetNode({0, 1, 2}, {1, 0, 0}),
                                         SubsetNode({0, 1, 2}, {4, 1, 1})};
  for (int threads : {1, 4}) {
    ExecutionGovernor governor;
    governor.SetMemoryLimitBytes(int64_t{1} << 30);
    WorkerPool pool(threads);
    std::vector<FrequencySet> sets = FrequencySet::ComputeBatch(
        data->table, data->qid, batch, &pool, &governor);
    ASSERT_EQ(sets.size(), batch.size());
    for (size_t j = 0; j < batch.size(); ++j) {
      FrequencySet direct =
          FrequencySet::Compute(data->table, data->qid, batch[j]);
      ExpectIdenticalSets(direct, sets[j], batch[j].ToString());
    }
    EXPECT_EQ(governor.memory().used(), 0) << "threads=" << threads;
  }
}

TEST(SubstrateGovernedTest, GovernedSearchMatchesUngoverned) {
  AdultsOptions adults;
  adults.num_rows = 5000;
  Result<SyntheticDataset> data = MakeAdultsDataset(adults);
  ASSERT_TRUE(data.ok());
  QuasiIdentifier qid = data->qid.Prefix(3);
  AnonymizationConfig config;
  config.k = 25;
  PartialResult<IncognitoResult> baseline =
      RunIncognito(data->table, qid, config);
  ASSERT_TRUE(baseline.ok());
  ExecutionGovernor governor;
  governor.SetMemoryLimitBytes(int64_t{1} << 33);
  PartialResult<IncognitoResult> governed = RunIncognito(
      data->table, qid, config, {}, RunContext::Governed(governor, 4));
  ASSERT_TRUE(governed.ok());
  EXPECT_EQ(testing_util::NodeSet(baseline->anonymous_nodes),
            testing_util::NodeSet(governed->anonymous_nodes));
  EXPECT_EQ(baseline->stats.nodes_checked, governed->stats.nodes_checked);
  EXPECT_EQ(baseline->stats.freq_groups_built,
            governed->stats.freq_groups_built);
  EXPECT_EQ(governor.memory().used(), 0);
}

}  // namespace
}  // namespace incognito
