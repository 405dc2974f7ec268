#include "core/incognito.h"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "core/checkpoint_resume.h"
#include "core/worker_pool.h"
#include "freq/cube.h"
#include "freq/frequency_set.h"
#include "lattice/candidate_gen.h"
#include "lattice/graph_tables.h"
#include "obs/obs.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "robust/checkpoint.h"
#include "robust/fault_injector.h"

namespace incognito {

const char* IncognitoVariantName(IncognitoVariant variant) {
  switch (variant) {
    case IncognitoVariant::kBasic:
      return "Basic Incognito";
    case IncognitoVariant::kSuperRoots:
      return "Super-roots Incognito";
    case IncognitoVariant::kCube:
      return "Cube Incognito";
  }
  return "Incognito";
}

namespace {

/// One evaluator of a candidate graph: the worker shard its memory charges
/// go to and the stats its counters land in.
struct Lane {
  GovernorShard* shard;
  AlgorithmStats* stats;
};

/// The modified breadth-first search of paper §3.1.1 over one candidate
/// graph (docs/PARALLELISM.md). The paper's queue is ordered by (height,
/// id), and every effect of processing a node — marks, newly enqueued
/// generalizations, retained rollup sources — lands only on strictly
/// greater heights. So the walk drains one whole height level at a time:
/// it batches the level's scan-required nodes into shared scans, evaluates
/// the level, and merges the outcomes in ascending node id, which visits
/// the exact node sequence of a one-node-at-a-time walk.
///
/// A node's frequency set comes from (in preference order) a failed direct
/// specialization via rollup, the cube or a family super-root via rollup,
/// or a scan of T.
///
/// With a null `pool` the walk evaluates inline on its single lane — a
/// subset task on its own worker. With a pool, each level is partitioned
/// across it, worker w charging lanes[w] — the apex graph, which has the
/// pool to itself.
///
/// With a non-null `diversity` the frequency sets are built over
/// node ∪ {S}: `key_qid` is the search QID plus the sensitive column as
/// its last attribute (QuasiIdentifier::WithSensitive), and a node passes
/// the grouped (k, ℓ) check instead of the k-anonymity check.
class GraphWalk {
 public:
  GraphWalk(const Table& table, const QuasiIdentifier& key_qid,
            const AnonymizationConfig& config,
            const DiversityPredicate* diversity,
            const IncognitoOptions& options, const ZeroGenCube* cube,
            ExecutionGovernor* governor, WorkerPool* pool,
            std::vector<Lane> lanes)
      : table_(table),
        qid_(key_qid),
        config_(config),
        diversity_(diversity),
        options_(options),
        cube_(cube),
        governor_(governor),
        pool_(pool),
        lanes_(std::move(lanes)) {}

  /// Returns failed[id] == true iff T was checked and found NOT
  /// k-anonymous w.r.t. node id; every other node is k-anonymous (checked,
  /// marked, or implied). This is exactly the deletion set for S_i. A
  /// budget trip aborts the walk and returns the trip status with every
  /// charged byte released first.
  Result<std::vector<bool>> Run(const CandidateGraph& graph) {
    INCOGNITO_SPAN("incognito.graph_search");
    const size_t n = graph.num_nodes();
    std::vector<bool> failed(n, false);
    std::vector<bool> marked(n, false);
    std::vector<char> enqueued(n, 0);
    GovernorShard& main_shard = *lanes_[0].shard;
    AlgorithmStats& main_stats = *lanes_[0].stats;

    // Frequency sets of failed nodes, kept for their generalizations to
    // roll up from; freed once every direct generalization is processed.
    // Written only by the merge; evaluation reads it concurrently but
    // never mutates it.
    std::unordered_map<int64_t, StoredEntry> stored;
    std::unordered_map<int64_t, int64_t> pending_uses;

    auto release_parents = [&](int64_t id) {
      for (int64_t spec : graph.InEdges(id)) {
        auto it = pending_uses.find(spec);
        if (it != pending_uses.end() && --it->second == 0) {
          auto sit = stored.find(spec);
          if (sit != stored.end()) {
            lanes_[static_cast<size_t>(sit->second.owner)]
                .shard->ReleaseMemory(sit->second.bytes);
          }
          stored.erase(spec);
          pending_uses.erase(it);
        }
      }
    };

    // Frequency sets pre-built by the shared batch scans — the minimal-
    // front pre-pass plus each level's top-up (options_.batch_scans) —
    // keyed by node id. Retention bytes stay charged until the evaluating
    // worker takes the set (zeroing `bytes`); front entries for higher
    // levels persist across levels.
    std::unordered_map<int64_t, BatchEntry> batch;
    // Super-root sets of the graph's multi-root families.
    std::map<std::vector<int32_t>, FrequencySet> family_freq;

    auto release_all = [&]() {
      for (const auto& [sid, entry] : stored) {
        (void)sid;
        lanes_[static_cast<size_t>(entry.owner)].shard->ReleaseMemory(
            entry.bytes);
      }
      for (const auto& [dims, fs] : family_freq) {
        (void)dims;
        ReleaseRetained(static_cast<int64_t>(fs.MemoryBytes()));
      }
      for (const auto& [bid, entry] : batch) {
        (void)bid;
        ReleaseRetained(entry.bytes);  // zero once taken
      }
    };

    // Super-roots (§3.3.1): every multi-root family shares one scan via
    // its greatest common specialization (the componentwise minimum of
    // the roots' levels), from which each root rolls up. Roots have no
    // in-edges, so they are never marked and every family set is used.
    std::vector<int64_t> roots = graph.Roots();
    if (options_.variant == IncognitoVariant::kSuperRoots) {
      std::map<std::vector<int32_t>, std::vector<int64_t>> families;
      for (int64_t r : roots) {
        families[graph.node(r).ToSubsetNode().dims].push_back(r);
      }
      for (const auto& [dims, fam] : families) {
        if (fam.size() <= 1) continue;
        SubsetNode super;
        super.dims = dims;
        std::vector<int32_t> min_levels(dims.size(), INT32_MAX);
        for (int64_t r : fam) {
          const NodeRow& row = graph.node(r);
          for (size_t i = 0; i < row.pairs.size(); ++i) {
            min_levels[i] = std::min(min_levels[i], row.pairs[i].index);
          }
        }
        super.levels = std::move(min_levels);
        ++main_stats.table_scans;
        INCOGNITO_COUNT("freq.scans");
        FrequencySet super_freq = std::move(FrequencySet::ComputeBatch(
            table_, qid_, {KeyNode(std::move(super))}, pool_, governor_)[0]);
        main_stats.freq_groups_built +=
            static_cast<int64_t>(super_freq.NumGroups());
        Status charged =
            ChargeRetained(static_cast<int64_t>(super_freq.MemoryBytes()));
        if (!charged.ok()) {
          release_all();
          return charged;
        }
        family_freq.emplace(dims, std::move(super_freq));
      }
    }

    // Scan-sharing batch build (docs/PARALLELISM.md "Scan-sharing batch
    // evaluation"): groups the given nodes' scan-required members by
    // attribute subset and feeds each group from ONE pass over the table.
    // `stored`, `marked` and `family_freq` are frozen between levels, so
    // a batched node is precisely one that would have scanned on its own.
    // One table scan is counted per (subset, front-or-level) group.
    auto build_batches = [&](const std::vector<int64_t>& list) -> Status {
      std::map<std::vector<int32_t>, std::vector<int64_t>> groups;
      for (int64_t id : list) {
        if (marked[static_cast<size_t>(id)] || batch.count(id) != 0) {
          continue;
        }
        SubsetNode node = graph.node(id).ToSubsetNode();
        if (HasStoredParent(graph, id, stored) ||
            family_freq.count(node.dims) != 0) {
          continue;
        }
        groups[node.dims].push_back(id);
      }
      for (const auto& [dims, group] : groups) {
        (void)dims;
        std::vector<SubsetNode> nodes;
        nodes.reserve(group.size());
        for (int64_t id : group) {
          nodes.push_back(KeyNode(graph.node(id).ToSubsetNode()));
        }
        ++main_stats.table_scans;
        main_stats.batched_scan_nodes += static_cast<int64_t>(group.size());
        INCOGNITO_COUNT("freq.batch_scans");
        INCOGNITO_COUNT_ADD("freq.batch_scan_nodes",
                            static_cast<int64_t>(group.size()));
        Stopwatch batch_timer;
        std::vector<FrequencySet> sets = FrequencySet::ComputeBatch(
            table_, qid_, nodes, pool_, governor_);
        main_stats.batch_scan_seconds += batch_timer.ElapsedSeconds();
        Status bstatus = main_shard.Check();
        for (size_t j = 0; bstatus.ok() && j < group.size(); ++j) {
          int64_t bytes = static_cast<int64_t>(sets[j].MemoryBytes());
          bstatus = ChargeRetained(bytes);
          if (bstatus.ok()) {
            batch.emplace(group[j], BatchEntry{std::move(sets[j]), bytes});
          }
        }
        if (!bstatus.ok()) return bstatus;  // caller's release_all unwinds
      }
      return Status::OK();
    };

    // The frontier, bucketed by height; each bucket drains in ascending
    // node id.
    std::map<int32_t, std::vector<int64_t>> by_height;
    for (int64_t r : roots) {
      enqueued[static_cast<size_t>(r)] = 1;
      by_height[graph.node(r).Height()].push_back(r);
    }

    if (options_.batch_scans && cube_ == nullptr) {
      // Minimal-front pre-pass: roots have no in-lattice parents, so they
      // can never gain a rollup source or be marked — one shared scan per
      // subset covers the whole front even when a subset's roots span
      // several heights, which per-level batching cannot merge.
      Status batched = build_batches(roots);
      if (!batched.ok()) {
        release_all();
        return batched;
      }
    }

    while (!by_height.empty()) {
      // Catches trips latched by candidate generation, the cube build, or
      // a previous level's evaluation.
      Status checkpoint = main_shard.Check();
      if (!checkpoint.ok()) {
        release_all();
        return checkpoint;
      }

      auto level_it = by_height.begin();
      std::vector<int64_t> ids = std::move(level_it->second);
      by_height.erase(level_it);
      std::sort(ids.begin(), ids.end());

      // Scan-sharing level top-up: batch the level's scan-required nodes
      // that the minimal-front pre-pass could not have covered.
      if (options_.batch_scans && cube_ == nullptr) {
        Status batched = build_batches(ids);
        if (!batched.ok()) {
          release_all();
          return batched;
        }
      }

      // Evaluate every node of the level. Evaluation only reads shared
      // search state (marked, stored, family_freq, the graph, the cube)
      // and writes its own outcome slots, lane stats, and shard
      // accounting; the merge below applies the outcomes.
      std::vector<NodeOutcome> outcomes(ids.size());
      std::vector<Status> lane_status(lanes_.size());
      auto evaluate = [&](int w, size_t begin, size_t end) {
        const Lane& lane = lanes_[static_cast<size_t>(w)];
        for (size_t i = begin; i < end; ++i) {
          Status cp = lane.shard->Check();
          if (!cp.ok()) {
            lane_status[static_cast<size_t>(w)] = cp;
            return;
          }
          const int64_t id = ids[i];
          NodeOutcome& out = outcomes[i];
          if (marked[static_cast<size_t>(id)]) continue;
          SubsetNode node = graph.node(id).ToSubsetNode();
          FrequencySet freq;
          auto bit = batch.find(id);
          if (bit != batch.end()) {
            // Pre-built by a shared scan; swap its retention charge for
            // this lane's charge below. Each entry belongs to exactly one
            // node, so no two workers touch it.
            ReleaseRetained(bit->second.bytes);
            bit->second.bytes = 0;
            freq = std::move(bit->second.freq);
          } else {
            freq = ComputeFrequencySet(graph, id, node, stored, family_freq,
                                       lane.stats);
          }
          int64_t freq_bytes = static_cast<int64_t>(freq.MemoryBytes());
          Status charged = lane.shard->ChargeMemory(freq_bytes);
          if (!charged.ok()) {
            lane_status[static_cast<size_t>(w)] = charged;
            return;
          }
          ++lane.stats->nodes_checked;
          lane.stats->freq_groups_built +=
              static_cast<int64_t>(freq.NumGroups());
          INCOGNITO_COUNT("incognito.kchecks");
          bool anonymous;
          {
            INCOGNITO_PHASE_TIMER("phase.kcheck_seconds");
            anonymous = Passes(freq);
          }
          if (anonymous) {
            lane.shard->ReleaseMemory(freq_bytes);
            out.kind = kAnonymous;
          } else {
            out.kind = kFailed;
            out.owner = w;
            out.bytes = freq_bytes;
            out.freq = std::move(freq);
          }
        }
      };
      if (pool_ != nullptr) {
        pool_->Run(ids.size(), evaluate);
      } else {
        evaluate(0, 0, ids.size());
      }

      // A trip in any lane latched the shared status; unwind.
      Status trip = governor_->SharedTrip();
      for (const Status& ls : lane_status) {
        if (trip.ok() && !ls.ok()) trip = ls;
      }
      if (!trip.ok()) {
        for (NodeOutcome& out : outcomes) {
          if (out.kind == kFailed) {
            lanes_[static_cast<size_t>(out.owner)].shard->ReleaseMemory(
                out.bytes);
          }
        }
        release_all();
        return trip;
      }

      // Merge the level's outcomes in ascending node id.
      for (size_t i = 0; i < ids.size(); ++i) {
        const int64_t id = ids[i];
        NodeOutcome& out = outcomes[i];
        batch.erase(id);  // the taken, zero-byte entry
        if (out.kind == kAnonymous) {
          // Generalization property: every generalization is k-anonymous.
          INCOGNITO_PHASE_TIMER("phase.mark_seconds");
          MarkGeneralizations(graph, id, &marked, &main_stats);
        } else if (out.kind == kFailed) {
          failed[static_cast<size_t>(id)] = true;
          const auto& gens = graph.OutEdges(id);
          if (!gens.empty() && options_.use_rollup) {
            pending_uses[id] = static_cast<int64_t>(gens.size());
            stored.emplace(id, StoredEntry{std::move(out.freq), out.bytes,
                                           out.owner});
          } else {
            lanes_[static_cast<size_t>(out.owner)].shard->ReleaseMemory(
                out.bytes);
          }
          for (int64_t g : gens) {
            if (!enqueued[static_cast<size_t>(g)]) {
              enqueued[static_cast<size_t>(g)] = 1;
              by_height[graph.node(g).Height()].push_back(g);
            }
          }
        }
        release_parents(id);
      }
    }
    release_all();
    return failed;
  }

 private:
  enum OutcomeKind : uint8_t { kSkipped, kAnonymous, kFailed };

  /// One node's evaluation, applied by the merge.
  struct NodeOutcome {
    OutcomeKind kind = kSkipped;  // kSkipped: the node was already marked
    int owner = 0;                // lane holding a failed node's charge
    int64_t bytes = 0;
    FrequencySet freq;
  };

  /// A failed node's retained frequency set plus the lane its bytes are
  /// charged to.
  struct StoredEntry {
    FrequencySet freq;
    int64_t bytes = 0;
    int owner = 0;
  };

  /// A frequency set pre-built by a shared batch scan plus its retention
  /// charge; the evaluating worker zeroes `bytes` when it takes the set.
  struct BatchEntry {
    FrequencySet freq;
    int64_t bytes = 0;
  };

  // Retained sets (batch entries, super-root sets) are charged between
  // levels and released by whichever worker takes them. Across a pool the
  // governor's thread-safe budget holds them; inline, the lane's shard.
  Status ChargeRetained(int64_t bytes) {
    return pool_ != nullptr ? governor_->ChargeMemory(bytes)
                            : lanes_[0].shard->ChargeMemory(bytes);
  }
  void ReleaseRetained(int64_t bytes) {
    if (pool_ != nullptr) {
      governor_->ReleaseMemory(bytes);
    } else {
      lanes_[0].shard->ReleaseMemory(bytes);
    }
  }

  /// The frequency-set node of a search node: the node itself, or
  /// node ∪ {S} with S at level 0 as the last field.
  SubsetNode KeyNode(SubsetNode node) const {
    if (diversity_ != nullptr) {
      node.dims.push_back(static_cast<int32_t>(qid_.size() - 1));
      node.levels.push_back(0);
    }
    return node;
  }

  /// The privacy check: k-anonymity, or distinct (k, ℓ)-diversity over the
  /// QID groups of a node ∪ {S} set; either within the suppression budget.
  bool Passes(const FrequencySet& freq) const {
    const int64_t violating =
        diversity_ == nullptr ? freq.TuplesBelowK(config_.k)
                              : freq.TuplesViolating(config_.k, diversity_->l);
    return violating <= config_.max_suppressed;
  }

  /// True iff the node can roll up from a retained failed specialization.
  bool HasStoredParent(
      const CandidateGraph& graph, int64_t id,
      const std::unordered_map<int64_t, StoredEntry>& stored) const {
    if (!options_.use_rollup) return false;
    for (int64_t spec : graph.InEdges(id)) {
      if (stored.count(spec) != 0) return true;
    }
    return false;
  }

  FrequencySet ComputeFrequencySet(
      const CandidateGraph& graph, int64_t id, const SubsetNode& node,
      const std::unordered_map<int64_t, StoredEntry>& stored,
      const std::map<std::vector<int32_t>, FrequencySet>& family_freq,
      AlgorithmStats* stats) const {
    const SubsetNode key = KeyNode(node);
    // Preferred source: a failed direct specialization's frequency set
    // (Rollup Property) — the cheapest, since it is already partially
    // aggregated.
    if (options_.use_rollup) {
      for (int64_t spec : graph.InEdges(id)) {
        auto it = stored.find(spec);
        if (it != stored.end()) {
          // Fault site "incognito.rollup": an injected allocation failure
          // while aggregating the rollup latches like a refused charge;
          // every lane stops at its next checkpoint.
          if (INCOGNITO_FAULT_FIRED("incognito.rollup")) {
            governor_->LatchInjectedFailure("incognito.rollup");
          }
          ++stats->rollups;
          return it->second.freq.RollupTo(key, qid_);
        }
      }
    }
    // Cube Incognito: roll up from the pre-computed zero-generalization
    // frequency set of this attribute subset instead of scanning T.
    if (cube_ != nullptr) {
      ++stats->rollups;
      return cube_->Get(node.dims).RollupTo(key, qid_);
    }
    auto fam = family_freq.find(node.dims);
    if (fam != family_freq.end()) {
      ++stats->rollups;
      return fam->second.RollupTo(key, qid_);
    }
    // Fallback: scan the table (Basic Incognito roots).
    ++stats->table_scans;
    return FrequencySet::Compute(table_, qid_, key);
  }

  void MarkGeneralizations(const CandidateGraph& graph, int64_t id,
                           std::vector<bool>* marked, AlgorithmStats* stats) {
    for (int64_t g : graph.OutEdges(id)) {
      if (!(*marked)[static_cast<size_t>(g)]) {
        (*marked)[static_cast<size_t>(g)] = true;
        ++stats->nodes_marked;
        INCOGNITO_COUNT("incognito.nodes_marked");
        if (options_.mark_transitively) {
          MarkGeneralizations(graph, g, marked, stats);
        }
      }
    }
  }

  const Table& table_;
  const QuasiIdentifier& qid_;
  const AnonymizationConfig& config_;
  const DiversityPredicate* diversity_;  // null: plain k-anonymity
  const IncognitoOptions& options_;
  const ZeroGenCube* cube_;
  ExecutionGovernor* governor_;  // never null; unlimited when ungoverned
  WorkerPool* pool_;             // null: evaluate inline on lanes_[0]
  const std::vector<Lane> lanes_;
};

int SubsetSize(uint64_t mask) { return __builtin_popcountll(mask); }

/// Ascending (subset size, mask): small subsets first — each one published
/// unblocks work across the next tier. Also a topological order of the
/// subset DAG.
struct MaskOrder {
  bool operator()(uint64_t a, uint64_t b) const {
    int sa = SubsetSize(a), sb = SubsetSize(b);
    return sa != sb ? sa < sb : a < b;
  }
};

/// The candidate graph of subset `mask`: its attribute's hierarchy chain
/// for a single attribute, otherwise generated from the survivor graphs of
/// its immediate sub-subsets (GenerateSubsetGraph's parent order).
CandidateGraph SubsetCandidates(
    const QuasiIdentifier& qid, uint64_t mask,
    const std::vector<const CandidateGraph*>& parents, GovernorShard* shard) {
  if (parents.empty()) {
    return MakeSingleDimensionChain(
        qid, static_cast<size_t>(__builtin_ctzll(mask)));
  }
  return GenerateSubsetGraph(parents, nullptr, shard);
}

/// The surviving nodes of a searched graph, sorted.
std::vector<SubsetNode> SortedNodes(const CandidateGraph& graph) {
  std::vector<SubsetNode> nodes;
  nodes.reserve(graph.num_nodes());
  for (const NodeRow& row : graph.nodes()) nodes.push_back(row.ToSubsetNode());
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

/// Searches `graph` with `walk` and returns its survivor graph S.
Result<CandidateGraph> SearchGraph(GraphWalk& walk,
                                   const CandidateGraph& graph) {
  Result<std::vector<bool>> failed = walk.Run(graph);
  if (!failed.ok()) return failed.status();
  std::vector<bool> keep(failed->size());
  for (size_t j = 0; j < keep.size(); ++j) keep[j] = !(*failed)[j];
  return graph.InducedSubgraph(keep);
}

Status ValidateSearch(const QuasiIdentifier& qid,
                      const AnonymizationConfig& config,
                      const IncognitoOptions& options) {
  if (config.k < 1) {
    return Status::InvalidArgument("k must be >= 1");
  }
  if (config.max_suppressed < 0) {
    return Status::InvalidArgument("max_suppressed must be >= 0");
  }
  if (qid.size() == 0) {
    return Status::InvalidArgument("quasi-identifier must be non-empty");
  }
  if (qid.size() > 64) {
    return Status::InvalidArgument(
        "quasi-identifier has more than 64 attributes");
  }
  // The cube materializes 2^n - 1 frequency sets; refuse it before any
  // scan rather than let it exhaust memory.
  if (options.variant == IncognitoVariant::kCube &&
      qid.size() > ZeroGenCube::kMaxAttributes) {
    return Status::InvalidArgument(
        "Cube Incognito supports at most " +
        std::to_string(ZeroGenCube::kMaxAttributes) +
        " quasi-identifier attributes");
  }
  return Status::OK();
}

/// The one search behind both RunIncognito overloads; `diversity` null
/// searches for k-anonymity.
PartialResult<IncognitoResult> Search(const Table& table,
                                      const QuasiIdentifier& qid,
                                      const AnonymizationConfig& config,
                                      const DiversityPredicate* diversity,
                                      const IncognitoOptions& options,
                                      const RunContext& ctx) {
  INCOGNITO_SPAN("incognito.run");
  INCOGNITO_COUNT("incognito.runs");
  Stopwatch total_timer;
  IncognitoResult result;

  // Ungoverned runs still charge shards of a private unlimited governor,
  // so the charge accounting is exercised identically.
  ExecutionGovernor local;
  ExecutionGovernor* governor = ctx.governor != nullptr ? ctx.governor : &local;

  WorkerPool pool(ctx.num_threads);
  const int workers = pool.size();
#ifndef INCOGNITO_OBS_DISABLED
  // Scheduler telemetry: the cube build's and the apex search's pool
  // chunks are recorded by the pool itself; the DAG detaches the pool and
  // records one event per subset task instead.
  obs::TaskTimeline timeline(workers);
  pool.set_timeline(&timeline, "pool.chunk");
#endif
  std::vector<std::unique_ptr<GovernorShard>> shards;
  std::vector<AlgorithmStats> worker_stats(static_cast<size_t>(workers));
  std::vector<Lane> lanes;
  for (int w = 0; w < workers; ++w) {
    shards.push_back(std::make_unique<GovernorShard>(governor));
    lanes.push_back({shards.back().get(), &worker_stats[static_cast<size_t>(w)]});
  }

  // Crash-safe checkpointing (robust/checkpoint.h): one mask record per
  // finished subset; a trip spills the snapshot before the partial result
  // is released.
  std::unique_ptr<CheckpointManager> ckpt;
  CheckpointFingerprint fingerprint;
  if (ctx.checkpoint != nullptr && ctx.checkpoint->enabled()) {
    fingerprint =
        MakeCheckpointFingerprint(table, qid, config, options, diversity);
    ckpt = std::make_unique<CheckpointManager>(*ctx.checkpoint, fingerprint);
  }

  // The QID the frequency sets key on: the search QID, or for ℓ-diversity
  // that QID plus the sensitive column as node ∪ {S}'s last field.
  const QuasiIdentifier key_qid =
      diversity != nullptr
          ? qid.WithSensitive(table, diversity->sensitive_column)
          : QuasiIdentifier();
  const QuasiIdentifier& freq_qid = diversity != nullptr ? key_qid : qid;

  ZeroGenCube cube;
  // Drains every shard back into the governor, folds the workers' stats
  // into the result, and records the shard high-water marks. Runs exactly
  // once, on every return path.
  auto finalize = [&]() {
    cube.ReleaseMemory(governor);
    if (ckpt != nullptr) {
      result.stats.checkpoint_writes = ckpt->writes();
      result.stats.checkpoint_bytes = ckpt->bytes_written();
      result.stats.checkpoint_write_failures = ckpt->write_failures();
    }
    for (auto& shard : shards) {
      result.shard_high_water_bytes.push_back(shard->high_water_bytes());
      shard->Drain();
    }
    for (const AlgorithmStats& ws : worker_stats) {
      result.stats.MergeCounters(ws);
    }
    result.stats.parallel_workers = workers;
    result.stats.total_seconds = total_timer.ElapsedSeconds();
    // Ungoverned runs leave the trip counters at zero.
    if (ctx.governor != nullptr) ctx.governor->ExportTrips(&result.stats);
#ifndef INCOGNITO_OBS_DISABLED
    pool.set_timeline(nullptr);
    obs::TimelineStats timeline_stats = timeline.Derive();
    result.stats.tasks_scheduled = timeline_stats.tasks;
    result.stats.critical_path_seconds = timeline_stats.critical_path_seconds;
    result.stats.scheduler_idle_seconds =
        timeline_stats.scheduler_idle_seconds;
    result.worker_utilization = std::move(timeline_stats.worker_utilization);
    if (obs::TraceRecorder::Global().enabled()) {
      timeline.ExportTo(obs::TraceRecorder::Global());
    }
#endif
  };

  auto stop_early = [&](Status trip) -> PartialResult<IncognitoResult> {
    if (ckpt != nullptr) ckpt->WriteNow();  // spill before dying
    finalize();
    if (IsResourceGovernance(trip.code())) {
      return PartialResult<IncognitoResult>::Partial(std::move(trip),
                                                     std::move(result));
    }
    return trip;
  };

  // Resume decision — before the cube build, so a kRequire failure costs
  // nothing.
  ResumeDecision resume;
  if (ckpt != nullptr) {
    Result<ResumeDecision> decision = DecideResume(ctx.checkpoint, fingerprint);
    if (!decision.ok()) return stop_early(decision.status());
    resume = std::move(decision).value();
  }

  // Cube Incognito pre-computes all zero-generalization frequency sets
  // across the pool before the search starts (the search only reads the
  // finished cube).
  const ZeroGenCube* cube_ptr = nullptr;
  if (options.variant == IncognitoVariant::kCube) {
    Stopwatch cube_timer;
    ZeroGenCube::BuildInfo info;
    cube = ZeroGenCube::Build(table, qid, &pool, &info, governor);
    cube_ptr = &cube;
    result.stats.cube_build_seconds = cube_timer.ElapsedSeconds();
    result.stats.table_scans += info.table_scans;
    result.stats.freq_groups_built += static_cast<int64_t>(info.total_groups);
    if (governor->Tripped()) return stop_early(governor->TripStatus());
  }

  // ---- The subset DAG (docs/PARALLELISM.md) ------------------------------
  // Paper Fig. 8 builds the size-(i+1) candidates only from S_i, so the
  // candidates of one attribute subset depend only on its immediate
  // sub-subsets; the paper's iteration order is one topological order of
  // this DAG. Every proper subset is a task that is materialized once all
  // of its immediate sub-subsets have published non-empty survivors (an
  // empty one leaves no candidates to search) and runs on one worker; the
  // final size-n graph depends on every size-(n-1) subset, an inherent
  // barrier, so it runs last across the whole pool.
  const size_t n = qid.size();
  const uint64_t full = n == 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
  struct SubsetTask {
    CandidateGraph survivors;  // published survivor graph, adjacency built
    bool done = false;
    uint64_t ready_ns = 0;     // when the task became runnable (telemetry)
  };
  // Node-based, so a published task's survivors stay put while other
  // workers insert.
  std::unordered_map<uint64_t, SubsetTask> tasks;
  std::set<uint64_t, MaskOrder> ready;
  // Materialized, unpublished tasks per subset size. A level is complete
  // when it and every smaller level have none left: a finished level
  // (s-1) has materialized every size-s subset that will ever run.
  std::vector<int64_t> unfinished(n + 1, 0);
  int64_t remaining = 0;

  // True iff every immediate sub-subset of `mask` has published non-empty
  // survivors (always, for a single attribute).
  auto parents_ready = [&](uint64_t mask) {
    if (SubsetSize(mask) == 1) return true;
    for (uint64_t rest = mask; rest != 0; rest &= rest - 1) {
      auto it = tasks.find(mask ^ (rest & -rest));
      if (it == tasks.end() || !it->second.done ||
          it->second.survivors.num_nodes() == 0) {
        return false;
      }
    }
    return true;
  };
  // parents[j] drops the j-th attribute of `mask` in ascending order —
  // GenerateSubsetGraph's contract; empty for a single attribute.
  auto parent_graphs = [&](uint64_t mask) {
    std::vector<const CandidateGraph*> parents;
    if (SubsetSize(mask) == 1) return parents;
    for (uint64_t rest = mask; rest != 0; rest &= rest - 1) {
      parents.push_back(&tasks.at(mask ^ (rest & -rest)).survivors);
    }
    return parents;
  };
  auto materialize = [&](uint64_t mask) {
    SubsetTask& task = tasks[mask];  // inserts the task
#ifndef INCOGNITO_OBS_DISABLED
    task.ready_ns = obs::TraceRecorder::NowNs();
#endif
    (void)task;
    ready.insert(mask);
    ++unfinished[static_cast<size_t>(SubsetSize(mask))];
    ++remaining;
  };
  // Materializes every proper superset of a just-published `mask` whose
  // immediate sub-subsets are now all published and non-empty.
  auto release_children = [&](uint64_t mask) {
    if (tasks.at(mask).survivors.num_nodes() == 0) return;
    for (uint64_t d = 0; d < n; ++d) {
      const uint64_t child = mask | (uint64_t{1} << d);
      if (child == mask || child == full || tasks.count(child) != 0) continue;
      if (parents_ready(child)) materialize(child);
    }
  };
  auto completed_prefix = [&] {
    int64_t completed = 0;
    for (size_t s = 1; s < n && unfinished[s] == 0; ++s) {
      completed = static_cast<int64_t>(s);
    }
    return completed;
  };

  // Resume: re-anchor the checkpointed, downward-closed set of finished
  // subsets into regenerated candidate graphs (no stats counted — the
  // restored deltas carry those counters) and publish them before the
  // pool starts. A record is restored when every immediate sub-subset was,
  // with survivors; ascending (size, mask) order visits sub-subsets first.
  bool apex_restored = false;
  std::vector<SubsetNode> apex_nodes;
  if (resume.restore) {
    std::map<uint64_t, const CheckpointRecord*, MaskOrder> records;
    for (const CheckpointRecord& rec : resume.snapshot.records) {
      records[rec.mask] = &rec;
    }
    CheckpointCounters restored_counters;
    const CheckpointRecord* apex_record = nullptr;
    Status restore_status;
    for (const auto& [mask, rec] : records) {
      if (!parents_ready(mask)) continue;
      if (mask == full) {
        apex_record = rec;
        continue;
      }
      Result<CandidateGraph> survivors = RebuildSurvivorGraph(
          SubsetCandidates(qid, mask, parent_graphs(mask), nullptr),
          rec->survivors);
      if (!survivors.ok()) {
        restore_status = survivors.status();
        break;
      }
      SubsetTask& task = tasks[mask];
      task.survivors = std::move(survivors).value();
      task.done = true;
      restored_counters += rec->counters;
    }
    if (!restore_status.ok()) {
      if (ctx.checkpoint->resume == ResumeMode::kRequire) {
        return stop_early(restore_status);
      }
      tasks.clear();  // kAuto: the checkpoint cannot seed this run
    } else if (!tasks.empty() || apex_record != nullptr) {
      ckpt->Seed(resume.snapshot);
      if (apex_record != nullptr) {
        apex_restored = true;
        apex_nodes = apex_record->survivors;
        restored_counters += apex_record->counters;
      }
      result.stats.restored_subsets =
          static_cast<int64_t>(tasks.size()) + (apex_restored ? 1 : 0);
      AddCounters(restored_counters, &result.stats);
    }
  }
  for (size_t d = 0; d < n; ++d) {
    const uint64_t single = uint64_t{1} << d;
    if (single != full && tasks.count(single) == 0) materialize(single);
  }
  {
    std::vector<uint64_t> published;
    for (const auto& [mask, task] : tasks) {
      if (task.done) published.push_back(mask);
    }
    for (uint64_t mask : published) release_children(mask);
  }
  // Restored complete levels; the apex level also counts when its search
  // is restored or has nothing to search.
  result.stats.restored_iterations = completed_prefix();
  if (apex_restored || (result.stats.restored_iterations ==
                            static_cast<int64_t>(n) - 1 &&
                        !parents_ready(full))) {
    result.stats.restored_iterations = static_cast<int64_t>(n);
  }

  std::mutex mu;
  std::condition_variable cv;
  bool stopped = false;
  std::vector<Status> worker_status(static_cast<size_t>(workers));
  if (remaining > 0) {
    INCOGNITO_SPAN("incognito.dag");
#ifndef INCOGNITO_OBS_DISABLED
    pool.set_timeline(nullptr);
#endif
    pool.Run(static_cast<size_t>(workers), [&](int w, size_t, size_t) {
      const Lane& lane = lanes[static_cast<size_t>(w)];
      GraphWalk walk(table, freq_qid, config, diversity, options, cube_ptr,
                     governor, nullptr, {lane});
      std::unique_lock<std::mutex> lock(mu);
      for (;;) {
        cv.wait(lock,
                [&] { return stopped || remaining == 0 || !ready.empty(); });
        if (stopped || remaining == 0) return;
        const uint64_t mask = *ready.begin();
        ready.erase(ready.begin());
#ifndef INCOGNITO_OBS_DISABLED
        const uint64_t task_enqueue_ns = tasks.at(mask).ready_ns;
        const uint64_t task_start_ns = obs::TraceRecorder::NowNs();
#endif
        // Published parents are immutable; the lock's happens-before makes
        // them visible to this worker.
        std::vector<const CandidateGraph*> parents = parent_graphs(mask);
        lock.unlock();

        INCOGNITO_SPAN("incognito.subset.task");
        // Snapshot for the checkpoint delta: a lane's stats are only ever
        // touched on its own thread.
        const AlgorithmStats task_before = *lane.stats;
        Status bad = lane.shard->Check();
        if (bad.ok() && INCOGNITO_FAULT_FIRED("incognito.subset.schedule")) {
          // Fault site "incognito.subset.schedule": an injected failure
          // while dequeuing one subset task; siblings stop at their next
          // checkpoint.
          governor->LatchInjectedFailure("incognito.subset.schedule");
          bad = lane.shard->Check();
        }
        CandidateGraph survivors;
        if (bad.ok()) {
          CandidateGraph graph =
              SubsetCandidates(qid, mask, parents, lane.shard);
          lane.stats->candidate_nodes +=
              static_cast<int64_t>(graph.num_nodes());
          Result<CandidateGraph> searched = SearchGraph(walk, graph);
          if (searched.ok()) {
            survivors = std::move(searched).value();
          } else {
            bad = searched.status();
          }
        }

#ifndef INCOGNITO_OBS_DISABLED
        {
          obs::TaskEvent event;
          event.mask = mask;
          event.worker = w;
          event.enqueue_ns = task_enqueue_ns;
          event.start_ns = task_start_ns;
          event.end_ns = obs::TraceRecorder::NowNs();
          event.name = "subset";
          timeline.Record(std::move(event));
        }
#endif

        if (ckpt != nullptr && bad.ok()) {
          // Record the finished subset outside the scheduler lock — the
          // policy-gated write does file I/O.
          ckpt->AddMask(mask, SortedNodes(survivors),
                        CounterDelta(task_before, *lane.stats));
          ckpt->MaybeWrite();
        }

        lock.lock();
        if (!bad.ok()) {
          worker_status[static_cast<size_t>(w)] = bad;
          stopped = true;
          cv.notify_all();
          return;
        }
        SubsetTask& task = tasks.at(mask);
        task.survivors = std::move(survivors);
        task.done = true;
        --remaining;
        --unfinished[static_cast<size_t>(SubsetSize(mask))];
        release_children(mask);
        if (remaining == 0 || !ready.empty()) cv.notify_all();
      }
    });
  }

  Status trip = governor->SharedTrip();
  for (const Status& ws : worker_status) {
    if (trip.ok() && !ws.ok()) trip = ws;
  }

  // S_1..S_c for the complete level prefix: the per-subset node sets are
  // disjoint, and one sort per size gives the paper's sorted S_i. On a
  // trip only this prefix is kept — "every subset of this size finished".
  const int64_t completed = completed_prefix();
  result.per_iteration_survivors.resize(static_cast<size_t>(completed));
  for (const auto& [mask, task] : tasks) {
    const int size = SubsetSize(mask);
    if (size > completed) continue;
    for (const NodeRow& row : task.survivors.nodes()) {
      result.per_iteration_survivors[static_cast<size_t>(size) - 1].push_back(
          row.ToSubsetNode());
    }
  }
  for (auto& level : result.per_iteration_survivors) {
    INCOGNITO_COUNT("incognito.iterations");
    std::sort(level.begin(), level.end());
  }
  result.completed_iterations = completed;
  if (!trip.ok()) return stop_early(trip);

  // ---- Apex: C_n, searched across the whole pool -------------------------
  INCOGNITO_COUNT("incognito.iterations");
  if (!apex_restored && parents_ready(full)) {
    INCOGNITO_SPAN("incognito.iteration");
#ifndef INCOGNITO_OBS_DISABLED
    pool.set_timeline(&timeline, "pool.chunk");
#endif
    // The pool-wide walk spreads its counters over every lane, so the
    // apex checkpoint delta comes from summed snapshots.
    auto sum_counters = [&] {
      CheckpointCounters sum;
      for (const AlgorithmStats& ws : worker_stats) sum += CountersFrom(ws);
      return sum;
    };
    const CheckpointCounters apex_before = sum_counters();
    CandidateGraph apex =
        SubsetCandidates(qid, full, parent_graphs(full), lanes[0].shard);
    lanes[0].stats->candidate_nodes += static_cast<int64_t>(apex.num_nodes());
    GraphWalk walk(table, freq_qid, config, diversity, options, cube_ptr,
                   governor, &pool, lanes);
    Result<CandidateGraph> survivors = SearchGraph(walk, apex);
    if (!survivors.ok()) return stop_early(survivors.status());
    apex_nodes = SortedNodes(survivors.value());
    if (ckpt != nullptr) {
      CheckpointCounters apex_delta = sum_counters();
      apex_delta -= apex_before;
      ckpt->AddMask(full, apex_nodes, apex_delta);
    }
  }
  // An apex with an empty immediate sub-subset has no candidates: S_n is
  // empty.
  result.per_iteration_survivors.push_back(apex_nodes);
  result.completed_iterations = static_cast<int64_t>(n);
  result.anonymous_nodes = std::move(apex_nodes);

  if (ckpt != nullptr) ckpt->WriteNow();  // make the final unit durable
  finalize();
  return result;
}

}  // namespace

PartialResult<IncognitoResult> RunIncognito(const Table& table,
                                            const QuasiIdentifier& qid,
                                            const AnonymizationConfig& config,
                                            const IncognitoOptions& options,
                                            const RunContext& ctx) {
  INCOGNITO_RETURN_IF_ERROR(ValidateSearch(qid, config, options));
  return Search(table, qid, config, nullptr, options, ctx);
}

PartialResult<IncognitoResult> RunIncognito(const Table& table,
                                            const QuasiIdentifier& qid,
                                            const AnonymizationConfig& config,
                                            const DiversityPredicate& diversity,
                                            const IncognitoOptions& options,
                                            const RunContext& ctx) {
  INCOGNITO_RETURN_IF_ERROR(ValidateSearch(qid, config, options));
  if (diversity.l < 1) return Status::InvalidArgument("l must be >= 1");
  if (diversity.sensitive_column >= table.num_columns()) {
    return Status::InvalidArgument("sensitive column out of range");
  }
  for (size_t i = 0; i < qid.size(); ++i) {
    if (qid.column(i) == diversity.sensitive_column) {
      return Status::InvalidArgument("sensitive attribute '" + qid.name(i) +
                                     "' must not be part of the "
                                     "quasi-identifier");
    }
  }
  if (options.variant == IncognitoVariant::kCube) {
    return Status::InvalidArgument(
        "Cube Incognito does not search for l-diversity");
  }
  return Search(table, qid, config, &diversity, options, ctx);
}

}  // namespace incognito
