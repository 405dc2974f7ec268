#ifndef INCOGNITO_FREQ_CUBE_H_
#define INCOGNITO_FREQ_CUBE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "core/quasi_identifier.h"
#include "freq/frequency_set.h"
#include "relation/table.h"
#include "robust/governor.h"

namespace incognito {

class WorkerPool;

/// The pre-computed zero-generalization frequency sets used by Cube
/// Incognito (paper §3.3.2): for every non-empty subset of the
/// quasi-identifier attributes, the frequency set of T at the lowest level
/// of generalization. Built bottom-up in data-cube fashion — one scan of T
/// for the full attribute set, then each smaller subset is aggregated from
/// an already-computed superset, never from the table.
class ZeroGenCube {
 public:
  /// Statistics about a cube build (reported by the Fig. 12 bench).
  struct BuildInfo {
    size_t num_subsets = 0;    ///< frequency sets materialized (2^n - 1)
    size_t total_groups = 0;   ///< sum of group counts across subsets
    size_t total_bytes = 0;    ///< approximate memory footprint
    int64_t table_scans = 0;   ///< scans of T (always 1)
    int64_t projections = 0;   ///< cube-style aggregations performed
  };

  ZeroGenCube() = default;

  /// The widest QID a cube is built for: the cube holds 2^n - 1 frequency
  /// sets, keyed by a 32-bit attribute mask.
  static constexpr size_t kMaxAttributes = 24;

  /// Builds the cube (docs/PARALLELISM.md "Intra-node parallelism").
  /// Requires 1 <= qid.size() <= kMaxAttributes. The root scan runs as
  /// one FrequencySet::ComputeBatch across `pool`, and the per-mask
  /// projections — which form a DAG (every mask depends on its
  /// one-attribute supersets) — are scheduled by decreasing popcount with
  /// dependency counting, so independent projections at the same popcount
  /// run concurrently across the pool. A null or one-worker pool runs the
  /// same DAG inline on the calling thread. A mask is only scheduled once
  /// ALL of its parents are materialized, which keeps the best-parent
  /// choice (fewest groups, lowest parent mask) deterministic: the cube
  /// and its BuildInfo totals are identical at every pool size.
  ///
  /// Governed builds charge each projection to the running worker's
  /// private GovernorShard ("cube.project" fault site per projection;
  /// "cube.build" at the main-thread root charge). The transient shard
  /// leases drain at the end and a successful build re-charges the exact
  /// footprint on the main thread, so the governor's live total is the
  /// cube's footprint until ReleaseMemory balances it back to zero. A
  /// refused charge, a tripped deadline or a cancellation latches the
  /// governor and returns an empty cube with every charged byte released.
  static ZeroGenCube Build(const Table& table, const QuasiIdentifier& qid,
                           WorkerPool* pool = nullptr,
                           BuildInfo* info = nullptr,
                           ExecutionGovernor* governor = nullptr);

  /// Releases every byte Build() charged against `governor` (call when the
  /// cube is discarded).
  void ReleaseMemory(ExecutionGovernor* governor) const;

  /// The zero-generalization frequency set for an attribute subset
  /// (ascending QID indices). Requires the subset to be non-empty and
  /// within the QID the cube was built for.
  const FrequencySet& Get(const std::vector<int32_t>& dims) const;

  size_t num_subsets() const { return sets_.size(); }

 private:
  static uint32_t MaskOf(const std::vector<int32_t>& dims);

  std::map<uint32_t, FrequencySet> sets_;  // by attribute mask
};

}  // namespace incognito

#endif  // INCOGNITO_FREQ_CUBE_H_
