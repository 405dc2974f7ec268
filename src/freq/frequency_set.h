#ifndef INCOGNITO_FREQ_FREQUENCY_SET_H_
#define INCOGNITO_FREQ_FREQUENCY_SET_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/quasi_identifier.h"
#include "freq/key_codec.h"
#include "lattice/node.h"
#include "relation/table.h"

namespace incognito {

class ExecutionGovernor;
class WorkerPool;

/// The frequency set of a table with respect to a generalization node
/// (paper §1.1): a mapping from each value-group (the combination of
/// generalized quasi-identifier values) to the number of tuples carrying
/// those values. Equivalent to the result of
///   SELECT <generalized attrs>, COUNT(*) FROM T GROUP BY <generalized attrs>
/// over the star schema.
///
/// Storage is a flat array of (packed-key, count) entries when the combined
/// key fits in 64 bits (it does for both evaluation schemas), with a
/// vector-keyed fallback otherwise. Groups are kept in canonical order —
/// ascending lexicographic code vectors, which for the packed path is the
/// same as ascending packed keys because KeyCodec::Pack is
/// order-preserving — so serial, parallel, and cross-platform runs agree
/// byte-for-byte.
class FrequencySet {
 public:
  FrequencySet() = default;

  /// Scan-sharing group-by build — the paper's COUNT(*) GROUP BY query,
  /// for several nodes from ONE pass over the table (docs/PARALLELISM.md
  /// "Scan-sharing batch evaluation"). Each node selects the participating
  /// attributes (dims, as QID indices) and the generalization level of
  /// each; result[j] is the frequency set of nodes[j], in canonical group
  /// order with an exact-capacity group array (so MemoryBytes() does not
  /// depend on how the build was split).
  ///
  /// The engine follows the key width alone (DESIGN.md "Group-by
  /// engine"): keys that pack into 64 bits are gathered column-wise,
  /// radix-sorted and run-length coalesced; wider keys aggregate in a
  /// FlatCodeMap and are then sorted.
  ///
  /// A null or one-worker `pool` scans the rows as one chunk; a larger
  /// pool splits them into one chunk per worker and merges the per-worker
  /// partial sets in worker-id order. When `governor` is non-null the scan
  /// is governed: each chunk charges its transient state — the radix
  /// buffers (2 * chunk_rows * 8 bytes, up front), the extracted groups,
  /// the flat maps' growth — to a private GovernorShard that drains before
  /// returning, polls for deadline/cancel/shared trips between radix
  /// passes and every few thousand flat-map rows, and consults the
  /// "freq.batch.scan" fault site once per chunk. The caller charges the
  /// finished sets. A tripped scan latches the governor and returns
  /// all-empty sets; callers detect it via governor->SharedTrip().
  ///
  /// The scan counts its rows (freq.scan_rows) and, when pool-parallel,
  /// its chunks; callers count what the pass was for — freq.scans for a
  /// one-node scan, freq.batch_scans for a search level's shared pass.
  static std::vector<FrequencySet> ComputeBatch(
      const Table& table, const QuasiIdentifier& qid,
      const std::vector<SubsetNode>& nodes, WorkerPool* pool = nullptr,
      ExecutionGovernor* governor = nullptr);

  /// One-node, serial, ungoverned convenience over ComputeBatch.
  static FrequencySet Compute(const Table& table, const QuasiIdentifier& qid,
                              const SubsetNode& node);

  /// Produces the frequency set of a more general node over the same
  /// attribute set *from this frequency set* without touching the table —
  /// the paper's Rollup Property: each target count is the sum of the
  /// source counts γ maps onto it. Requires target.dims == node().dims and
  /// target.levels[i] >= node().levels[i].
  FrequencySet RollupTo(const SubsetNode& target,
                        const QuasiIdentifier& qid) const;

  /// Produces the frequency set of a *subset* of the attributes at the
  /// same levels, by summing away the dropped dimensions (data-cube style
  /// aggregation; the Subset Property's relational counterpart, used to
  /// build the zero-generalization cube). Requires target.dims ⊆
  /// node().dims and matching levels on the kept dims.
  FrequencySet ProjectTo(const SubsetNode& target,
                         const QuasiIdentifier& qid) const;

  /// The generalization this frequency set is with respect to.
  const SubsetNode& node() const { return node_; }

  /// Number of value groups.
  size_t NumGroups() const {
    return packed_ ? groups_.size() : vgroups_.size();
  }

  /// Total tuple count (the table size minus nothing; invariant under
  /// rollup and projection).
  int64_t TotalCount() const { return total_count_; }

  /// The smallest group count; 0 for an empty frequency set.
  int64_t MinCount() const;

  /// Number of tuples lying in groups of size < k — the number of tuples
  /// that would have to be suppressed for T to satisfy k-anonymity at this
  /// generalization.
  int64_t TuplesBelowK(int64_t k) const;

  /// K-anonymity check with the paper's optional tuple-suppression
  /// threshold: true iff at most `max_suppressed` tuples lie in groups
  /// smaller than k (with max_suppressed == 0 this is the plain
  /// K-Anonymity Property).
  bool IsKAnonymous(int64_t k, int64_t max_suppressed = 0) const {
    return TuplesBelowK(k) <= max_suppressed;
  }

  /// Visits every group as (codes, count) in canonical order (ascending
  /// lexicographic code vectors); `codes` has node().size() entries, each
  /// a code in the corresponding level's domain.
  void ForEachGroup(
      const std::function<void(const int32_t* codes, int64_t count)>& fn)
      const;

  /// Distinct (k, ℓ)-diversity, for a set built over node ∪ {S}: the
  /// sensitive attribute S is the LAST key field, at level 0
  /// (QuasiIdentifier::WithSensitive; docs/ALGORITHMS.md). Canonical order
  /// is QID-major, so one QID group is a run of groups that share every
  /// field but S: its count is the run's sum and its distinct-S count the
  /// run's length. Returns the tuples lying in QID groups with fewer than
  /// k tuples or fewer than l distinct sensitive values.
  int64_t TuplesViolating(int64_t k, int64_t l) const;

  /// Visits every QID group of a node ∪ {S} set (see TuplesViolating) as
  /// (codes, count, distinct sensitive values) in canonical order; `codes`
  /// holds the node().size() - 1 QID codes.
  void ForEachQidGroup(
      const std::function<void(const int32_t* codes, int64_t count,
                               int64_t distinct)>& fn) const;

  /// Approximate heap footprint in bytes (for the cube-size diagnostics).
  size_t MemoryBytes() const;

 private:
  static FrequencySet MakeEmpty(const SubsetNode& node,
                                const QuasiIdentifier& qid);

  /// Sorts groups_/vgroups_ into canonical order (see class comment).
  void SortGroups();

  /// Calls visit(first group index, count, distinct) for each run of
  /// groups sharing every key field but the last (see TuplesViolating).
  template <typename Visit>
  void ForEachRun(Visit visit) const;

  /// Shared body of RollupTo and ProjectTo: re-keys every group with
  /// recode(source codes, target codes) and sums the counts of groups
  /// that land on the same target key.
  template <typename Recode>
  FrequencySet Regroup(const SubsetNode& target, const QuasiIdentifier& qid,
                       Recode recode) const;

  SubsetNode node_;
  KeyCodec codec_;
  bool packed_ = true;
  std::vector<std::pair<uint64_t, int64_t>> groups_;  // packed path
  std::vector<std::pair<std::vector<int32_t>, int64_t>> vgroups_;  // fallback
  int64_t total_count_ = 0;
};

}  // namespace incognito

#endif  // INCOGNITO_FREQ_FREQUENCY_SET_H_
