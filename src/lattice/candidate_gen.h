#ifndef INCOGNITO_LATTICE_CANDIDATE_GEN_H_
#define INCOGNITO_LATTICE_CANDIDATE_GEN_H_

#include <cstddef>

#include "core/quasi_identifier.h"
#include "lattice/graph_tables.h"

namespace incognito {

class ExecutionGovernor;
class GovernorShard;

/// Counters describing one GraphGeneration step (used by tests and the
/// ablation bench to quantify a-priori pruning).
struct GraphGenStats {
  size_t joined = 0;            ///< candidates produced by the join phase
  size_t pruned = 0;            ///< candidates removed by the prune phase
  size_t candidate_edges = 0;   ///< edges produced before implied removal
  size_t implied_removed = 0;   ///< implied edges removed
};

/// Builds the first-iteration candidate graph (C1, E1): the nodes are every
/// domain of every single attribute's generalization hierarchy, the edges
/// are the hierarchy chains (paper Fig. 8 initialization).
CandidateGraph MakeSingleAttributeGraph(const QuasiIdentifier& qid);

/// The GraphGeneration procedure of paper §3.1.2: given the surviving
/// i-attribute graph (S_i with edges E_i restricted to S_i), produces the
/// (i+1)-attribute candidate graph (C_{i+1}, E_{i+1}) via
///   1. the join phase (self-join of S_i on the first i-1 (dim,index) pairs
///      with an ordering predicate on the last dimension),
///   2. the prune phase (subset check against S_i via an Apriori hash
///      tree), and
///   3. edge generation (the paper's three-disjunct join over E_i followed
///      by removal of implied, one-node-separated relationships).
/// The returned graph has adjacency built. When `governor` is non-null the
/// prune phase's Apriori hash tree is charged against its memory budget
/// for the duration of the prune; a refused charge latches the trip in the
/// governor (for the caller to observe) but the graph is still generated —
/// candidate generation is never the step that loses work.
CandidateGraph GenerateNextGraph(const CandidateGraph& survivors,
                                 GraphGenStats* stats = nullptr,
                                 ExecutionGovernor* governor = nullptr);

/// The chain graph of one attribute's generalization hierarchy — the
/// single-dimension slice of MakeSingleAttributeGraph, used to seed the
/// subset DAG.
CandidateGraph MakeSingleDimensionChain(const QuasiIdentifier& qid,
                                        size_t dim);

/// Per-subset GraphGeneration for the Incognito subset-DAG search
/// (docs/PARALLELISM.md "The subset DAG"): builds the candidate
/// graph of ONE size-(i+1) attribute subset D from the published survivor
/// graphs of its immediate sub-subsets. `parents[j]` must be the survivor
/// graph of D with its j-th attribute (in ascending dimension order)
/// dropped, so parents.size() == i+1. The join operands are
/// parents[i] (D minus its largest dimension) and parents[i-1] (D minus
/// its second-largest); the remaining parents serve the prune phase's
/// membership tests, exactly the i-subsets the batch prune queries.
///
/// Since a batch GenerateNextGraph output is the disjoint union of its
/// per-subset components (candidates and edges never cross attribute
/// subsets), the union over all size-(i+1) subsets D of these graphs is
/// node- and edge-identical to GenerateNextGraph(S_i); only the node ids
/// are subset-local, and ids are never part of the search outcome.
///
/// When `shard` is non-null the prune hash tree is charged against the
/// worker's shard lease for the duration of the prune; like the batch
/// path, a refused charge latches the trip but the graph is still
/// generated.
CandidateGraph GenerateSubsetGraph(
    const std::vector<const CandidateGraph*>& parents,
    GraphGenStats* stats = nullptr, GovernorShard* shard = nullptr);

}  // namespace incognito

#endif  // INCOGNITO_LATTICE_CANDIDATE_GEN_H_
