#ifndef INCOGNITO_LATTICE_CANDIDATE_GEN_H_
#define INCOGNITO_LATTICE_CANDIDATE_GEN_H_

#include <cstddef>

#include "core/quasi_identifier.h"
#include "lattice/graph_tables.h"

namespace incognito {

class GovernorShard;

/// Counters describing one GraphGeneration step (used by tests and the
/// ablation bench to quantify a-priori pruning).
struct GraphGenStats {
  size_t joined = 0;            ///< candidates produced by the join phase
  size_t pruned = 0;            ///< candidates removed by the prune phase
  size_t candidate_edges = 0;   ///< edges produced before implied removal
  size_t implied_removed = 0;   ///< implied edges removed
};

/// The chain graph of one attribute's generalization hierarchy: one node
/// per domain, one edge per hierarchy step (the single-attribute slice of
/// the paper's Fig. 8 initialization C1, E1). Seeds the subset DAG.
CandidateGraph MakeSingleDimensionChain(const QuasiIdentifier& qid,
                                        size_t dim);

/// The GraphGeneration procedure of paper §3.1.2, run per attribute
/// subset as the Incognito subset-DAG search needs it (docs/PARALLELISM.md
/// "The subset DAG"): builds the candidate graph (C, E) of ONE size-(i+1)
/// attribute subset D from the published survivor graphs of its immediate
/// sub-subsets. `parents[j]` must be the survivor graph of D with its j-th
/// attribute (in ascending dimension order) dropped, so parents.size() ==
/// i+1. The three phases are
///   1. the join phase: parents[i] (D minus its largest dimension) joined
///      with parents[i-1] (D minus its second-largest) on the first i-1
///      (dim, index) pairs,
///   2. the prune phase: every other i-subset of a candidate must be a
///      node of parents[0..i-2], tested through an Apriori hash tree, and
///   3. edge generation: the paper's three-disjunct join over the join
///      parents' edges, then removal of implied, one-node-separated
///      relationships.
/// The returned graph has adjacency built. Candidates and edges never
/// cross attribute subsets, so the union of these graphs over every
/// size-(i+1) subset is the paper's whole-level C_{i+1}, E_{i+1}; only
/// the node ids are subset-local, and ids are never part of the search
/// outcome.
///
/// When `shard` is non-null the prune hash tree is charged against the
/// worker's shard lease for the duration of the prune; a refused charge
/// latches the trip (for the caller to observe) but the graph is still
/// generated — candidate generation is never the step that loses work.
CandidateGraph GenerateSubsetGraph(
    const std::vector<const CandidateGraph*>& parents,
    GraphGenStats* stats = nullptr, GovernorShard* shard = nullptr);

}  // namespace incognito

#endif  // INCOGNITO_LATTICE_CANDIDATE_GEN_H_
