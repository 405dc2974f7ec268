#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "data/patients.h"
#include "lattice/candidate_gen.h"
#include "lattice/lattice.h"
#include "test_util.h"

namespace incognito {
namespace {

// Dimension indices for the Patients quasi-identifier.
constexpr int32_t kB = 0;  // Birthdate
constexpr int32_t kS = 1;  // Sex
constexpr int32_t kZ = 2;  // Zipcode

/// The ascending QID indices of an attribute mask.
std::vector<int32_t> DimsOf(uint32_t mask) {
  std::vector<int32_t> dims;
  for (int32_t d = 0; d < 32; ++d) {
    if (mask & (1u << d)) dims.push_back(d);
  }
  return dims;
}

/// The parents GenerateSubsetGraph expects for `mask`: parents[j] is the
/// graph of mask minus its j-th dimension.
std::vector<const CandidateGraph*> ParentsOf(
    const std::map<uint32_t, CandidateGraph>& graphs, uint32_t mask) {
  std::vector<const CandidateGraph*> parents;
  for (int32_t d : DimsOf(mask)) {
    parents.push_back(&graphs.at(mask & ~(1u << d)));
  }
  return parents;
}

/// Every subset graph of `qid`, built bottom-up from the complete
/// single-dimension chains with nothing pruned, keyed by attribute mask.
/// `stats` (optional) receives each subset's GraphGenStats.
std::map<uint32_t, CandidateGraph> UnprunedSubsetGraphs(
    const QuasiIdentifier& qid,
    std::map<uint32_t, GraphGenStats>* stats = nullptr) {
  const uint32_t n = static_cast<uint32_t>(qid.size());
  std::map<uint32_t, CandidateGraph> graphs;
  for (uint32_t d = 0; d < n; ++d) {
    graphs[1u << d] = MakeSingleDimensionChain(qid, d);
  }
  for (int size = 2; size <= static_cast<int>(n); ++size) {
    for (uint32_t mask = 1; mask < (1u << n); ++mask) {
      if (__builtin_popcount(mask) != size) continue;
      GraphGenStats gen;
      graphs[mask] = GenerateSubsetGraph(ParentsOf(graphs, mask), &gen);
      if (stats != nullptr) (*stats)[mask] = gen;
    }
  }
  return graphs;
}

/// The level vector of a candidate node, in ascending dimension order.
LevelVector LevelsOf(const NodeRow& row) {
  LevelVector levels;
  for (const DimIndexPair& p : row.pairs) levels.push_back(p.index);
  return levels;
}

std::set<std::string> NodeNames(const CandidateGraph& g) {
  std::set<std::string> names;
  for (const NodeRow& row : g.nodes()) {
    names.insert(row.ToSubsetNode().ToString());
  }
  return names;
}

TEST(SingleDimensionChainTest, PatientsChains) {
  Result<PatientsDataset> patients = MakePatientsDataset();
  ASSERT_TRUE(patients.ok()) << patients.status().ToString();
  // Heights: Birthdate 1, Sex 1, Zipcode 2 → 2 + 2 + 3 nodes, 1 + 1 + 2
  // chain edges, one root per attribute.
  const size_t nodes[] = {2, 2, 3};
  for (size_t d = 0; d < patients->qid.size(); ++d) {
    CandidateGraph g = MakeSingleDimensionChain(patients->qid, d);
    EXPECT_EQ(g.num_nodes(), nodes[d]);
    EXPECT_EQ(g.num_edges(), nodes[d] - 1);
    ASSERT_EQ(g.Roots().size(), 1u);
    EXPECT_EQ(g.node(g.Roots()[0]).Height(), 0);
  }
}

/// The three surviving 2-attribute graphs from the final steps of the
/// paper's Fig. 5 (Example 3.1 at k = 2).
struct Fig5Survivors {
  CandidateGraph bs, bz, sz;

  /// GenerateSubsetGraph's parents for {B, S, Z}: drop B, drop S, drop Z.
  std::vector<const CandidateGraph*> Parents() const { return {&sz, &bz, &bs}; }
};

Fig5Survivors MakeFig5Survivors() {
  Fig5Survivors s;
  auto add = [](CandidateGraph& g, int32_t d1, int32_t l1, int32_t d2,
                int32_t l2) {
    NodeRow row;
    row.pairs = {{d1, l1}, {d2, l2}};
    return g.AddNode(std::move(row));
  };
  // Fig. 5(c): S_{B,S} = {<B1,S0>, <B0,S1>, <B1,S1>}.
  int64_t b1s0 = add(s.bs, kB, 1, kS, 0);
  int64_t b0s1 = add(s.bs, kB, 0, kS, 1);
  int64_t b1s1 = add(s.bs, kB, 1, kS, 1);
  s.bs.AddEdge(b1s0, b1s1);
  s.bs.AddEdge(b0s1, b1s1);
  // Fig. 5(b): S_{B,Z} = {<B1,Z0>, <B1,Z1>, <B0,Z2>, <B1,Z2>}.
  int64_t b1z0 = add(s.bz, kB, 1, kZ, 0);
  int64_t b1z1 = add(s.bz, kB, 1, kZ, 1);
  int64_t b0z2 = add(s.bz, kB, 0, kZ, 2);
  int64_t b1z2 = add(s.bz, kB, 1, kZ, 2);
  s.bz.AddEdge(b1z0, b1z1);
  s.bz.AddEdge(b1z1, b1z2);
  s.bz.AddEdge(b0z2, b1z2);
  // Fig. 5(a): S_{S,Z} = {<S1,Z0>, <S1,Z1>, <S0,Z2>, <S1,Z2>}.
  int64_t s1z0 = add(s.sz, kS, 1, kZ, 0);
  int64_t s1z1 = add(s.sz, kS, 1, kZ, 1);
  int64_t s0z2 = add(s.sz, kS, 0, kZ, 2);
  int64_t s1z2 = add(s.sz, kS, 1, kZ, 2);
  s.sz.AddEdge(s1z0, s1z1);
  s.sz.AddEdge(s1z1, s1z2);
  s.sz.AddEdge(s0z2, s1z2);
  s.bs.BuildAdjacency();
  s.bz.BuildAdjacency();
  s.sz.BuildAdjacency();
  return s;
}

TEST(GenerateSubsetGraphTest, ReproducesFig7aNodes) {
  const Fig5Survivors survivors = MakeFig5Survivors();
  GraphGenStats stats;
  CandidateGraph c3 = GenerateSubsetGraph(survivors.Parents(), &stats);
  // Fig. 7(a): exactly {<B1,S1,Z0>, <B1,S1,Z1>, <B1,S1,Z2>, <B1,S0,Z2>,
  // <B0,S1,Z2>}.
  EXPECT_EQ(NodeNames(c3),
            (std::set<std::string>{"<d0:1, d1:1, d2:0>", "<d0:1, d1:1, d2:1>",
                                   "<d0:1, d1:1, d2:2>", "<d0:1, d1:0, d2:2>",
                                   "<d0:0, d1:1, d2:2>"}));
  // The join produced 7 candidates; 2 were pruned by the subset check
  // (<B1,S0,Z0> and <B1,S0,Z1> lack <S0,Z0>/<S0,Z1> in S_2).
  EXPECT_EQ(stats.joined, 7u);
  EXPECT_EQ(stats.pruned, 2u);
}

TEST(GenerateSubsetGraphTest, ReproducesFig7aEdges) {
  CandidateGraph c3 = GenerateSubsetGraph(MakeFig5Survivors().Parents());
  // Translate edges to string form for comparison.
  std::set<std::string> edges;
  for (const auto& [start, end] : c3.edges()) {
    edges.insert(c3.node(start).ToSubsetNode().ToString() + " -> " +
                 c3.node(end).ToSubsetNode().ToString());
  }
  EXPECT_EQ(edges, (std::set<std::string>{
                       "<d0:1, d1:1, d2:0> -> <d0:1, d1:1, d2:1>",
                       "<d0:1, d1:1, d2:1> -> <d0:1, d1:1, d2:2>",
                       "<d0:1, d1:0, d2:2> -> <d0:1, d1:1, d2:2>",
                       "<d0:0, d1:1, d2:2> -> <d0:1, d1:1, d2:2>"}));
}

TEST(GenerateSubsetGraphTest, Fig7aHasThreeRootsOneFamily) {
  // §3.3.1: <B1,S1,Z0>, <B1,S0,Z2>, <B0,S1,Z2> are all roots of the
  // 3-attribute graph and come from the same family.
  CandidateGraph c3 = GenerateSubsetGraph(MakeFig5Survivors().Parents());
  std::vector<int64_t> roots = c3.Roots();
  EXPECT_EQ(roots.size(), 3u);
  std::set<std::string> root_names;
  for (int64_t r : roots) {
    root_names.insert(c3.node(r).ToSubsetNode().ToString());
  }
  EXPECT_EQ(root_names,
            (std::set<std::string>{"<d0:1, d1:1, d2:0>", "<d0:1, d1:0, d2:2>",
                                   "<d0:0, d1:1, d2:2>"}));
}

TEST(GenerateSubsetGraphTest, WithoutPruningProducesFullLattice) {
  // Feeding complete single-attribute chains through two generation steps
  // must reproduce the complete 3-attribute lattice (Fig. 7(b)): a-priori
  // pruning only ever removes nodes that some subset test rules out.
  Result<PatientsDataset> patients = MakePatientsDataset();
  ASSERT_TRUE(patients.ok());
  std::map<uint32_t, CandidateGraph> graphs =
      UnprunedSubsetGraphs(patients->qid);
  // Pairwise lattices: B×S (2·2) + B×Z (2·3) + S×Z (2·3) = 16 nodes,
  // 4 + 7 + 7 = 18 edges.
  const uint32_t bs = 0b011, bz = 0b101, sz = 0b110, bsz = 0b111;
  EXPECT_EQ(graphs[bs].num_nodes() + graphs[bz].num_nodes() +
                graphs[sz].num_nodes(),
            16u);
  EXPECT_EQ(graphs[bs].num_edges() + graphs[bz].num_edges() +
                graphs[sz].num_edges(),
            18u);
  // Full lattice: 2·2·3 = 12 nodes; edges: Σ over nodes of raisable dims.
  EXPECT_EQ(graphs[bsz].num_nodes(), 12u);
  EXPECT_EQ(graphs[bsz].num_edges(), 20u);
  EXPECT_EQ(graphs[bsz].Roots().size(), 1u);  // the all-zeros bottom
}

TEST(GenerateSubsetGraphTest, UnprunedSubsetsAreTheirFullSubLattices) {
  // Property: with unpruned parents, every subset's graph is its complete
  // sub-lattice — Π(h_i + 1) nodes, exactly the direct-generalization
  // edges (so every implied edge was removed, also beyond three
  // attributes) and one root — and nothing is pruned.
  Rng rng(5);
  for (int trial = 0; trial < 8; ++trial) {
    testing_util::RandomDatasetOptions opts;
    opts.num_attrs = 4 + static_cast<size_t>(trial % 2);
    opts.num_rows = 4;
    testing_util::RandomDataset ds = testing_util::MakeRandomDataset(rng, opts);
    const std::vector<int32_t> heights = ds.qid.MaxLevels();
    std::map<uint32_t, GraphGenStats> stats;
    std::map<uint32_t, CandidateGraph> graphs =
        UnprunedSubsetGraphs(ds.qid, &stats);
    for (const auto& [mask, g] : graphs) {
      if (__builtin_popcount(mask) < 2) continue;
      SCOPED_TRACE(trial * 1000 + static_cast<int>(mask));
      LevelVector max_levels;
      for (int32_t d : DimsOf(mask)) {
        max_levels.push_back(heights[static_cast<size_t>(d)]);
      }
      GeneralizationLattice lattice(max_levels);
      std::set<std::pair<LevelVector, LevelVector>> expected_edges;
      for (const LevelVector& v : lattice.AllNodesByHeight()) {
        for (const LevelVector& up : lattice.DirectGeneralizations(v)) {
          expected_edges.insert({v, up});
        }
      }
      std::set<std::pair<LevelVector, LevelVector>> edges;
      for (const auto& [start, end] : g.edges()) {
        edges.insert({LevelsOf(g.node(start)), LevelsOf(g.node(end))});
      }
      EXPECT_EQ(g.num_nodes(), lattice.NumNodes());
      EXPECT_EQ(g.num_edges(), expected_edges.size());
      EXPECT_EQ(edges, expected_edges);
      EXPECT_EQ(g.Roots().size(), 1u);
      EXPECT_EQ(stats[mask].pruned, 0u);
    }
  }
}

TEST(GenerateSubsetGraphTest, MissingPruneParentNodePrunesExactlyItsSupersets) {
  // Removing one node x from a non-join parent (parents[0..size-3]) must
  // prune exactly the candidates whose pairs minus that parent's dropped
  // dimension are x, and stats.pruned counts them.
  Rng rng(11);
  for (int trial = 0; trial < 12; ++trial) {
    testing_util::RandomDatasetOptions opts;
    opts.num_attrs = 3 + static_cast<size_t>(trial % 2);
    opts.num_rows = 4;
    testing_util::RandomDataset ds = testing_util::MakeRandomDataset(rng, opts);
    std::map<uint32_t, CandidateGraph> graphs = UnprunedSubsetGraphs(ds.qid);
    const uint32_t full = (1u << ds.qid.size()) - 1;
    std::vector<const CandidateGraph*> parents = ParentsOf(graphs, full);
    const size_t j = rng.Uniform(parents.size() - 2);
    const CandidateGraph& prune_parent = *parents[j];
    const int64_t x =
        static_cast<int64_t>(rng.Uniform(prune_parent.num_nodes()));
    std::vector<bool> keep(prune_parent.num_nodes(), true);
    keep[static_cast<size_t>(x)] = false;
    CandidateGraph reduced = prune_parent.InducedSubgraph(keep);
    parents[j] = &reduced;

    std::set<std::string> expected;
    size_t removed = 0;
    for (const NodeRow& row : graphs[full].nodes()) {
      std::vector<DimIndexPair> dropped = row.pairs;
      dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(j));
      if (dropped == prune_parent.node(x).pairs) {
        ++removed;
      } else {
        expected.insert(row.ToSubsetNode().ToString());
      }
    }
    SCOPED_TRACE(trial);
    GraphGenStats stats;
    CandidateGraph pruned = GenerateSubsetGraph(parents, &stats);
    const int32_t dropped_dim = DimsOf(full)[j];
    EXPECT_EQ(removed,
              static_cast<size_t>(
                  ds.qid.hierarchy(static_cast<size_t>(dropped_dim)).height() +
                  1));
    EXPECT_EQ(NodeNames(pruned), expected);
    EXPECT_EQ(stats.pruned, removed);
    EXPECT_EQ(stats.joined, graphs[full].num_nodes());
  }
}

TEST(GenerateSubsetGraphTest, EmptyJoinParentYieldsEmptyGraph) {
  const Fig5Survivors survivors = MakeFig5Survivors();
  CandidateGraph empty;
  empty.BuildAdjacency();
  // parents[2] is the p side of the join, parents[1] the q side.
  for (size_t side : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE(side);
    std::vector<const CandidateGraph*> parents = survivors.Parents();
    parents[side] = &empty;
    GraphGenStats stats;
    CandidateGraph next = GenerateSubsetGraph(parents, &stats);
    EXPECT_EQ(next.num_nodes(), 0u);
    EXPECT_EQ(next.num_edges(), 0u);
    EXPECT_EQ(stats.joined, 0u);
  }
}

}  // namespace
}  // namespace incognito
