// Dedicated tests for reverse-BFS refinement and cardinality (§3.3).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "ceci/ceci_builder.h"
#include "ceci/enumerator.h"
#include "ceci/refinement.h"
#include "ceci/symmetry.h"
#include "gen/labels.h"
#include "gen/paper_queries.h"
#include "gen/query_gen.h"
#include "gen/random_graphs.h"
#include "test_support.h"

namespace ceci {
namespace {

using ::ceci::testing::MakeGraph;
using ::ceci::testing::MakeUnlabeled;

struct Built {
  Built(const Graph& data, const Graph& query, VertexId root) : nlc(data) {
    auto t = QueryTree::Build(query, root);
    CECI_CHECK(t.ok());
    tree = std::move(t).value();
    CeciBuilder builder(data, nlc);
    index = builder.Build(query, tree, BuildOptions{}, nullptr);
  }

  NlcIndex nlc;
  QueryTree tree;
  CeciIndex index;
};

TEST(RefinementTest, LeafCardinalityIsOne) {
  // Path query A-B: B is a leaf; every surviving candidate scores 1.
  Graph data = MakeGraph({0, 1, 1}, {{0, 1}, {0, 2}});
  Graph query = MakeGraph({0, 1}, {{0, 1}});
  Built b(data, query, 0);
  RefineCeci(b.tree, data.num_vertices(), &b.index, nullptr);
  for (std::size_t i = 0; i < b.index.at(1).candidates.size(); ++i) {
    EXPECT_EQ(b.index.at(1).cardinalities[i], 1u);
  }
  // Root: sum over its single child branch = 2.
  EXPECT_EQ(b.index.CardinalityOf(0, 0), 2u);
}

TEST(RefinementTest, CardinalityMultipliesAcrossBranches) {
  // Query: center 0 with two leaves. Data: center with 3 leaves of each
  // label -> cardinality 3 * 3 = 9.
  Graph query = MakeGraph({0, 1, 2}, {{0, 1}, {0, 2}});
  GraphBuilder db;
  db.AddLabel(0, 0);
  for (VertexId v = 1; v <= 3; ++v) db.AddLabel(v, 1);
  for (VertexId v = 4; v <= 6; ++v) db.AddLabel(v, 2);
  for (VertexId v = 1; v <= 6; ++v) db.AddEdge(0, v);
  auto data = db.Build();
  ASSERT_TRUE(data.ok());
  Built b(*data, query, 0);
  RefineCeci(b.tree, data->num_vertices(), &b.index, nullptr);
  EXPECT_EQ(b.index.CardinalityOf(0, 0), 9u);
}

TEST(RefinementTest, ZeroCardinalityCandidatesPruned) {
  // Data has a root candidate whose child candidate cannot reach a leaf.
  // Query path A-B-C. Data: v0(A)-v1(B)-v2(C) complete; v3(A)-v4(B) with
  // v4 lacking any C neighbor — v4 dies at build (empty key), and the
  // cascade or refinement must kill v3 too.
  Graph data = MakeGraph({0, 1, 2, 0, 1}, {{0, 1}, {1, 2}, {3, 4}});
  Graph query = MakeGraph({0, 1, 2}, {{0, 1}, {1, 2}});
  Built b(data, query, 0);
  RefineStats stats;
  RefineCeci(b.tree, data.num_vertices(), &b.index, &stats);
  EXPECT_EQ(b.index.at(0).candidates, (std::vector<VertexId>{0}));
  EXPECT_EQ(stats.total_cardinality, 1u);
}

TEST(RefinementTest, NteMembershipKillsCandidates) {
  // Triangle query A-B-C. v3 (label C) passes LF/DF/NLCF and is adjacent
  // to the pivot, but no candidate of u_B reaches it: v3 is absent from
  // the NTE (B,C) value union and refinement must prune it (Alg. 2 l. 5).
  Graph data = MakeGraph({0, 1, 2, 2, 3, 1},
                         {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {3, 4}, {3, 5}});
  Graph query = MakeGraph({0, 1, 2}, {{0, 1}, {1, 2}, {0, 2}});
  Built b(data, query, 0);
  // Before refinement both v2 and v3 are candidates of u_C.
  EXPECT_EQ(b.index.at(2).candidates, (std::vector<VertexId>{2, 3}));
  RefineStats stats;
  RefineCeci(b.tree, data.num_vertices(), &b.index, &stats);
  EXPECT_EQ(b.index.at(2).candidates, (std::vector<VertexId>{2}));
  EXPECT_GT(stats.pruned_candidates, 0u);
  EXPECT_EQ(stats.total_cardinality, 1u);
}

TEST(RefinementTest, CompleteButNotMinimal) {
  // §3.5: a square data graph under a triangle query keeps false
  // candidates — every vertex passes every static filter and appears in
  // every NTE union, yet no embedding exists. Refinement must NOT promise
  // minimality; enumeration must still find nothing.
  Graph data = MakeUnlabeled(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  Graph query = MakePaperQuery(PaperQuery::kQG1);
  Built b(data, query, 0);
  RefineStats stats;
  RefineCeci(b.tree, data.num_vertices(), &b.index, &stats);
  EXPECT_FALSE(b.index.at(0).candidates.empty());  // false candidates live
  EXPECT_GT(stats.total_cardinality, 0u);          // the bound over-counts
  SymmetryConstraints sym = SymmetryConstraints::Compute(query);
  EnumOptions eo;
  eo.symmetry = &sym;
  Enumerator e(data, b.tree, b.index, eo);
  EXPECT_EQ(e.EnumerateAll(nullptr), 0u);  // verification catches them
}

TEST(RefinementTest, CardinalityUpperBoundsTrueCount) {
  // The §4.3 property: pivot cardinality >= true embeddings per cluster.
  Graph data = GenerateSocialGraph(500, 8, 77);
  Graph query = MakePaperQuery(PaperQuery::kQG3);
  Built b(data, query, 0);
  RefineCeci(b.tree, data.num_vertices(), &b.index, nullptr);
  SymmetryConstraints none = SymmetryConstraints::None(4);
  EnumOptions eo;
  eo.symmetry = &none;
  Enumerator e(data, b.tree, b.index, eo);
  const auto& root = b.index.at(b.tree.root());
  for (std::size_t i = 0; i < root.candidates.size(); ++i) {
    std::uint64_t actual = e.EnumerateCluster(root.candidates[i], nullptr);
    EXPECT_GE(root.cardinalities[i], actual)
        << "pivot " << root.candidates[i];
  }
}

TEST(RefinementTest, RefinementNeverLosesEmbeddings) {
  // Counts with and without the refinement pass must agree (completeness,
  // Lemma 1): refinement only removes provably-dead candidates.
  Graph data = GenerateSocialGraph(800, 8, 13);
  Graph query = MakePaperQuery(PaperQuery::kQG5);
  SymmetryConstraints sym = SymmetryConstraints::Compute(query);
  EnumOptions eo;
  eo.symmetry = &sym;

  Built unrefined(data, query, 0);
  Enumerator e1(data, unrefined.tree, unrefined.index, eo);
  std::uint64_t count_unrefined = e1.EnumerateAll(nullptr);

  Built refined(data, query, 0);
  RefineCeci(refined.tree, data.num_vertices(), &refined.index, nullptr);
  Enumerator e2(data, refined.tree, refined.index, eo);
  std::uint64_t count_refined = e2.EnumerateAll(nullptr);

  EXPECT_EQ(count_refined, count_unrefined);
  // And refinement must not *increase* the search space.
  EXPECT_LE(e2.stats().recursive_calls, e1.stats().recursive_calls);
}

TEST(RefinementTest, CompactionDropsDeadEntries) {
  Graph data = GenerateSocialGraph(600, 6, 21);
  Graph query = MakePaperQuery(PaperQuery::kQG4);
  Built b(data, query, 0);
  RefineStats stats;
  RefineCeci(b.tree, data.num_vertices(), &b.index, &stats);
  // After compaction, every TE key must be an alive candidate of the
  // parent and every value an alive candidate of the child.
  for (VertexId u = 0; u < 4; ++u) {
    const auto& ud = b.index.at(u);
    if (u == b.tree.root()) continue;
    const auto& parent_cands = b.index.at(b.tree.parent(u)).candidates;
    for (std::size_t k = 0; k < ud.te.num_keys(); ++k) {
      EXPECT_TRUE(std::binary_search(parent_cands.begin(),
                                     parent_cands.end(), ud.te.keys()[k]));
      for (VertexId v : ud.te.values_at(k)) {
        EXPECT_TRUE(std::binary_search(ud.candidates.begin(),
                                       ud.candidates.end(), v));
      }
    }
  }
}

TEST(RefinementTest, SaturationOnDenseGraph) {
  // A clique makes cardinalities explode; saturating arithmetic must cap
  // rather than wrap.
  std::vector<std::pair<VertexId, VertexId>> edges;
  const VertexId n = 24;
  for (VertexId a = 0; a < n; ++a) {
    for (VertexId b = a + 1; b < n; ++b) edges.push_back({a, b});
  }
  Graph data = MakeUnlabeled(n, edges);
  Graph query = MakePaperQuery(PaperQuery::kQG5);
  Built b(data, query, 0);
  RefineStats stats;
  RefineCeci(b.tree, data.num_vertices(), &b.index, &stats);
  EXPECT_GT(stats.total_cardinality, 0u);
  EXPECT_LE(stats.total_cardinality, kCardinalityCap);
}

// Test-local reference refinement: the §3.3 recurrence with one
// binary-search Find per (candidate, tree child), ordered maps for the
// cardinalities, and its own compaction into key -> value-set maps.
using ListModel = std::map<VertexId, std::vector<VertexId>>;

struct ReferenceRefined {
  std::vector<std::vector<VertexId>> candidates;
  std::vector<std::vector<Cardinality>> cardinalities;
  std::vector<ListModel> te;
  std::vector<std::vector<ListModel>> nte;
  RefineStats stats;
};

ReferenceRefined ReferenceRefine(const QueryTree& tree,
                                 const CeciIndex& index) {
  const std::size_t nq = tree.num_vertices();
  ReferenceRefined ref;
  ref.candidates.resize(nq);
  ref.cardinalities.resize(nq);
  ref.te.resize(nq);
  ref.nte.resize(nq);
  std::vector<std::map<VertexId, Cardinality>> card(nq);
  const auto& order = tree.matching_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const VertexId u = *it;
    const CeciVertexData& ud = index.at(u);
    std::vector<std::set<VertexId>> nte_union;
    for (const CandidateList& list : ud.nte) {
      const std::vector<VertexId> all = list.UnionOfValues();
      nte_union.emplace_back(all.begin(), all.end());
    }
    for (VertexId v : ud.candidates) {
      Cardinality c = 1;
      for (const auto& in : nte_union) {
        if (in.count(v) == 0) c = 0;
      }
      for (VertexId u_c : tree.children(u)) {
        if (c == 0) break;
        Cardinality sum = 0;
        for (VertexId v_c : index.at(u_c).te.Find(v)) {
          const auto found = card[u_c].find(v_c);
          if (found != card[u_c].end()) sum = SaturatingAdd(sum, found->second);
        }
        c = SaturatingMul(c, sum);
      }
      if (c == 0) {
        ++ref.stats.pruned_candidates;
        continue;
      }
      card[u][v] = c;
      ref.candidates[u].push_back(v);
      ref.cardinalities[u].push_back(c);
    }
  }
  auto compact = [&](const CandidateList& list, VertexId key_owner,
                     VertexId value_owner) {
    ListModel kept;
    for (std::size_t i = 0; i < list.num_keys(); ++i) {
      const auto vals = list.values_at(i);
      if (card[key_owner].count(list.keys()[i]) == 0) {
        ref.stats.pruned_edges += vals.size();
        continue;
      }
      std::vector<VertexId> alive;
      for (VertexId v : vals) {
        if (card[value_owner].count(v) != 0) alive.push_back(v);
      }
      ref.stats.pruned_edges += vals.size() - alive.size();
      if (!alive.empty()) kept.emplace(list.keys()[i], std::move(alive));
    }
    return kept;
  };
  for (VertexId u = 0; u < nq; ++u) {
    if (u != tree.root()) ref.te[u] = compact(index.at(u).te, tree.parent(u), u);
    const auto nte_ids = tree.nte_in(u);
    for (std::size_t k = 0; k < index.at(u).nte.size(); ++k) {
      ref.nte[u].push_back(compact(index.at(u).nte[k],
                                   tree.non_tree_edges()[nte_ids[k]].parent,
                                   u));
    }
  }
  for (Cardinality c : ref.cardinalities[tree.root()]) {
    ref.stats.total_cardinality = SaturatingAdd(ref.stats.total_cardinality, c);
  }
  return ref;
}

ListModel AsModel(const CandidateList& list) {
  ListModel model;
  for (std::size_t i = 0; i < list.num_keys(); ++i) {
    const auto vals = list.values_at(i);
    model.emplace(list.keys()[i], std::vector<VertexId>(vals.begin(),
                                                        vals.end()));
  }
  return model;
}

// RefineCeci looks each child's TE list up by a merge walk over the sorted
// candidates and keys; it must agree with the binary-search reference on
// candidates, cardinalities, compacted lists and every RefineStats counter.
TEST(RefinementTest, MergeWalkMatchesBinarySearchReference) {
  const Graph data =
      AssignMultiLabels(GenerateSocialGraph(1200, 8, 31), 4, 2, 32);
  std::size_t checked = 0;
  std::size_t with_nte = 0;
  std::uint64_t pruned = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    QueryGenOptions qo;
    qo.num_vertices = 4 + seed % 4;
    qo.seed = seed;
    const auto query = GenerateQuery(data, qo);
    ASSERT_TRUE(query.has_value()) << "seed " << seed;
    Built b(data, *query, static_cast<VertexId>(seed % qo.num_vertices));
    const ReferenceRefined ref = ReferenceRefine(b.tree, b.index);
    RefineStats stats;
    RefineCeci(b.tree, data.num_vertices(), &b.index, &stats);
    for (VertexId u = 0; u < query->num_vertices(); ++u) {
      const CeciVertexData& ud = b.index.at(u);
      EXPECT_EQ(ud.candidates, ref.candidates[u]) << "seed " << seed;
      EXPECT_EQ(ud.cardinalities, ref.cardinalities[u]) << "seed " << seed;
      if (u != b.tree.root()) {
        EXPECT_EQ(AsModel(ud.te), ref.te[u]) << "seed " << seed;
      }
      ASSERT_EQ(ud.nte.size(), ref.nte[u].size());
      for (std::size_t k = 0; k < ud.nte.size(); ++k) {
        EXPECT_EQ(AsModel(ud.nte[k]), ref.nte[u][k]) << "seed " << seed;
      }
    }
    EXPECT_EQ(stats.pruned_candidates, ref.stats.pruned_candidates);
    EXPECT_EQ(stats.pruned_edges, ref.stats.pruned_edges);
    EXPECT_EQ(stats.total_cardinality, ref.stats.total_cardinality);
    ++checked;
    if (b.tree.num_non_tree_edges() > 0) ++with_nte;
    pruned += stats.pruned_candidates;
  }
  EXPECT_GE(checked, 10u);
  EXPECT_GT(with_nte, 0u) << "no generated query had a non-tree edge";
  EXPECT_GT(pruned, 0u) << "no generated query exercised pruning";
}

}  // namespace
}  // namespace ceci
