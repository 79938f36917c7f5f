// Randomized property tests for CECI construction (Algorithm 1).
//
// The load-bearing invariants:
//  * soundness  — every stored candidate edge is a real data edge with
//    compatible labels/degrees;
//  * completeness (Lemma 1) — every vertex participating in a true
//    embedding survives as a candidate of the query vertex it matches,
//    and every matched edge appears in the corresponding TE/NTE list;
//  * determinism — parallel construction equals serial construction;
//  * verdict reuse — a build handed Preprocess's filter verdicts equals a
//    build that computes them itself, statistics included.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "baselines/vf2.h"
#include "ceci/ceci_builder.h"
#include "ceci/preprocess.h"
#include "ceci/refinement.h"
#include "gen/labels.h"
#include "gen/paper_queries.h"
#include "gen/query_gen.h"
#include "gen/random_graphs.h"
#include "graph/graph_builder.h"
#include "test_support.h"
#include "util/thread_pool.h"

namespace ceci {
namespace {

using ::ceci::testing::PaperExample;

struct Scenario {
  Graph data;
  Graph query;
};

Scenario MakeScenario(int seed) {
  Graph data = AssignRandomLabels(
      GenerateSocialGraph(200 + 40 * (seed % 5), 8,
                          static_cast<std::uint64_t>(seed)),
      1 + seed % 4, static_cast<std::uint64_t>(seed) + 100);
  if (seed % 3 == 0) {
    return {std::move(data), MakePaperQuery(kAllPaperQueries[seed / 3 % 5])};
  }
  QueryGenOptions qopt;
  qopt.num_vertices = 3 + seed % 4;
  qopt.seed = static_cast<std::uint64_t>(seed) * 31 + 7;
  auto query = GenerateQuery(data, qopt);
  CECI_CHECK(query.has_value());
  return {std::move(data), std::move(*query)};
}

struct Built {
  Built(const Graph& data, const Graph& query, bool refine,
        ThreadPool* pool = nullptr) : nlc(data) {
    auto t = QueryTree::Build(query, 0);
    CECI_CHECK(t.ok());
    tree = std::move(t).value();
    BuildOptions options;
    options.pool = pool;
    options.parallel_threshold = 1;
    CeciBuilder builder(data, nlc);
    index = builder.Build(query, tree, options, nullptr);
    if (refine) RefineCeci(tree, data.num_vertices(), &index, nullptr);
  }

  NlcIndex nlc;
  QueryTree tree;
  CeciIndex index;
};

class BuilderPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BuilderPropertyTest, StoredCandidateEdgesAreSound) {
  Scenario s = MakeScenario(GetParam());
  Built b(s.data, s.query, /*refine=*/true);
  for (VertexId u = 0; u < s.query.num_vertices(); ++u) {
    const auto& ud = b.index.at(u);
    // TE values: real edges, label containment, degree bound.
    for (std::size_t k = 0; k < ud.te.num_keys(); ++k) {
      VertexId key = ud.te.keys()[k];
      for (VertexId v : ud.te.values_at(k)) {
        EXPECT_TRUE(s.data.HasEdge(key, v));
        EXPECT_TRUE(s.data.HasAllLabels(v, s.query.labels(u)));
        EXPECT_GE(s.data.degree(v), s.query.degree(u));
      }
    }
    for (const auto& nte : ud.nte) {
      for (std::size_t k = 0; k < nte.num_keys(); ++k) {
        VertexId key = nte.keys()[k];
        for (VertexId v : nte.values_at(k)) {
          EXPECT_TRUE(s.data.HasEdge(key, v));
        }
      }
    }
  }
}

TEST_P(BuilderPropertyTest, TrueEmbeddingsSurviveFilteringAndRefinement) {
  Scenario s = MakeScenario(GetParam());
  Built b(s.data, s.query, /*refine=*/true);
  const auto& tree = b.tree;

  // Collect the ground truth with the VF2 oracle (no symmetry breaking so
  // every matched (u, v) pair is exercised).
  Vf2Options oracle_options;
  oracle_options.break_automorphisms = false;
  oracle_options.limit = 2000;  // plenty of pairs, bounded runtime
  std::size_t checked = 0;
  EmbeddingVisitor check = [&](std::span<const VertexId> m) {
    ++checked;
    for (VertexId u = 0; u < m.size(); ++u) {
      const auto& cands = b.index.at(u).candidates;
      EXPECT_TRUE(std::binary_search(cands.begin(), cands.end(), m[u]))
          << "matched v" << m[u] << " missing from candidates of u" << u;
    }
    // Every tree edge of the query must be present as a TE entry.
    for (VertexId u = 0; u < m.size(); ++u) {
      if (u == tree.root()) continue;
      auto vals = b.index.at(u).te.Find(m[tree.parent(u)]);
      EXPECT_TRUE(std::binary_search(vals.begin(), vals.end(), m[u]))
          << "TE entry missing for u" << u;
    }
    // And every non-tree edge as an NTE entry.
    auto ntes = tree.non_tree_edges();
    for (VertexId u = 0; u < m.size(); ++u) {
      auto ids = tree.nte_in(u);
      for (std::size_t k = 0; k < ids.size(); ++k) {
        auto vals = b.index.at(u).nte[k].Find(m[ntes[ids[k]].parent]);
        EXPECT_TRUE(std::binary_search(vals.begin(), vals.end(), m[u]))
            << "NTE entry missing for u" << u;
      }
    }
    return true;
  };
  Vf2Count(s.data, s.query, oracle_options, &check);
  // The scenario generator guarantees at least one embedding for
  // DFS-extracted queries; paper queries may legitimately have none.
  (void)checked;
}

TEST_P(BuilderPropertyTest, ParallelBuildEqualsSerial) {
  Scenario s = MakeScenario(GetParam());
  Built serial(s.data, s.query, /*refine=*/true);
  ThreadPool pool(4);
  Built parallel(s.data, s.query, /*refine=*/true, &pool);
  for (VertexId u = 0; u < s.query.num_vertices(); ++u) {
    EXPECT_EQ(serial.index.at(u).candidates,
              parallel.index.at(u).candidates);
    EXPECT_EQ(serial.index.at(u).cardinalities,
              parallel.index.at(u).cardinalities);
    EXPECT_EQ(serial.index.at(u).te.TotalValues(),
              parallel.index.at(u).te.TotalValues());
  }
}

TEST_P(BuilderPropertyTest, TeValueUnionsSubsetOfCandidatesAfterRefine) {
  // After refinement the compaction can orphan a candidate whose only TE
  // keys died when the *parent* was processed later in the reverse pass —
  // harmless (enumeration cannot reach it), so only ⊆ holds.
  Scenario s = MakeScenario(GetParam());
  Built b(s.data, s.query, /*refine=*/true);
  for (VertexId u = 0; u < s.query.num_vertices(); ++u) {
    if (u == b.tree.root()) continue;
    const auto& cands = b.index.at(u).candidates;
    for (VertexId v : b.index.at(u).te.UnionOfValues()) {
      EXPECT_TRUE(std::binary_search(cands.begin(), cands.end(), v))
          << "u" << u << " v" << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuilderPropertyTest, ::testing::Range(0, 15));

// --- Verdict reuse --------------------------------------------------------

std::vector<VertexId> ToVector(std::span<const VertexId> s) {
  return {s.begin(), s.end()};
}

void ExpectSameList(const CandidateList& a, const CandidateList& b,
                    const std::string& what) {
  ASSERT_EQ(ToVector(a.keys()), ToVector(b.keys())) << what;
  for (std::size_t i = 0; i < a.num_keys(); ++i) {
    EXPECT_EQ(ToVector(a.values_at(i)), ToVector(b.values_at(i)))
        << what << " key " << a.keys()[i];
  }
}

// One build of `query` under Preprocess's tree: with the verdict table
// Preprocess computed, or (reuse = false) letting Build compute its own.
struct VerdictBuild {
  CeciIndex index;
  BuildStats stats;
  std::vector<BuildVertexStats> vertex_stats;
};

VerdictBuild BuildWith(const Graph& data, const NlcIndex& nlc,
                       const Graph& query, Preprocessed* pre, bool reuse,
                       BuildOptions options) {
  VerdictBuild out;
  options.vertex_stats = &out.vertex_stats;
  options.verdicts = reuse ? &pre->verdicts : nullptr;
  out.index =
      CeciBuilder(data, nlc).Build(query, pre->tree, options, &out.stats);
  if (reuse) {
    EXPECT_TRUE(pre->verdicts.empty()) << "Build consumes the table";
  }
  return out;
}

// Builds twice — verdicts handed over, verdicts computed by Build — and
// requires identical candidates, TE/NTE lists and statistics.
void ExpectVerdictReuseIsExact(const Graph& data, const Graph& query,
                               const BuildOptions& options = {}) {
  NlcIndex nlc(data);
  auto pre = Preprocess(data, nlc, query, PreprocessOptions{});
  ASSERT_TRUE(pre.ok());
  const VerdictBuild own = BuildWith(data, nlc, query, &*pre, false, options);
  const VerdictBuild reused = BuildWith(data, nlc, query, &*pre, true, options);

  for (VertexId u = 0; u < query.num_vertices(); ++u) {
    const CeciVertexData& a = reused.index.at(u);
    const CeciVertexData& b = own.index.at(u);
    const std::string where = "u" + std::to_string(u);
    EXPECT_EQ(a.candidates, b.candidates) << where;
    ExpectSameList(a.te, b.te, where + " TE");
    ASSERT_EQ(a.nte.size(), b.nte.size()) << where;
    for (std::size_t k = 0; k < a.nte.size(); ++k) {
      ExpectSameList(a.nte[k], b.nte[k], where + " NTE " + std::to_string(k));
    }
  }
  const BuildStats& x = reused.stats;
  const BuildStats& y = own.stats;
  EXPECT_EQ(x.rejected_label, y.rejected_label);
  EXPECT_EQ(x.rejected_degree, y.rejected_degree);
  EXPECT_EQ(x.rejected_nlc, y.rejected_nlc);
  EXPECT_EQ(x.cascade_removals, y.cascade_removals);
  EXPECT_EQ(x.nte_cascade_removals, y.nte_cascade_removals);
  EXPECT_EQ(x.frontier_expansions, y.frontier_expansions);
  EXPECT_EQ(x.neighbors_scanned, y.neighbors_scanned);
  ASSERT_EQ(reused.vertex_stats.size(), own.vertex_stats.size());
  for (std::size_t i = 0; i < own.vertex_stats.size(); ++i) {
    const BuildVertexStats& p = reused.vertex_stats[i];
    const BuildVertexStats& q = own.vertex_stats[i];
    EXPECT_EQ(p.u, q.u);
    EXPECT_EQ(p.candidates_filtered, q.candidates_filtered) << "u" << q.u;
    EXPECT_EQ(p.rejected_label, q.rejected_label) << "u" << q.u;
    EXPECT_EQ(p.rejected_degree, q.rejected_degree) << "u" << q.u;
    EXPECT_EQ(p.rejected_nlc, q.rejected_nlc) << "u" << q.u;
  }
}

TEST(BuilderVerdictReuseTest, PaperExample) {
  Graph data = PaperExample::Data();
  Graph query = PaperExample::Query();
  ExpectVerdictReuseIsExact(data, query);
}

// A connected query grown breadth-first from `start`, every query vertex
// carrying all labels of the data vertex it came from.
Graph GrowMultiLabelQuery(const Graph& data, VertexId start, std::size_t n) {
  std::vector<VertexId> picked = {start};
  for (std::size_t i = 0; i < picked.size() && picked.size() < n; ++i) {
    for (VertexId w : data.neighbors(picked[i])) {
      if (picked.size() == n) break;
      if (std::find(picked.begin(), picked.end(), w) == picked.end()) {
        picked.push_back(w);
      }
    }
  }
  GraphBuilder qb;
  for (std::size_t i = 0; i < picked.size(); ++i) {
    for (Label l : data.labels(picked[i])) {
      qb.AddLabel(static_cast<VertexId>(i), l);
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (data.HasEdge(picked[i], picked[j])) {
        qb.AddEdge(static_cast<VertexId>(i), static_cast<VertexId>(j));
      }
    }
  }
  auto query = qb.Build();
  CECI_CHECK(query.ok());
  return std::move(query).value();
}

TEST(BuilderVerdictReuseTest, MultiLabelQueriesCheckLabelsInsideTheBucket) {
  const Graph data =
      AssignMultiLabels(GenerateSocialGraph(400, 6, 11), 4, 3, 12);
  std::size_t queries = 0;
  std::size_t bucket_label_rejections = 0;
  for (VertexId start = 0; start < data.num_vertices() && queries < 6;
       start += 13) {
    if (data.labels(start).size() < 2) continue;
    const Graph query = GrowMultiLabelQuery(data, start, 4 + queries % 3);
    ASSERT_GE(query.labels(0).size(), 2u);
    ++queries;
    ExpectVerdictReuseIsExact(data, query);

    // Vertices that carry one of u's labels but not all of them sit in a
    // label bucket of u and are still label rejections.
    NlcIndex nlc(data);
    const FilterVerdicts verdicts =
        ComputeFilterVerdicts(data, nlc, query, nullptr);
    for (VertexId u = 0; u < query.num_vertices(); ++u) {
      for (Label l : query.labels(u)) {
        for (VertexId v : data.VerticesWithLabel(l)) {
          if (data.HasAllLabels(v, query.labels(u))) continue;
          EXPECT_EQ(verdicts.at(u, v), FilterVerdict::kRejectLabel);
          ++bucket_label_rejections;
        }
      }
    }
  }
  EXPECT_EQ(queries, 6u);
  EXPECT_GT(bucket_label_rejections, 0u);
}

TEST(BuilderVerdictReuseTest, RootCandidateSubset) {
  // The distributed path: each machine builds over a subset of the root's
  // candidates.
  for (int seed : {1, 2, 4, 5}) {
    Scenario s = MakeScenario(seed);
    NlcIndex nlc(s.data);
    auto pre = Preprocess(s.data, nlc, s.query, PreprocessOptions{});
    ASSERT_TRUE(pre.ok());
    const std::vector<VertexId> all =
        PassingCandidates(s.data, s.query, pre->verdicts, pre->root);
    EXPECT_EQ(all, CollectCandidates(s.data, nlc, s.query, pre->root));
    std::vector<VertexId> half;
    for (std::size_t i = 0; i < all.size(); i += 2) half.push_back(all[i]);
    BuildOptions options;
    options.root_candidates = &half;
    ExpectVerdictReuseIsExact(s.data, s.query, options);
  }
}

TEST(BuilderVerdictReuseTest, PooledParallelPath) {
  ThreadPool pool(4);
  BuildOptions options;
  options.pool = &pool;
  options.parallel_threshold = 2;  // every non-trivial frontier fans out
  for (int seed = 0; seed < 8; ++seed) {
    Scenario s = MakeScenario(seed);
    ExpectVerdictReuseIsExact(s.data, s.query, options);
  }
}


}  // namespace
}  // namespace ceci
