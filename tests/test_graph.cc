// Unit tests for the Graph CSR representation, builder, and NLC index.
#include <gtest/gtest.h>

#include "gen/labels.h"
#include "gen/random_graphs.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "graph/nlc_index.h"
#include "test_support.h"

namespace ceci {
namespace {

using ::ceci::testing::MakeGraph;
using ::ceci::testing::MakeUnlabeled;

TEST(GraphBuilderTest, EmptyGraphFails) {
  GraphBuilder builder;
  auto g = builder.Build();
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), Status::Code::kInvalidArgument);
}

TEST(GraphBuilderTest, SelfLoopsDropped) {
  GraphBuilder builder;
  builder.ReserveVertices(2);
  builder.AddEdge(0, 0);
  builder.AddEdge(0, 1);
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 1u);
  EXPECT_EQ(g->degree(0), 1u);
}

TEST(GraphBuilderTest, DuplicateEdgesDeduped) {
  Graph g = MakeUnlabeled(3, {{0, 1}, {1, 0}, {0, 1}, {1, 2}});
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 2u);
}

TEST(GraphBuilderTest, IsolatedVerticesAllowed) {
  GraphBuilder builder;
  builder.ReserveVertices(5);
  builder.AddEdge(0, 1);
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_vertices(), 5u);
  EXPECT_EQ(g->degree(4), 0u);
}

TEST(GraphTest, AdjacencySortedAndSymmetric) {
  Graph g = MakeUnlabeled(4, {{2, 0}, {0, 1}, {3, 0}});
  auto n0 = g.neighbors(0);
  EXPECT_TRUE(std::is_sorted(n0.begin(), n0.end()));
  EXPECT_EQ(n0.size(), 3u);
  EXPECT_TRUE(g.HasEdge(0, 2));
  EXPECT_TRUE(g.HasEdge(2, 0));
  EXPECT_FALSE(g.HasEdge(1, 2));
}

TEST(GraphTest, DefaultLabelIsZero) {
  Graph g = MakeUnlabeled(2, {{0, 1}});
  EXPECT_EQ(g.label(0), 0u);
  EXPECT_TRUE(g.HasLabel(0, 0));
  EXPECT_EQ(g.num_labels(), 1u);
}

TEST(GraphTest, MultiLabelContainment) {
  GraphBuilder builder;
  builder.AddLabel(0, 3);
  builder.AddLabel(0, 1);
  builder.AddLabel(1, 2);
  builder.AddEdge(0, 1);
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  auto ls = g->labels(0);
  EXPECT_EQ(std::vector<Label>(ls.begin(), ls.end()),
            (std::vector<Label>{1, 3}));
  std::vector<Label> req1 = {1};
  std::vector<Label> req13 = {1, 3};
  std::vector<Label> req2 = {2};
  EXPECT_TRUE(g->HasAllLabels(0, req1));
  EXPECT_TRUE(g->HasAllLabels(0, req13));
  EXPECT_FALSE(g->HasAllLabels(0, req2));
}

TEST(GraphTest, LabelIndexGroupsVertices) {
  Graph g = MakeGraph({5, 7, 5}, {{0, 1}, {1, 2}});
  auto with5 = g.VerticesWithLabel(5);
  EXPECT_EQ(std::vector<VertexId>(with5.begin(), with5.end()),
            (std::vector<VertexId>{0, 2}));
  auto with7 = g.VerticesWithLabel(7);
  EXPECT_EQ(with7.size(), 1u);
  EXPECT_TRUE(g.VerticesWithLabel(6).empty());
  EXPECT_TRUE(g.VerticesWithLabel(999).empty());
}

TEST(GraphTest, MaxDegreeAndSummary) {
  Graph g = MakeUnlabeled(4, {{0, 1}, {0, 2}, {0, 3}});
  EXPECT_EQ(g.max_degree(), 3u);
  EXPECT_NE(g.Summary().find("|V|=4"), std::string::npos);
  EXPECT_GT(g.MemoryBytes(), 0u);
}

TEST(NlcIndexTest, ProfileCountsNeighborLabels) {
  // Star: center 0 (label 9) with leaves labeled 1,1,2.
  Graph g = MakeGraph({9, 1, 1, 2}, {{0, 1}, {0, 2}, {0, 3}});
  auto profile = NlcIndex::Profile(g, 0);
  ASSERT_EQ(profile.size(), 2u);
  EXPECT_EQ(profile[0].label, 1u);
  EXPECT_EQ(profile[0].count, 2u);
  EXPECT_EQ(profile[1].label, 2u);
  EXPECT_EQ(profile[1].count, 1u);
}

TEST(NlcIndexTest, CoversRequiresAllCounts) {
  Graph g = MakeGraph({9, 1, 1, 2}, {{0, 1}, {0, 2}, {0, 3}});
  NlcIndex index(g);
  std::vector<NlcIndex::Entry> need_ok = {{1, 2}, {2, 1}};
  std::vector<NlcIndex::Entry> need_more = {{1, 3}};
  std::vector<NlcIndex::Entry> need_absent = {{4, 1}};
  EXPECT_TRUE(index.Covers(0, need_ok));
  EXPECT_FALSE(index.Covers(0, need_more));
  EXPECT_FALSE(index.Covers(0, need_absent));
  EXPECT_TRUE(index.Covers(0, {}));
}

TEST(NlcIndexTest, MultiLabelNeighborCountsEachLabel) {
  GraphBuilder builder;
  builder.AddLabel(0, 0);
  builder.AddLabel(1, 1);
  builder.AddLabel(1, 2);  // neighbor carries two labels
  builder.AddEdge(0, 1);
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  NlcIndex index(*g);
  std::vector<NlcIndex::Entry> need1 = {{1, 1}};
  std::vector<NlcIndex::Entry> need2 = {{2, 1}};
  EXPECT_TRUE(index.Covers(0, need1));
  EXPECT_TRUE(index.Covers(0, need2));
}

TEST(NlcIndexTest, MatchesProfileForEveryVertex) {
  Graph g = MakeGraph({0, 1, 2, 0, 1}, {{0, 1}, {0, 2}, {1, 2}, {2, 3},
                                        {3, 4}});
  NlcIndex index(g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    auto expected = NlcIndex::Profile(g, v);
    auto got = index.entries(v);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(got[i].label, expected[i].label);
      EXPECT_EQ(got[i].count, expected[i].count);
    }
  }
}

// The counted two-pass constructor must lay out exactly the runs Profile
// computes per vertex: multi-label neighbours, skewed degrees, and labels
// absent from some neighbourhoods all occur on this graph.
TEST(NlcIndexTest, MatchesProfileOnSeededMultiLabelGraph) {
  const Graph g =
      AssignMultiLabels(GenerateSocialGraph(1500, 6, 17), 12, 3, 18);
  NlcIndex index(g);
  std::size_t total = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto expected = NlcIndex::Profile(g, v);
    const auto got = index.entries(v);
    ASSERT_EQ(got.size(), expected.size()) << "vertex " << v;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(got[i].label, expected[i].label) << "vertex " << v;
      ASSERT_EQ(got[i].count, expected[i].count) << "vertex " << v;
    }
    total += expected.size();
  }
  EXPECT_EQ(index.MemoryBytes(), (g.num_vertices() + 1) * sizeof(EdgeId) +
                                     total * sizeof(NlcIndex::Entry));
}

}  // namespace
}  // namespace ceci
