// Unit tests for the Graph CSR representation, builder, and NLC index.
#include <gtest/gtest.h>

#include <algorithm>

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
  EXPECT_EQ(index.entry_bytes(), (g.num_vertices() + 1) * sizeof(EdgeId) +
                                     total * sizeof(NlcIndex::Entry));
  EXPECT_EQ(index.signature_bytes(), g.num_vertices() * sizeof(std::uint64_t));
  EXPECT_EQ(index.MemoryBytes(), index.entry_bytes() + index.signature_bytes());
}

// Byte b of a signature, as a count.
unsigned SignatureByte(std::uint64_t sig, unsigned b) {
  return static_cast<unsigned>((sig >> (8 * b)) & 0xFF);
}

TEST(NlcIndexTest, SignatureCoversComparesEveryByteUnsigned) {
  // Bytes on both sides of the 0x80 boundary, where a plain subtraction
  // would borrow or a signed compare would flip.
  const unsigned values[] = {0, 1, 2, 126, 127, 128, 129, 200, 254, 255};
  for (unsigned have : values) {
    for (unsigned need : values) {
      for (unsigned b = 0; b < NlcIndex::kSignatureBuckets; ++b) {
        // The tested byte sits between bytes that pass either way.
        const std::uint64_t fill_have = 0x8080808080808080ULL;
        const std::uint64_t fill_need = 0x7F7F7F7F7F7F7F7FULL;
        const std::uint64_t clear = ~(std::uint64_t{0xFF} << (8 * b));
        const std::uint64_t h =
            (fill_have & clear) | (std::uint64_t{have} << (8 * b));
        const std::uint64_t n =
            (fill_need & clear) | (std::uint64_t{need} << (8 * b));
        ASSERT_EQ(NlcIndex::SignatureCovers(h, n), have >= need)
            << have << " vs " << need << " in byte " << b;
      }
    }
  }
}

TEST(NlcIndexTest, SignatureFoldsLabelsIntoSaturatingBuckets) {
  const std::vector<NlcIndex::Entry> runs = {
      {1, 3}, {9, 4}, {2, 250}, {10, 10}, {7, 300}};
  const std::uint64_t sig = NlcIndex::Signature(runs);
  EXPECT_EQ(SignatureByte(sig, 0), 0u);
  EXPECT_EQ(SignatureByte(sig, 1), 7u);    // labels 1 and 9 share bucket 1
  EXPECT_EQ(SignatureByte(sig, 2), 255u);  // 250 + 10 saturates
  EXPECT_EQ(SignatureByte(sig, 7), 255u);  // 300 saturates on its own
}

// A signature reject is always a Covers reject, whatever the label count;
// with at most eight labels, labels below eight and counts below 255, the
// signature alone gives Covers' answer.
TEST(NlcIndexTest, SignatureIsSoundAndExactWhereStated) {
  struct Case {
    std::size_t labels;
    std::size_t per_vertex;
  };
  for (const Case c : {Case{4, 1}, Case{8, 1}, Case{8, 3}, Case{12, 1},
                       Case{60, 3}}) {
    const Graph data = AssignMultiLabels(GenerateSocialGraph(800, 6, 5),
                                         c.labels, c.per_vertex, 21);
    const Graph queries = AssignMultiLabels(GenerateSocialGraph(200, 4, 6),
                                            c.labels + 3, c.per_vertex, 22);
    NlcIndex index(data);
    EXPECT_EQ(index.signatures_exact(), c.labels <= 8);
    std::size_t decided_by_signature = 0;
    for (VertexId u = 0; u < queries.num_vertices(); ++u) {
      const NlcIndex::Need need = index.NeedOf(queries, u);
      const bool small_labels = std::all_of(
          need.profile.begin(), need.profile.end(),
          [](const NlcIndex::Entry& e) { return e.label < 8; });
      EXPECT_EQ(need.signature_exact, c.labels <= 8 && small_labels);
      for (VertexId v = 0; v < data.num_vertices(); ++v) {
        const bool covers = index.Covers(v, need.profile);
        const bool sig =
            NlcIndex::SignatureCovers(index.signature(v), need.signature);
        ASSERT_TRUE(sig || !covers) << "unsound reject u" << u << " v" << v;
        if (need.signature_exact) {
          ASSERT_EQ(sig, covers) << "inexact u" << u << " v" << v;
          ++decided_by_signature;
        }
        ASSERT_EQ(index.Passes(v, need), covers) << "u" << u << " v" << v;
      }
    }
    if (c.labels <= 8) {
      EXPECT_GT(decided_by_signature, 0u);
    }
  }
}

TEST(NlcIndexTest, SaturatedCountsFallBackToTheMerge) {
  // Hub 0 has 300 label-1 leaves; hub 1 has 256. Both saturate byte 1, so
  // a need of 300 cannot be told from the signature.
  std::vector<Label> labels = {0, 0};
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId leaf = 2; leaf < 302; ++leaf) {
    labels.push_back(1);
    edges.emplace_back(0, leaf);
    if (leaf < 258) edges.emplace_back(1, leaf);
  }
  Graph data = MakeGraph(labels, edges);
  NlcIndex index(data);
  EXPECT_EQ(SignatureByte(index.signature(0), 1), 255u);
  EXPECT_EQ(SignatureByte(index.signature(1), 1), 255u);
  // The query is hub 0's star itself: its centre needs 300 label-1
  // neighbours.
  const NlcIndex::Need need = index.NeedOf(data, 0);
  EXPECT_FALSE(need.signature_exact);
  EXPECT_TRUE(NlcIndex::SignatureCovers(index.signature(1), need.signature));
  EXPECT_FALSE(index.Passes(1, need));
  EXPECT_TRUE(index.Passes(0, need));
  // 254 is below saturation, so that need stays exact.
  std::vector<std::pair<VertexId, VertexId>> star;
  for (VertexId leaf = 1; leaf < 255; ++leaf) star.emplace_back(0, leaf);
  EXPECT_TRUE(index.NeedOf(MakeGraph(std::vector<Label>(255, 1), star), 0)
                  .signature_exact);
}

}  // namespace
}  // namespace ceci
