// FlatCeciIndex unit tests: arena construction from a refined mutable
// index, the hybrid array/bitmap representation rule, entry decoding,
// exact byte accounting, cloning, pointer/flat enumeration agreement, and
// the freeze's byte-exactness against a reference implementation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <vector>

#include "ceci/ceci_builder.h"
#include "ceci/enumerator.h"
#include "ceci/flat_index.h"
#include "ceci/refinement.h"
#include "ceci/symmetry.h"
#include "gen/labels.h"
#include "gen/paper_queries.h"
#include "gen/query_gen.h"
#include "gen/random_graphs.h"
#include "test_support.h"
#include "util/bitmap.h"

namespace ceci {
namespace {

using ::ceci::testing::EmbeddingCollector;
using ::ceci::testing::MakeGraph;
using ::ceci::testing::PaperExample;

// Refined pipeline + its frozen flat form for one (data, query) pair.
struct Frozen {
  Frozen(const Graph& data_graph, const Graph& query_graph, VertexId root)
      : data(data_graph), query(query_graph), nlc(data) {
    auto t = QueryTree::Build(query, root);
    CECI_CHECK(t.ok());
    tree = std::move(t).value();
    CeciBuilder builder(data, nlc);
    index = builder.Build(query, tree, BuildOptions{}, nullptr);
    RefineCeci(tree, data.num_vertices(), &index, nullptr);
    flat = FlatCeciIndex::Build(index, tree);
  }

  Graph data;
  Graph query;
  NlcIndex nlc;
  QueryTree tree;
  CeciIndex index;
  FlatCeciIndex flat;
};

// Decodes a flat value set back to sorted data-vertex ids through the
// owner's candidate array.
std::vector<VertexId> Decode(const FlatCeciIndex& flat, VertexId owner,
                             const FlatCeciIndex::EntryRef& ref) {
  const auto cands = flat.candidates(owner);
  std::vector<VertexId> out;
  if (ref.is_bitmap()) {
    std::vector<std::uint32_t> ranks;
    BitmapExtract(ref.bits, &ranks);
    for (std::uint32_t r : ranks) out.push_back(cands[r]);
  } else {
    for (std::uint32_t r : ref.ranks) out.push_back(cands[r]);
  }
  return out;
}

TEST(FlatIndexTest, DefaultConstructedIsEmpty) {
  FlatCeciIndex flat;
  EXPECT_TRUE(flat.empty());
  EXPECT_FALSE(flat.mapped());
  EXPECT_EQ(flat.ArenaBytes(), 0u);
  EXPECT_EQ(flat.num_query_vertices(), 0u);
}

TEST(FlatIndexTest, BuildPreservesCandidatesAndOrder) {
  Frozen f(PaperExample::Data(), PaperExample::Query(), 0);
  ASSERT_EQ(f.flat.num_query_vertices(), f.query.num_vertices());
  const auto& order = f.tree.matching_order();
  ASSERT_EQ(f.flat.matching_order().size(), order.size());
  EXPECT_TRUE(std::equal(order.begin(), order.end(),
                         f.flat.matching_order().begin()));
  for (VertexId u = 0; u < f.query.num_vertices(); ++u) {
    const auto& want = f.index.at(u).candidates;
    const auto got = f.flat.candidates(u);
    ASSERT_EQ(got.size(), want.size()) << "u" << u;
    EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin()));
    const auto& want_card = f.index.at(u).cardinalities;
    const auto got_card = f.flat.cardinalities(u);
    ASSERT_EQ(got_card.size(), want_card.size());
    EXPECT_TRUE(std::equal(want_card.begin(), want_card.end(),
                           got_card.begin()));
    EXPECT_EQ(f.flat.bitmap_words(u), BitmapWords(want.size()));
  }
}

TEST(FlatIndexTest, EntriesDecodeToTheMutableLists) {
  Frozen f(PaperExample::Data(), PaperExample::Query(), 0);
  for (VertexId u = 0; u < f.query.num_vertices(); ++u) {
    const auto& vi = f.index.at(u);
    for (std::size_t i = 0; i < vi.te.num_keys(); ++i) {
      const VertexId key = vi.te.keys()[i];
      const auto ref = f.flat.Te(u, key);
      const auto values = vi.te.Find(key);
      EXPECT_EQ(ref.count, values.size());
      const auto ids = Decode(f.flat, u, ref);
      EXPECT_TRUE(std::equal(values.begin(), values.end(), ids.begin()))
          << "u" << u << " key v" << key;
    }
    // Absent keys yield an empty ref, both spans empty.
    const auto miss = f.flat.Te(u, 9999);
    EXPECT_EQ(miss.count, 0u);
    EXPECT_TRUE(miss.ranks.empty());
    EXPECT_TRUE(miss.bits.empty());
    for (std::size_t k = 0; k < vi.nte.size(); ++k) {
      for (std::size_t i = 0; i < vi.nte[k].num_keys(); ++i) {
        const VertexId key = vi.nte[k].keys()[i];
        const auto ref = f.flat.Nte(u, k, key);
        const auto values = vi.nte[k].Find(key);
        ASSERT_EQ(ref.count, values.size());
        const auto ids = Decode(f.flat, u, ref);
        EXPECT_TRUE(std::equal(values.begin(), values.end(), ids.begin()));
      }
    }
  }
}

TEST(FlatIndexTest, HybridRulePicksTheSmallerRepresentation) {
  Frozen f(PaperExample::Data(), PaperExample::Query(), 0);
  std::size_t arrays = 0, bitmaps = 0, entries = 0;
  f.flat.ForEachList([&](VertexId owner, std::int32_t, VertexId,
                         const FlatCeciIndex::EntryRef& ref) {
    ++entries;
    ASSERT_GT(ref.count, 0u);
    // Exactly one representation is populated.
    EXPECT_NE(ref.ranks.empty(), ref.bits.empty());
    const std::size_t bitmap_bytes =
        std::size_t{f.flat.bitmap_words(owner)} * 8;
    const std::size_t array_bytes = std::size_t{ref.count} * 4;
    EXPECT_EQ(ref.is_bitmap(), bitmap_bytes < array_bytes)
        << "owner u" << owner << ", count " << ref.count;
    if (ref.is_bitmap()) {
      ++bitmaps;
      EXPECT_EQ(BitmapPopcount(ref.bits), ref.count);
    } else {
      ++arrays;
      EXPECT_TRUE(std::is_sorted(ref.ranks.begin(), ref.ranks.end()));
    }
  });
  EXPECT_EQ(f.flat.ArrayEntries(), arrays);
  EXPECT_EQ(f.flat.BitmapEntries(), bitmaps);
  EXPECT_EQ(arrays + bitmaps, entries);
}

TEST(FlatIndexTest, DenseValueSetsBecomeBitmaps) {
  // One A hub with 70 B leaves: the TE entry under the hub key holds all
  // 70 candidate ranks, and 2 bitmap words (16 bytes) beat 70 ranks
  // (280 bytes).
  std::vector<Label> labels(71, 1);
  labels[0] = 0;
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId v = 1; v <= 70; ++v) edges.push_back({0, v});
  Graph data = MakeGraph(labels, edges);
  Graph query = MakeGraph({0, 1}, {{0, 1}});
  Frozen f(data, query, 0);
  const auto ref = f.flat.Te(1, 0);
  ASSERT_EQ(ref.count, 70u);
  EXPECT_TRUE(ref.is_bitmap());
  EXPECT_EQ(f.flat.BitmapEntries(), 1u);
  EXPECT_EQ(Decode(f.flat, 1, ref).size(), 70u);
}

TEST(FlatIndexTest, DiagnosticsMatchTheMutableIndex) {
  Frozen f(PaperExample::Data(), PaperExample::Query(), 0);
  std::size_t edges = 0;
  f.flat.ForEachList([&](VertexId, std::int32_t, VertexId,
                         const FlatCeciIndex::EntryRef& ref) {
    edges += ref.count;
  });
  EXPECT_EQ(f.flat.TotalCandidateEdges(), edges);
  EXPECT_EQ(f.flat.TotalCandidateEdges(), f.index.TotalCandidateEdges());
  VertexId max_id = 0;
  for (VertexId u = 0; u < f.query.num_vertices(); ++u) {
    for (VertexId v : f.flat.candidates(u)) max_id = std::max(max_id, v);
  }
  EXPECT_EQ(f.flat.MaxCandidateId(), max_id);
}

TEST(FlatIndexTest, MemoryFootprintSumsToArenaBytes) {
  Frozen f(PaperExample::Data(), PaperExample::Query(), 0);
  std::size_t total = 0;
  for (VertexId u = 0; u < f.query.num_vertices(); ++u) {
    const auto fp = f.flat.MemoryFootprint(u);
    total += fp.te_bytes + fp.nte_bytes + fp.candidate_bytes;
  }
  // Exact up to inter-slab alignment padding (< 8 bytes per boundary).
  EXPECT_LE(total, f.flat.ArenaBytes());
  EXPECT_LT(f.flat.ArenaBytes() - total, FlatCeciIndex::kNumSlabs * 8);
}

TEST(FlatIndexTest, CloneIsAnIndependentDeepCopy) {
  Frozen f(PaperExample::Data(), PaperExample::Query(), 0);
  FlatCeciIndex clone = f.flat.Clone();
  EXPECT_EQ(clone.ArenaBytes(), f.flat.ArenaBytes());
  EXPECT_FALSE(clone.mapped());
  ASSERT_EQ(clone.num_query_vertices(), f.flat.num_query_vertices());
  // Destroy the source; the clone must still enumerate correctly.
  { FlatCeciIndex discard = std::move(f.flat); }
  SymmetryConstraints sym = SymmetryConstraints::None(f.query.num_vertices());
  EnumOptions eo;
  eo.symmetry = &sym;
  Enumerator e(f.data, f.tree, clone, eo);
  EmbeddingCollector collector;
  EmbeddingVisitor visitor = [&](std::span<const VertexId> m) {
    return collector(m);
  };
  e.EnumerateAll(&visitor);
  EXPECT_EQ(collector.AsSet(), PaperExample::ExpectedEmbeddings());
}

TEST(FlatIndexTest, EnumerationMatchesPointerLayout) {
  // Unlabeled on purpose: every paper query is unlabeled, and QG5 (the
  // house) needs the full graph as its candidate pool to have matches on
  // a graph this small.
  Graph data = GenerateSocialGraph(400, 6, 17);
  for (PaperQuery pq : {PaperQuery::kQG3, PaperQuery::kQG5}) {
    Graph query = MakePaperQuery(pq);
    Frozen f(data, query, 0);
    SymmetryConstraints sym = SymmetryConstraints::Compute(query);
    EnumOptions eo;
    eo.symmetry = &sym;
    EmbeddingCollector from_pointer, from_flat;
    {
      Enumerator e(data, f.tree, f.index, eo);
      EmbeddingVisitor visitor = [&](std::span<const VertexId> m) {
        return from_pointer(m);
      };
      e.EnumerateAll(&visitor);
    }
    {
      Enumerator e(data, f.tree, f.flat, eo);
      EmbeddingVisitor visitor = [&](std::span<const VertexId> m) {
        return from_flat(m);
      };
      e.EnumerateAll(&visitor);
    }
    EXPECT_EQ(from_flat.AsSet(), from_pointer.AsSet())
        << PaperQueryName(pq);
    EXPECT_FALSE(from_pointer.raw().empty()) << PaperQueryName(pq);
  }
}

TEST(FlatIndexTest, InfeasibleQueryFreezesToEmptySlabs) {
  // Label 7 never appears in the data graph: every candidate set is empty
  // after refinement, and the arena degenerates to metadata-only slabs.
  Graph data = PaperExample::Data();
  Graph query = MakeGraph({0, 7}, {{0, 1}});
  Frozen f(data, query, 0);
  for (VertexId u = 0; u < 2; ++u) {
    EXPECT_TRUE(f.flat.candidates(u).empty());
  }
  EXPECT_EQ(f.flat.TotalCandidateEdges(), 0u);
  SymmetryConstraints sym = SymmetryConstraints::None(2);
  EnumOptions eo;
  eo.symmetry = &sym;
  Enumerator e(data, f.tree, f.flat, eo);
  EXPECT_EQ(e.EnumerateAll(nullptr), 0u);
}

// The freeze as first written: staged slab vectors, each value's rank by
// binary search over the owner's candidates, then one copy per slab into
// a zeroed arena. FlatCeciIndex::Build must reproduce its bytes exactly.
struct ReferenceArena {
  std::vector<std::byte> bytes;
  std::vector<FlatCeciIndex::Slab> slabs;
};

ReferenceArena ReferenceFreeze(const CeciIndex& index, const QueryTree& tree) {
  const std::size_t nq = index.num_query_vertices();
  std::vector<FlatVertexMeta> vmeta(nq);
  const std::vector<VertexId> order(tree.matching_order().begin(),
                                    tree.matching_order().end());
  std::vector<VertexId> cands;
  std::vector<Cardinality> cards;
  std::vector<FlatListMeta> lmeta;
  std::vector<VertexId> keys;
  std::vector<FlatEntry> entries;
  std::vector<std::uint32_t> array_pool;
  std::vector<std::uint64_t> bitmap_pool;
  for (VertexId u = 0; u < nq; ++u) {
    const CeciVertexData& ud = index.at(u);
    FlatVertexMeta& m = vmeta[u];
    m.cand_begin = static_cast<std::uint32_t>(cands.size());
    m.cand_count = static_cast<std::uint32_t>(ud.candidates.size());
    m.bitmap_words =
        static_cast<std::uint32_t>(BitmapWords(ud.candidates.size()));
    cands.insert(cands.end(), ud.candidates.begin(), ud.candidates.end());
    if (ud.cardinalities.size() == ud.candidates.size()) {
      cards.insert(cards.end(), ud.cardinalities.begin(),
                   ud.cardinalities.end());
    } else {
      cards.resize(cards.size() + ud.candidates.size(), 0);
    }
    auto rank_of = [&](VertexId v) {
      auto it = std::lower_bound(ud.candidates.begin(), ud.candidates.end(), v);
      EXPECT_TRUE(it != ud.candidates.end() && *it == v);
      return static_cast<std::uint32_t>(it - ud.candidates.begin());
    };
    auto append_list = [&](const CandidateList& list) {
      FlatListMeta lm;
      lm.key_begin = static_cast<std::uint32_t>(keys.size());
      lm.key_count = static_cast<std::uint32_t>(list.num_keys());
      lm.entry_begin = static_cast<std::uint32_t>(entries.size());
      lm.owner = u;
      for (std::size_t i = 0; i < list.num_keys(); ++i) {
        keys.push_back(list.keys()[i]);
        const auto values = list.values_at(i);
        FlatEntry e;
        const bool bitmap =
            !values.empty() && std::size_t{m.bitmap_words} * 8 <
                                   values.size() * 4;
        if (bitmap) {
          e.offset = static_cast<std::uint32_t>(bitmap_pool.size());
          e.count_and_tag = static_cast<std::uint32_t>(values.size()) |
                            FlatEntry::kBitmapTag;
          bitmap_pool.resize(bitmap_pool.size() + m.bitmap_words, 0);
          for (VertexId v : values) {
            const std::uint32_t r = rank_of(v);
            bitmap_pool[e.offset + (r >> 6)] |= std::uint64_t{1} << (r & 63);
          }
        } else {
          e.offset = static_cast<std::uint32_t>(array_pool.size());
          e.count_and_tag = static_cast<std::uint32_t>(values.size());
          for (VertexId v : values) array_pool.push_back(rank_of(v));
        }
        entries.push_back(e);
      }
      lmeta.push_back(lm);
      return static_cast<std::uint32_t>(lmeta.size() - 1);
    };
    m.te_list = u == tree.root() ? kNoFlatList : append_list(ud.te);
    m.nte_begin = static_cast<std::uint32_t>(lmeta.size());
    m.nte_count = static_cast<std::uint32_t>(ud.nte.size());
    for (const CandidateList& list : ud.nte) append_list(list);
  }

  ReferenceArena out;
  auto put = [&](const auto& slab) {
    using T = typename std::decay_t<decltype(slab)>::value_type;
    FlatCeciIndex::Slab placed;
    placed.offset = out.bytes.size();
    placed.bytes = slab.size() * sizeof(T);
    const auto* raw = reinterpret_cast<const std::byte*>(slab.data());
    out.bytes.insert(out.bytes.end(), raw, raw + placed.bytes);
    out.bytes.resize((out.bytes.size() + 7) & ~std::size_t{7}, std::byte{0});
    out.slabs.push_back(placed);
  };
  put(vmeta);
  put(order);
  put(cands);
  put(cards);
  put(lmeta);
  put(keys);
  put(entries);
  put(array_pool);
  put(bitmap_pool);
  return out;
}

void ExpectSameArena(const FlatCeciIndex& flat, const ReferenceArena& want) {
  ASSERT_EQ(want.slabs.size(), FlatCeciIndex::kNumSlabs);
  for (std::size_t s = 0; s < FlatCeciIndex::kNumSlabs; ++s) {
    const auto kind = static_cast<FlatCeciIndex::SlabKind>(s);
    EXPECT_EQ(flat.slab(kind).offset, want.slabs[s].offset) << "slab " << s;
    EXPECT_EQ(flat.slab(kind).bytes, want.slabs[s].bytes) << "slab " << s;
  }
  const auto got = flat.arena();
  ASSERT_EQ(got.size(), want.bytes.size());
  EXPECT_TRUE(std::equal(got.begin(), got.end(), want.bytes.begin()));
}

TEST(FlatIndexTest, ArenaBytesEqualTheReferenceFreeze) {
  std::size_t arrays = 0;
  std::size_t bitmaps = 0;
  std::size_t cases = 0;
  auto check = [&](const Graph& data, const Graph& query) {
    Frozen f(data, query, 0);
    ExpectSameArena(f.flat, ReferenceFreeze(f.index, f.tree));
    // The matcher freezes the lists to CSR before the flat freeze.
    f.index.Freeze();
    ExpectSameArena(FlatCeciIndex::Build(f.index, f.tree),
                    ReferenceFreeze(f.index, f.tree));
    arrays += f.flat.ArrayEntries();
    bitmaps += f.flat.BitmapEntries();
    ++cases;
  };
  for (std::uint64_t seed : {3, 5, 8}) {
    const Graph data =
        AssignRandomLabels(GenerateSocialGraph(600, 6, seed), 3, seed + 1);
    QueryGenOptions qopt;
    for (std::size_t n : {3, 4, 5, 6}) {
      qopt.num_vertices = n;
      qopt.seed = seed * 10 + n;
      auto query = GenerateQuery(data, qopt);
      ASSERT_TRUE(query.has_value());
      check(data, *query);
    }
  }
  const Graph unlabeled = GenerateSocialGraph(400, 6, 17);
  for (PaperQuery pq : kAllPaperQueries) check(unlabeled, MakePaperQuery(pq));
  EXPECT_EQ(cases, 17u);
  EXPECT_GT(arrays, 0u);
  EXPECT_GT(bitmaps, 0u);
}

// A two-vertex query (u0 - u1, rooted at u0) over a hand-made index:
// C(u0) = {1, 2}, C(u1) = {3, 4}, and u1's TE list maps key 1 to
// `values`. Freezing it must fail unless every value is in C(u1).
void FreezeHandMadeIndex(std::vector<VertexId> values) {
  const Graph query = MakeGraph({0, 0}, {{0, 1}});
  auto tree = QueryTree::Build(query, 0);
  CECI_CHECK(tree.ok());
  CeciIndex index(2);
  index.at(0).candidates = {1, 2};
  index.at(1).candidates = {3, 4};
  index.at(1).te.Append(1, std::move(values));
  FlatCeciIndex::Build(index, *tree);
}

TEST(FlatIndexTest, HandMadeIndexFreezesWhenEveryValueIsACandidate) {
  FreezeHandMadeIndex({3, 4});  // the control: no CHECK fires
}

TEST(FlatIndexDeathTest, ValueAboveTheLargestCandidateIdIsRejected) {
  EXPECT_DEATH(FreezeHandMadeIndex({3, 9}),
               "v9 is not an alive candidate of its child vertex");
}

TEST(FlatIndexDeathTest, StaleRankOfAnotherVertexIsRejected) {
  // v2 is u0's candidate at rank 1, so the rank table still holds 1 for it
  // when u1 is frozen — a rank that is in range for C(u1) = {3, 4}.
  EXPECT_DEATH(FreezeHandMadeIndex({2, 3}),
               "v2 is not an alive candidate of its child vertex");
}

}  // namespace
}  // namespace ceci
