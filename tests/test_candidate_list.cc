// Unit tests for the TE/NTE candidate-list structure.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>

#include "ceci/candidate_list.h"

namespace ceci {
namespace {

using V = std::vector<VertexId>;

TEST(CandidateListTest, AppendAndFind) {
  CandidateList list;
  list.Append(2, V{10, 11});
  list.Append(5, V{12});
  list.Append(9, V{10, 13, 14});
  EXPECT_EQ(list.num_keys(), 3u);
  auto vals = list.Find(5);
  EXPECT_EQ(std::vector<VertexId>(vals.begin(), vals.end()),
            (std::vector<VertexId>{12}));
  EXPECT_TRUE(list.Find(3).empty());
  EXPECT_TRUE(list.Find(100).empty());
}

TEST(CandidateListTest, TotalValuesAndMemory) {
  CandidateList list;
  list.Append(1, V{2, 3});
  list.Append(4, V{5});
  EXPECT_EQ(list.TotalValues(), 3u);
  EXPECT_GT(list.MemoryBytes(), 3 * sizeof(VertexId));
}

TEST(CandidateListTest, UnionOfValues) {
  CandidateList list;
  list.Append(1, V{5, 7});
  list.Append(2, V{5, 9});
  list.Append(3, V{7});
  EXPECT_EQ(list.UnionOfValues(), (std::vector<VertexId>{5, 7, 9}));
}

TEST(CandidateListTest, PruneDropsKeysAndValues) {
  CandidateList list;
  list.Append(1, V{10, 11, 12});
  list.Append(2, V{10});
  list.Append(3, V{11, 13});
  std::size_t removed = list.Prune(
      [](VertexId key) { return key != 2; },        // drop key 2
      [](VertexId val) { return val != 11; });      // drop value 11
  // Removed: key 2's 1 value + value 11 twice = 3.
  EXPECT_EQ(removed, 3u);
  EXPECT_EQ(list.num_keys(), 2u);
  auto v1 = list.Find(1);
  EXPECT_EQ(std::vector<VertexId>(v1.begin(), v1.end()),
            (std::vector<VertexId>{10, 12}));
  EXPECT_TRUE(list.Find(2).empty());
}

TEST(CandidateListTest, PruneDropsEmptiedKeys) {
  CandidateList list;
  list.Append(1, V{10});
  list.Append(2, V{11});
  list.Prune([](VertexId) { return true; },
             [](VertexId val) { return val != 10; });
  EXPECT_EQ(list.num_keys(), 1u);
  EXPECT_TRUE(list.Find(1).empty());
  EXPECT_FALSE(list.Find(2).empty());
}

TEST(CandidateListTest, ClearAndEmpty) {
  CandidateList list;
  EXPECT_TRUE(list.empty());
  list.Append(1, V{2});
  EXPECT_FALSE(list.empty());
  list.clear();
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.TotalValues(), 0u);
}

TEST(CandidateListTest, ValuesAtIteration) {
  CandidateList list;
  list.Append(3, V{1});
  list.Append(7, V{2, 4});
  std::size_t total = 0;
  for (std::size_t i = 0; i < list.num_keys(); ++i) {
    total += list.values_at(i).size();
  }
  EXPECT_EQ(total, 3u);
  EXPECT_EQ(list.keys()[1], 7u);
}

TEST(CandidateListTest, FreezePreservesLookups) {
  CandidateList list;
  list.Append(2, V{10, 11});
  list.Append(5, V{12});
  list.Append(9, V{10, 13, 14});
  list.Freeze();
  EXPECT_TRUE(list.frozen());
  auto vals = list.Find(9);
  EXPECT_EQ(std::vector<VertexId>(vals.begin(), vals.end()),
            (std::vector<VertexId>{10, 13, 14}));
  EXPECT_TRUE(list.Find(3).empty());
  EXPECT_EQ(list.TotalValues(), 6u);
  EXPECT_EQ(list.UnionOfValues(),
            (std::vector<VertexId>{10, 11, 12, 13, 14}));
  EXPECT_GT(list.MemoryBytes(), 0u);
}

TEST(CandidateListTest, FreezeIsIdempotent) {
  CandidateList list;
  list.Append(1, V{2});
  list.Freeze();
  list.Freeze();
  EXPECT_EQ(list.Find(1).size(), 1u);
}

TEST(CandidateListTest, FreezeEmptyList) {
  CandidateList list;
  list.Freeze();
  EXPECT_TRUE(list.frozen());
  EXPECT_TRUE(list.Find(0).empty());
  EXPECT_EQ(list.TotalValues(), 0u);
}

TEST(CandidateListTest, ClearResetsFrozenState) {
  CandidateList list;
  list.Append(1, V{2});
  list.Freeze();
  list.clear();
  EXPECT_FALSE(list.frozen());
  list.Append(3, V{4});  // mutable again
  EXPECT_EQ(list.Find(3).size(), 1u);
}

TEST(CandidateListTest, ValuesAtWorksFrozen) {
  CandidateList list;
  list.Append(3, V{1});
  list.Append(7, V{2, 4});
  list.Freeze();
  EXPECT_EQ(list.values_at(0).size(), 1u);
  EXPECT_EQ(list.values_at(1).size(), 2u);
  EXPECT_EQ(list.values_at(1)[1], 4u);
}

// Reference model of a candidate list: an ordered map of value sets.
using Model = std::map<VertexId, V>;

void ExpectMatchesModel(const CandidateList& list, const Model& model,
                        VertexId max_key) {
  ASSERT_EQ(list.num_keys(), model.size());
  std::size_t i = 0;
  std::size_t total = 0;
  std::set<VertexId> all;
  for (const auto& [key, vals] : model) {
    EXPECT_EQ(list.keys()[i], key);
    EXPECT_EQ(V(list.values_at(i).begin(), list.values_at(i).end()), vals);
    total += vals.size();
    all.insert(vals.begin(), vals.end());
    ++i;
  }
  for (VertexId key = 0; key <= max_key + 1; ++key) {
    const auto found = list.Find(key);
    const auto it = model.find(key);
    const V expected = it == model.end() ? V{} : it->second;
    EXPECT_EQ(V(found.begin(), found.end()), expected) << "key " << key;
  }
  EXPECT_EQ(list.TotalValues(), total);
  EXPECT_EQ(list.UnionOfValues(), V(all.begin(), all.end()));
  EXPECT_EQ(list.empty(), model.empty());
  EXPECT_EQ(list.MemoryBytes(), model.size() * sizeof(VertexId) +
                                    (model.size() + 1) * sizeof(std::uint32_t) +
                                    total * sizeof(VertexId));
  EXPECT_GE(list.MeasuredHeapBytes(),
            (model.size() + total) * sizeof(VertexId));
}

// Seeded differential test: random appends and prune rounds (keys dropped,
// values dropped, keys emptied) against the map model, then a freeze.
TEST(CandidateListTest, RandomizedAgainstMapModel) {
  std::mt19937_64 rng(20240915);
  for (int round = 0; round < 200; ++round) {
    const VertexId universe = 8 + static_cast<VertexId>(rng() % 120);
    CandidateList list;
    Model model;
    VertexId key = 0;
    for (;;) {
      key += 1 + static_cast<VertexId>(rng() % 4);
      if (key > universe) break;
      V vals;
      // Mostly non-empty value sets, as the builder appends; an
      // occasional empty set exercises the prune of a valueless key.
      const int density = static_cast<int>(rng() % 5);
      for (VertexId v = 0; v < universe; ++v) {
        if (static_cast<int>(rng() % 8) < density) vals.push_back(v);
      }
      list.Append(key, vals);
      model.emplace(key, vals);
    }
    ASSERT_NO_FATAL_FAILURE(ExpectMatchesModel(list, model, universe));

    const int prunes = 1 + static_cast<int>(rng() % 3);
    for (int p = 0; p < prunes; ++p) {
      std::vector<char> keep_key(universe + 1), keep_value(universe + 1);
      const unsigned key_odds = static_cast<unsigned>(rng() % 4);
      const unsigned value_odds = static_cast<unsigned>(rng() % 4);
      for (auto& k : keep_key) k = rng() % 4 >= key_odds;
      for (auto& k : keep_value) k = rng() % 4 >= value_odds;

      std::size_t expected_removed = 0;
      Model next;
      for (const auto& [k, vals] : model) {
        if (!keep_key[k]) {
          expected_removed += vals.size();
          continue;
        }
        V kept;
        for (VertexId v : vals) {
          if (keep_value[v]) kept.push_back(v);
        }
        expected_removed += vals.size() - kept.size();
        if (!kept.empty()) next.emplace(k, std::move(kept));
      }
      const std::size_t removed =
          list.Prune([&](VertexId k) { return keep_key[k] != 0; },
                     [&](VertexId v) { return keep_value[v] != 0; });
      EXPECT_EQ(removed, expected_removed) << "round " << round;
      model = std::move(next);
      ASSERT_NO_FATAL_FAILURE(ExpectMatchesModel(list, model, universe));
    }

    list.Freeze();
    ASSERT_NO_FATAL_FAILURE(ExpectMatchesModel(list, model, universe));
  }
}

}  // namespace
}  // namespace ceci
