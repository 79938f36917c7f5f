#include "ceci/refinement.h"

#include <algorithm>

#include "util/check.h"
#include "util/logging.h"
#include "util/timer.h"
#include "util/trace.h"

namespace ceci {
namespace {

// Dense per-data-vertex scratch maps reused across query vertices.
// Entries are valid only when their stamp matches the current generation,
// so no O(|V|) clears are needed between query vertices.
class DenseScratch {
 public:
  explicit DenseScratch(std::size_t n)
      : stamp_(n, 0), count_(n, 0), card_(n, 0) {}

  void NextGeneration() { ++gen_; }

  void BumpCount(VertexId v) {
    Touch(v);
    ++count_[v];
  }
  std::uint32_t Count(VertexId v) const {
    return stamp_[v] == gen_ ? count_[v] : 0;
  }

  void SetCard(VertexId v, Cardinality c) {
    Touch(v);
    card_[v] = c;
  }
  Cardinality Card(VertexId v) const {
    return stamp_[v] == gen_ ? card_[v] : 0;
  }

 private:
  void Touch(VertexId v) {
    if (stamp_[v] != gen_) {
      stamp_[v] = gen_;
      count_[v] = 0;
      card_[v] = 0;
    }
  }

  std::vector<std::uint32_t> stamp_;
  std::vector<std::uint32_t> count_;
  std::vector<Cardinality> card_;
  std::uint32_t gen_ = 1;
};

}  // namespace

void RefineCeci(const QueryTree& tree, std::size_t data_num_vertices,
                CeciIndex* index, RefineStats* stats,
                std::vector<std::uint64_t>* pruned_per_vertex,
                BudgetTracker* budget) {
  Timer timer;
  RefineStats local;
  if (stats == nullptr) stats = &local;
  *stats = RefineStats{};

  const std::size_t nq = tree.num_vertices();
  if (pruned_per_vertex != nullptr) pruned_per_vertex->assign(nq, 0);
  // Aliveness per query vertex over data vertices; drives the pruning.
  std::vector<std::vector<char>> alive(nq,
                                       std::vector<char>(data_num_vertices, 0));
  for (VertexId u = 0; u < nq; ++u) {
    for (VertexId v : index->at(u).candidates) alive[u][v] = 1;
  }

  DenseScratch nte_membership(data_num_vertices);
  DenseScratch child_cards(data_num_vertices);
  std::vector<std::uint32_t> seen_in_list(data_num_vertices, 0);

  bool budget_tripped = false;
  const auto& order = tree.matching_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    // Cooperative budget check, once per reverse-BFS vertex (plus per
    // child below). A trip leaves the index semi-refined; the caller
    // must not enumerate it.
    if (budget != nullptr && budget->Poll()) {
      budget_tripped = true;
      break;
    }
    const VertexId u = *it;
    CeciVertexData& ud = index->at(u);
    const std::uint32_t num_nte = static_cast<std::uint32_t>(ud.nte.size());

    // NTE membership: a candidate of u must appear in the value union of
    // every incoming NTE list (Algorithm 2 line 5). Count, per data
    // vertex, in how many lists it appears (each list counted once).
    if (num_nte > 0) {
      nte_membership.NextGeneration();
      for (std::uint32_t k = 0; k < num_nte; ++k) {
        for (VertexId v : ud.nte[k].values()) {
          if (seen_in_list[v] != k + 1) {
            seen_in_list[v] = k + 1;
            nte_membership.BumpCount(v);
          }
        }
      }
      // Reset the per-list markers lazily: values touched above carry
      // k+1 <= num_nte; the next query vertex starts from k=0 again, so
      // stale markers are harmless only if list indices differ. Clear the
      // touched entries explicitly to stay correct.
      for (std::uint32_t k = 0; k < num_nte; ++k) {
        for (VertexId v : ud.nte[k].values()) seen_in_list[v] = 0;
      }
    }

    const auto kids = tree.children(u);
    ud.cardinalities.assign(ud.candidates.size(), 0);
    std::size_t write = 0;
    // Process one tree child at a time with a dense cardinality map; the
    // per-candidate product is accumulated in `partial`.
    std::vector<Cardinality> partial(ud.candidates.size(), 1);
    if (num_nte > 0) {
      for (std::size_t i = 0; i < ud.candidates.size(); ++i) {
        if (nte_membership.Count(ud.candidates[i]) != num_nte) {
          partial[i] = 0;
        }
      }
    }
    for (VertexId u_c : kids) {
      if (budget != nullptr && budget->Poll()) {
        budget_tripped = true;
        break;
      }
      const CeciVertexData& cd = index->at(u_c);
      // Reverse-BFS order guarantees every child was already refined, so
      // its cardinalities are present and parallel to its candidates.
      CECI_DCHECK_EQ(cd.cardinalities.size(), cd.candidates.size())
          << "child u" << u_c << " visited before refinement";
      child_cards.NextGeneration();
      for (std::size_t i = 0; i < cd.candidates.size(); ++i) {
        child_cards.SetCard(cd.candidates[i], cd.cardinalities[i]);
      }
      // Candidates and TE keys are both sorted: one merge walk finds each
      // candidate's value set (an absent key leaves the sum at zero).
      const CandidateList& te = cd.te;
      const std::span<const VertexId> keys = te.keys();
      std::size_t k = 0;
      for (std::size_t i = 0; i < ud.candidates.size(); ++i) {
        if (partial[i] == 0) continue;
        const VertexId v = ud.candidates[i];
        while (k < keys.size() && keys[k] < v) ++k;
        Cardinality sum = 0;
        if (k < keys.size() && keys[k] == v) {
          for (VertexId v_c : te.values_at(k)) {
            sum = SaturatingAdd(sum, child_cards.Card(v_c));
          }
        }
        partial[i] = SaturatingMul(partial[i], sum);
      }
    }
    if (budget_tripped) break;  // skip the prune for this half-done vertex
    for (std::size_t i = 0; i < ud.candidates.size(); ++i) {
      const VertexId v = ud.candidates[i];
      if (partial[i] == 0) {
        alive[u][v] = 0;
        ++stats->pruned_candidates;
        if (pruned_per_vertex != nullptr) ++(*pruned_per_vertex)[u];
      } else {
        ud.candidates[write] = v;
        ud.cardinalities[write] = partial[i];
        ++write;
      }
    }
    ud.candidates.resize(write);
    ud.cardinalities.resize(write);
  }

  // Compaction sweep: drop dead keys and values everywhere. Skipped on a
  // budget trip: the matcher discards the semi-refined index anyway.
  if (!budget_tripped) {
    TraceSpan compact_span("refine/compact");
    for (VertexId u = 0; u < nq; ++u) {
      CeciVertexData& ud = index->at(u);
      if (u != tree.root()) {
        const VertexId u_p = tree.parent(u);
        stats->pruned_edges += ud.te.Prune(
            [&](VertexId key) { return alive[u_p][key] != 0; },
            [&](VertexId val) { return alive[u][val] != 0; });
      }
      auto nte_ids = tree.nte_in(u);
      for (std::size_t k = 0; k < ud.nte.size(); ++k) {
        const VertexId u_n = tree.non_tree_edges()[nte_ids[k]].parent;
        stats->pruned_edges += ud.nte[k].Prune(
            [&](VertexId key) { return alive[u_n][key] != 0; },
            [&](VertexId val) { return alive[u][val] != 0; });
      }
    }
  }

  const CeciVertexData& rd = index->at(tree.root());
  for (Cardinality c : rd.cardinalities) {
    stats->total_cardinality = SaturatingAdd(stats->total_cardinality, c);
  }
  stats->seconds = timer.Seconds();
}

}  // namespace ceci
