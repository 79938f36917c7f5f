#include "ceci/ceci_builder.h"

#include <algorithm>
#include <array>
#include <string>

#include "ceci/preprocess.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/timer.h"
#include "util/trace.h"

namespace ceci {
namespace {

// Thread-private expansion bin (§3.6): one contiguous chunk of the frontier
// expands into a private CSR list, merged in chunk order afterwards so the
// result is identical to serial execution.
struct ExpansionBin {
  CandidateList entries;
  std::vector<VertexId> dead_frontier;
  BuildStats stats;
};

// Per-filter tallies of one frontier scan, indexed by the verdict byte.
using VerdictTally = std::array<std::uint64_t, 4>;

void AddTally(const VerdictTally& tally, BuildStats* s) {
  s->rejected_label +=
      tally[static_cast<std::uint8_t>(FilterVerdict::kRejectLabel)];
  s->rejected_degree +=
      tally[static_cast<std::uint8_t>(FilterVerdict::kRejectDegree)];
  s->rejected_nlc += tally[static_cast<std::uint8_t>(FilterVerdict::kRejectNlc)];
}

// Frontier vertices expanded between deadline/token polls. Each expansion
// scans a full adjacency list, so one stride bounds the reaction time to
// ~1k adjacency scans per worker.
constexpr std::uint64_t kBuildPollStride = 1024;

// Builder states of a verdict byte beyond the four FilterVerdict values:
// a candidate of the query vertex (a TE value, or a root pivot), and a
// former candidate removed by a cascade. Only kMember means membership.
constexpr std::uint8_t kMember = 4;
constexpr std::uint8_t kRemoved = 5;

}  // namespace

CeciIndex CeciBuilder::Build(const Graph& query, const QueryTree& tree,
                             const BuildOptions& options,
                             BuildStats* stats) const {
  Timer timer;
  BuildStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = BuildStats{};

  const std::size_t nq = query.num_vertices();
  const std::size_t nd = data_.num_vertices();
  CeciIndex index(nq);

  // The verdict table becomes the candidate-membership table that drives
  // the cascading deletions; it dies when Build returns.
  FilterVerdicts computed;
  FilterVerdicts* verdicts = options.verdicts;
  if (verdicts == nullptr) {
    computed = ComputeFilterVerdicts(data_, nlc_, query, nullptr);
    verdicts = &computed;
  }
  CECI_CHECK(verdicts->num_data_vertices == nd &&
             verdicts->bytes.size() == nq * nd)
      << "verdict table does not fit this (data, query) pair";

  const VertexId root = tree.root();
  if (options.root_candidates != nullptr) {
    index.at(root).candidates = *options.root_candidates;
  } else {
    index.at(root).candidates =
        PassingCandidates(data_, query, *verdicts, root);
  }
  std::vector<std::uint8_t> alive = std::move(verdicts->bytes);
  *verdicts = FilterVerdicts{};
  auto row = [&](VertexId u) { return alive.data() + u * nd; };
  for (VertexId v : index.at(root).candidates) row(root)[v] = kMember;

  BudgetTracker* budget = options.budget;
  if (budget != nullptr) {
    const CeciIndex::VertexFootprint f = index.MemoryFootprint(root);
    budget->ChargeBytes(f.te_bytes + f.nte_bytes + f.candidate_bytes);
    if (budget->Poll()) {
      stats->seconds = timer.Seconds();
      return index;  // partial: root candidates only
    }
  }

  if (options.vertex_stats != nullptr) {
    options.vertex_stats->clear();
    BuildVertexStats root_stats;
    root_stats.u = root;
    root_stats.candidates_filtered = index.at(root).candidates.size();
    options.vertex_stats->push_back(root_stats);
  }

  // Expands one frontier vertex of u into `out` (room for its degree) and
  // returns the number of values written. One verdict byte per neighbour,
  // and no branch on it: every neighbour is written, the cursor advances
  // only on kPass, and the byte indexes its filter's tally. u's row holds
  // only FilterVerdict values here — membership marks for u are set after
  // its expansion, and cascades touch built vertices only.
  auto expand_te = [&](VertexId u, VertexId v_f, VertexId* out,
                       VerdictTally* tally, BuildStats* s) {
    ++s->frontier_expansions;
    s->neighbors_scanned += data_.degree(v_f);
    const std::uint8_t* verdict = row(u);
    std::size_t n = 0;
    for (VertexId v : data_.neighbors(v_f)) {
      const std::uint8_t x = verdict[v];
      ++(*tally)[x];
      out[n] = v;  // neighbors are sorted, so the kept prefix is sorted
      n += x == static_cast<std::uint8_t>(FilterVerdict::kPass);
    }
    return n;
  };
  // One expansion buffer for the whole serial build (TE and NTE).
  std::vector<VertexId> scratch(data_.max_degree());

  // Removes `dead` vertices from the candidate set of `u_owner` and drops
  // their key entries from the TE lists of u_owner's already-built children
  // (Algorithm 1 lines 9-12 / the analogous NTE cascade).
  std::vector<char> processed(nq, 0);
  processed[root] = 1;
  auto cascade_remove = [&](VertexId u_owner,
                            const std::vector<VertexId>& dead) {
    if (dead.empty()) return;
    std::uint8_t* owner = row(u_owner);
    for (VertexId v : dead) owner[v] = kRemoved;
    auto& cands = index.at(u_owner).candidates;
    cands.erase(std::remove_if(cands.begin(), cands.end(),
                               [&](VertexId v) {
                                 return owner[v] != kMember;
                               }),
                cands.end());
    for (VertexId u_c : tree.children(u_owner)) {
      if (!processed[u_c]) continue;
      index.at(u_c).te.Prune(
          [&](VertexId key) { return owner[key] == kMember; },
          [](VertexId) { return true; });
    }
    // NTE lists built earlier whose parent is u_owner also key by it.
    for (std::uint32_t e : tree.nte_out(u_owner)) {
      VertexId u_c = tree.non_tree_edges()[e].child;
      if (!processed[u_c] || index.at(u_c).nte.empty()) continue;
      auto ids = tree.nte_in(u_c);
      for (std::size_t k = 0; k < ids.size(); ++k) {
        if (ids[k] == e) {
          index.at(u_c).nte[k].Prune(
              [&](VertexId key) { return owner[key] == kMember; },
              [](VertexId) { return true; });
        }
      }
    }
  };

  // Matching order, not raw BFS order: it is a topological order of the
  // tree and additionally guarantees every NTE parent is built before its
  // NTE child (the BFS default makes the two coincide, per the paper).
  for (VertexId u : tree.matching_order()) {
    if (u == root) continue;
    // Cooperative budget check: one poll per matching-order vertex plus
    // stride polls inside the frontier loops below. A break leaves the
    // index partial; the matcher reports kDeadline/kMemoryBudget/
    // kCancelled instead of refining or enumerating it.
    if (budget != nullptr && budget->Poll()) break;
    TraceSpan level_span(
        [&] { return "build/u" + std::to_string(u); });
    const VertexId u_p = tree.parent(u);
    CeciVertexData& ud = index.at(u);
    const std::vector<VertexId>& frontier = index.at(u_p).candidates;
    // Filter rejections attributable to this vertex are deltas of the
    // aggregate counters around its TE expansion (the parallel path merges
    // its bins into `stats` before the union loop, so deltas hold there
    // too). Zero cost when vertex_stats is unset.
    const BuildStats before_expand = *stats;

    // --- TE expansion (Algorithm 1) ---
    std::vector<VertexId> dead_frontier;
    const bool parallel = options.pool != nullptr &&
                          frontier.size() >= options.parallel_threshold;
    if (!parallel) {
      VerdictTally tally{};
      std::uint64_t since_poll = 0;
      for (VertexId v_f : frontier) {
        const std::size_t n = expand_te(u, v_f, scratch.data(), &tally, stats);
        if (n == 0) {
          dead_frontier.push_back(v_f);
        } else {
          ud.te.Append(v_f, {scratch.data(), n});
        }
        if (budget != nullptr && ++since_poll == kBuildPollStride) {
          since_poll = 0;
          if (budget->Poll()) break;
        }
      }
      AddTally(tally, stats);
    } else {
      const std::size_t chunks =
          std::min(frontier.size(), options.pool->num_threads() * 4);
      std::vector<ExpansionBin> bins(chunks);
      const std::size_t per = (frontier.size() + chunks - 1) / chunks;
      options.pool->ParallelFor(chunks, 1, [&](std::size_t c) {
        ExpansionBin& bin = bins[c];
        std::size_t begin = c * per;
        std::size_t end = std::min(begin + per, frontier.size());
        std::vector<VertexId> out(data_.max_degree());
        VerdictTally tally{};
        std::uint64_t since_poll = 0;
        for (std::size_t i = begin; i < end; ++i) {
          VertexId v_f = frontier[i];
          const std::size_t n =
              expand_te(u, v_f, out.data(), &tally, &bin.stats);
          if (n == 0) {
            bin.dead_frontier.push_back(v_f);
          } else {
            bin.entries.Append(v_f, {out.data(), n});
          }
          // Each chunk polls on its own stride; an exhausted budget stops
          // every sibling chunk at its next relaxed-flag read.
          if (budget != nullptr && ++since_poll == kBuildPollStride) {
            since_poll = 0;
            if (budget->Poll()) break;
          }
          if (budget != nullptr && budget->Exhausted()) break;
        }
        AddTally(tally, &bin.stats);
      });
      for (ExpansionBin& bin : bins) {
        for (std::size_t i = 0; i < bin.entries.num_keys(); ++i) {
          ud.te.Append(bin.entries.keys()[i], bin.entries.values_at(i));
        }
        dead_frontier.insert(dead_frontier.end(), bin.dead_frontier.begin(),
                             bin.dead_frontier.end());
        stats->rejected_label += bin.stats.rejected_label;
        stats->rejected_degree += bin.stats.rejected_degree;
        stats->rejected_nlc += bin.stats.rejected_nlc;
        stats->frontier_expansions += bin.stats.frontier_expansions;
        stats->neighbors_scanned += bin.stats.neighbors_scanned;
      }
    }

    // Candidate set of u = union of TE values.
    std::uint8_t* member = row(u);
    for (VertexId v : ud.te.values()) {
      if (member[v] != kMember) {
        member[v] = kMember;
        ud.candidates.push_back(v);
      }
    }
    std::sort(ud.candidates.begin(), ud.candidates.end());
    // Candidates were deduped through the membership marks, so sorting
    // makes them strictly ascending — the property every binary search and
    // intersection downstream depends on.
    CECI_DCHECK(std::adjacent_find(ud.candidates.begin(),
                                   ud.candidates.end()) ==
                ud.candidates.end())
        << "duplicate candidate for u" << u;

    if (options.vertex_stats != nullptr) {
      BuildVertexStats vs;
      vs.u = u;
      vs.candidates_filtered = ud.candidates.size();
      vs.rejected_label = stats->rejected_label - before_expand.rejected_label;
      vs.rejected_degree =
          stats->rejected_degree - before_expand.rejected_degree;
      vs.rejected_nlc = stats->rejected_nlc - before_expand.rejected_nlc;
      options.vertex_stats->push_back(vs);
    }

    stats->cascade_removals += dead_frontier.size();
    cascade_remove(u_p, dead_frontier);

    if (budget != nullptr && budget->Exhausted()) break;

    // --- NTE expansion (§3.2, last paragraph) ---
    auto nte_ids = tree.nte_in(u);
    if (!options.build_nte_lists) nte_ids = {};
    ud.nte.resize(nte_ids.size());
    std::uint64_t nte_since_poll = 0;
    for (std::size_t k = 0; k < nte_ids.size(); ++k) {
      const VertexId u_n = tree.non_tree_edges()[nte_ids[k]].parent;
      std::vector<VertexId> dead_nte;
      for (VertexId v_n : index.at(u_n).candidates) {
        ++stats->frontier_expansions;
        stats->neighbors_scanned += data_.degree(v_n);
        std::size_t n = 0;
        for (VertexId v : data_.neighbors(v_n)) {
          scratch[n] = v;
          n += member[v] == kMember;
        }
        if (n == 0) {
          dead_nte.push_back(v_n);
        } else {
          ud.nte[k].Append(v_n, {scratch.data(), n});
        }
        if (budget != nullptr && ++nte_since_poll == kBuildPollStride) {
          nte_since_poll = 0;
          if (budget->Poll()) break;
        }
      }
      stats->nte_cascade_removals += dead_nte.size();
      cascade_remove(u_n, dead_nte);
      if (budget != nullptr && budget->Exhausted()) break;
    }

    // Incremental byte accounting: the vertex's lists are final now
    // (later cascades only shrink them), so its measured footprint is an
    // upper bound on what it will occupy.
    if (budget != nullptr) {
      const CeciIndex::VertexFootprint f = index.MemoryFootprint(u);
      if (budget->ChargeBytes(f.te_bytes + f.nte_bytes + f.candidate_bytes)) {
        processed[u] = 1;
        break;
      }
    }

    processed[u] = 1;
  }

  stats->seconds = timer.Seconds();
  return index;
}

}  // namespace ceci
