#include "ceci/streaming_builder.h"

#include <algorithm>

#include "util/logging.h"
#include "util/timer.h"

namespace ceci {

StreamingCeciBuilder::StreamingCeciBuilder(OnDemandCsr* store)
    : store_(store) {
  CECI_CHECK(store != nullptr);
}

Status StreamingCeciBuilder::PrepareResidentIndexes() {
  if (prepared_) return Status::Ok();
  const std::size_t n = store_->num_vertices();

  // Label buckets from the resident label runs.
  Label max_label = 0;
  for (VertexId v = 0; v < n; ++v) {
    for (Label l : store_->labels(v)) max_label = std::max(max_label, l);
  }
  num_labels_ = static_cast<std::size_t>(max_label) + 1;
  bucket_offsets_.assign(num_labels_ + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    for (Label l : store_->labels(v)) ++bucket_offsets_[l + 1];
  }
  for (std::size_t l = 0; l < num_labels_; ++l) {
    bucket_offsets_[l + 1] += bucket_offsets_[l];
  }
  bucket_vertices_.resize(bucket_offsets_[num_labels_]);
  {
    std::vector<std::uint64_t> cursor(bucket_offsets_.begin(),
                                      bucket_offsets_.end() - 1);
    for (VertexId v = 0; v < n; ++v) {
      for (Label l : store_->labels(v)) bucket_vertices_[cursor[l]++] = v;
    }
  }

  // NLC runs: one streaming pass over the adjacency section.
  nlc_offsets_.assign(n + 1, 0);
  nlc_entries_.clear();
  std::vector<VertexId> adj;
  std::vector<Label> seen;
  for (VertexId v = 0; v < n; ++v) {
    CECI_RETURN_IF_ERROR(store_->ReadNeighbors(v, &adj));
    seen.clear();
    for (VertexId w : adj) {
      for (Label l : store_->labels(w)) seen.push_back(l);
    }
    std::sort(seen.begin(), seen.end());
    for (std::size_t i = 0; i < seen.size();) {
      std::size_t j = i;
      while (j < seen.size() && seen[j] == seen[i]) ++j;
      nlc_entries_.push_back(
          NlcIndex::Entry{seen[i], static_cast<std::uint32_t>(j - i)});
      i = j;
    }
    nlc_offsets_[v + 1] = nlc_entries_.size();
  }

  prepared_ = true;
  return Status::Ok();
}

bool StreamingCeciBuilder::PassesFilters(
    const Graph& query, VertexId u,
    std::span<const NlcIndex::Entry> profile, VertexId v) const {
  if (store_->degree(v) < query.degree(u)) return false;
  // Label containment (both sides sorted).
  auto have = store_->labels(v);
  std::size_t i = 0;
  for (Label need : query.labels(u)) {
    while (i < have.size() && have[i] < need) ++i;
    if (i == have.size() || have[i] != need) return false;
  }
  // NLC coverage.
  auto runs = NlcOf(v);
  std::size_t k = 0;
  for (const NlcIndex::Entry& need : profile) {
    while (k < runs.size() && runs[k].label < need.label) ++k;
    if (k == runs.size() || runs[k].label != need.label ||
        runs[k].count < need.count) {
      return false;
    }
  }
  return true;
}

std::vector<VertexId> StreamingCeciBuilder::CollectRootCandidates(
    const Graph& query, VertexId u) const {
  CECI_CHECK(prepared_);
  auto profile = NlcIndex::Profile(query, u);
  // Scan the rarest label bucket of u.
  Label best = query.label(u);
  std::uint64_t best_size = ~std::uint64_t{0};
  for (Label l : query.labels(u)) {
    if (l >= num_labels_) return {};
    std::uint64_t size = bucket_offsets_[l + 1] - bucket_offsets_[l];
    if (size < best_size) {
      best_size = size;
      best = l;
    }
  }
  std::vector<VertexId> out;
  for (std::uint64_t i = bucket_offsets_[best];
       i < bucket_offsets_[best + 1]; ++i) {
    VertexId v = bucket_vertices_[i];
    if (PassesFilters(query, u, profile, v)) out.push_back(v);
  }
  return out;  // bucket is in ascending vertex order
}

Result<CeciIndex> StreamingCeciBuilder::Build(
    const Graph& query, const QueryTree& tree,
    const std::vector<VertexId>* root_candidates, BuildStats* stats) {
  if (!prepared_) {
    return Status::InvalidArgument(
        "call PrepareResidentIndexes() before Build()");
  }
  Timer timer;
  BuildStats local;
  if (stats == nullptr) stats = &local;
  *stats = BuildStats{};

  const std::size_t nq = query.num_vertices();
  const std::size_t nd = store_->num_vertices();
  CeciIndex index(nq);

  std::vector<std::vector<NlcIndex::Entry>> profiles(nq);
  for (VertexId u = 0; u < nq; ++u) {
    profiles[u] = NlcIndex::Profile(query, u);
  }
  std::vector<std::vector<char>> alive(nq, std::vector<char>(nd, 0));
  std::vector<char> processed(nq, 0);

  const VertexId root = tree.root();
  index.at(root).candidates = root_candidates != nullptr
                                  ? *root_candidates
                                  : CollectRootCandidates(query, root);
  for (VertexId v : index.at(root).candidates) alive[root][v] = 1;
  processed[root] = 1;

  auto cascade_remove = [&](VertexId u_owner,
                            const std::vector<VertexId>& dead) {
    if (dead.empty()) return;
    for (VertexId v : dead) alive[u_owner][v] = 0;
    auto& cands = index.at(u_owner).candidates;
    cands.erase(std::remove_if(cands.begin(), cands.end(),
                               [&](VertexId v) {
                                 return !alive[u_owner][v];
                               }),
                cands.end());
    for (VertexId u_c : tree.children(u_owner)) {
      if (!processed[u_c]) continue;
      index.at(u_c).te.Prune(
          [&](VertexId key) { return alive[u_owner][key] != 0; },
          [](VertexId) { return true; });
    }
    for (std::uint32_t e : tree.nte_out(u_owner)) {
      VertexId u_c = tree.non_tree_edges()[e].child;
      if (!processed[u_c] || index.at(u_c).nte.empty()) continue;
      auto ids = tree.nte_in(u_c);
      for (std::size_t k = 0; k < ids.size(); ++k) {
        if (ids[k] == e) {
          index.at(u_c).nte[k].Prune(
              [&](VertexId key) { return alive[u_owner][key] != 0; },
              [](VertexId) { return true; });
        }
      }
    }
  };

  std::vector<VertexId> adj;
  std::vector<VertexId> vals;  // one expansion buffer for the whole build
  for (VertexId u : tree.matching_order()) {
    if (u == root) continue;
    const VertexId u_p = tree.parent(u);
    CeciVertexData& ud = index.at(u);
    const std::vector<VertexId>& frontier = index.at(u_p).candidates;

    // TE expansion: one storage read per frontier vertex.
    std::vector<VertexId> dead_frontier;
    for (VertexId v_f : frontier) {
      ++stats->frontier_expansions;
      Status st = store_->ReadNeighbors(v_f, &adj);
      if (!st.ok()) return st;
      stats->neighbors_scanned += adj.size();
      vals.clear();
      for (VertexId v : adj) {
        if (!PassesFilters(query, u, profiles[u], v)) {
          ++stats->rejected_nlc;  // aggregate rejection counter
          continue;
        }
        vals.push_back(v);
      }
      if (vals.empty()) {
        dead_frontier.push_back(v_f);
      } else {
        ud.te.Append(v_f, vals);
      }
    }
    for (VertexId v : ud.te.values()) {
      if (!alive[u][v]) {
        alive[u][v] = 1;
        ud.candidates.push_back(v);
      }
    }
    std::sort(ud.candidates.begin(), ud.candidates.end());
    stats->cascade_removals += dead_frontier.size();
    cascade_remove(u_p, dead_frontier);

    // NTE expansion.
    auto nte_ids = tree.nte_in(u);
    ud.nte.resize(nte_ids.size());
    for (std::size_t k = 0; k < nte_ids.size(); ++k) {
      const VertexId u_n = tree.non_tree_edges()[nte_ids[k]].parent;
      std::vector<VertexId> dead_nte;
      for (VertexId v_n : index.at(u_n).candidates) {
        ++stats->frontier_expansions;
        Status st = store_->ReadNeighbors(v_n, &adj);
        if (!st.ok()) return st;
        stats->neighbors_scanned += adj.size();
        vals.clear();
        for (VertexId v : adj) {
          if (alive[u][v]) vals.push_back(v);
        }
        if (vals.empty()) {
          dead_nte.push_back(v_n);
        } else {
          ud.nte[k].Append(v_n, vals);
        }
      }
      stats->nte_cascade_removals += dead_nte.size();
      cascade_remove(u_n, dead_nte);
    }

    processed[u] = 1;
  }

  stats->seconds = timer.Seconds();
  return index;
}

}  // namespace ceci
