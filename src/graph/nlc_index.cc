#include "graph/nlc_index.h"

#include <algorithm>

namespace ceci {

NlcIndex::NlcIndex(const Graph& g) {
  const std::size_t n = g.num_vertices();
  // `count` holds one vertex's per-label neighbour counts (zeroed again
  // once read); `labels` collects that vertex's distinct labels in
  // first-seen order. Both are reused for every vertex.
  std::vector<std::uint32_t> count(g.num_labels(), 0);
  std::vector<Label> labels;
  auto gather = [&](VertexId v) {
    labels.clear();
    for (VertexId w : g.neighbors(v)) {
      for (Label l : g.labels(w)) {
        if (count[l]++ == 0) labels.push_back(l);
      }
    }
  };
  // Count pass: sizes entries_ exactly.
  offsets_.assign(n + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    gather(v);
    for (Label l : labels) count[l] = 0;
    offsets_[v + 1] = offsets_[v] + labels.size();
  }
  // Fill pass: each vertex's runs are written in place, sorted by label,
  // and folded into its signature.
  entries_.resize(offsets_[n]);
  signatures_.resize(n);
  signatures_exact_ = g.num_labels() <= kSignatureBuckets;
  Entry* out = entries_.data();
  for (VertexId v = 0; v < n; ++v) {
    gather(v);
    std::sort(labels.begin(), labels.end());
    Entry* const first = out;
    for (Label l : labels) {
      *out++ = Entry{l, count[l]};
      count[l] = 0;
    }
    signatures_[v] = Signature({first, out});
  }
}

std::uint64_t NlcIndex::Signature(std::span<const Entry> runs) {
  std::uint64_t sig = 0;
  for (const Entry& e : runs) {
    const unsigned shift = 8 * (e.label % kSignatureBuckets);
    const std::uint64_t byte = (sig >> shift) & 0xFF;
    const std::uint64_t sum = std::min<std::uint64_t>(byte + e.count, 0xFF);
    sig += (sum - byte) << shift;  // sum >= byte: no carry out of the byte
  }
  return sig;
}

NlcIndex::Need NlcIndex::NeedOf(const Graph& query, VertexId u) const {
  Need need;
  need.profile = Profile(query, u);
  need.signature = Signature(need.profile);
  need.signature_exact =
      signatures_exact_ &&
      std::all_of(need.profile.begin(), need.profile.end(),
                  [](const Entry& e) {
                    return e.label < kSignatureBuckets && e.count < 0xFF;
                  });
  return need;
}

bool NlcIndex::Covers(VertexId v, std::span<const Entry> required) const {
  auto have = entries(v);
  std::size_t i = 0;
  for (const Entry& need : required) {
    while (i < have.size() && have[i].label < need.label) ++i;
    if (i == have.size() || have[i].label != need.label ||
        have[i].count < need.count) {
      return false;
    }
  }
  return true;
}

std::vector<NlcIndex::Entry> NlcIndex::Profile(const Graph& g, VertexId v) {
  std::vector<Label> seen;
  for (VertexId w : g.neighbors(v)) {
    for (Label l : g.labels(w)) seen.push_back(l);
  }
  std::sort(seen.begin(), seen.end());
  std::vector<Entry> out;
  for (std::size_t i = 0; i < seen.size();) {
    std::size_t j = i;
    while (j < seen.size() && seen[j] == seen[i]) ++j;
    out.push_back(Entry{seen[i], static_cast<std::uint32_t>(j - i)});
    i = j;
  }
  return out;
}

}  // namespace ceci
