// Neighborhood Label Count index.
//
// The NLC filter (paper §3.2) requires, for every candidate data vertex v
// and query vertex u, that count_v(l) >= count_u(l) for each label l in u's
// neighborhood. This index precomputes count_v(l) for every data vertex as
// sorted (label, count) runs so the check is a merge over two tiny sorted
// lists instead of an adjacency rescans per candidate.
//
// In front of the runs sits one 64-bit signature per vertex: eight
// saturating 8-bit neighbour-label counts, label l adding to byte l & 7.
// A bucket's byte is at least the sum of the counts folded into it, so
// "every byte of v's signature >= every byte of u's" is necessary for the
// exact test, and one load and one compare reject most data vertices. When
// no bucket is shared and no count saturates, it is also sufficient, and
// the merge never runs (Need::signature_exact).
#ifndef CECI_GRAPH_NLC_INDEX_H_
#define CECI_GRAPH_NLC_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace ceci {

/// Per-vertex neighborhood label counts.
class NlcIndex {
 public:
  struct Entry {
    Label label;
    std::uint32_t count;
  };

  /// One byte per bucket; label l counts in bucket l % kSignatureBuckets.
  static constexpr std::size_t kSignatureBuckets = 8;

  /// A query vertex's NLC requirement, prepared once for many data-vertex
  /// tests (Passes).
  struct Need {
    /// Exact (label, count) runs, as Profile computes them.
    std::vector<Entry> profile;
    /// Signature of `profile`.
    std::uint64_t signature = 0;
    /// True iff the signature test decides Covers on its own: the data
    /// graph has at most kSignatureBuckets labels, every profile label is
    /// below kSignatureBuckets, and no profile count reaches 255.
    bool signature_exact = false;
  };

  NlcIndex() = default;

  /// Builds the index for `g`. O(sum of degrees * labels per vertex).
  explicit NlcIndex(const Graph& g);

  /// Sorted-by-label (label, count) entries for vertex v.
  std::span<const Entry> entries(VertexId v) const {
    return {entries_.data() + offsets_[v], entries_.data() + offsets_[v + 1]};
  }

  /// The signature of v's entries.
  std::uint64_t signature(VertexId v) const { return signatures_[v]; }

  /// True iff for every (l, c) in `required`, v has at least c neighbors
  /// with label l: the exact merge, and the reference for Passes.
  bool Covers(VertexId v, std::span<const Entry> required) const;

  /// The NLC filter as the filters run it: the signature test first, the
  /// exact merge only on its survivors and only when the signature is not
  /// exact. Equals Covers(v, need.profile).
  bool Passes(VertexId v, const Need& need) const {
    const bool signature_ok = SignatureCovers(signatures_[v], need.signature);
    if (need.signature_exact || !signature_ok) return signature_ok;
    return Covers(v, need.profile);
  }

  /// Prepares u's requirement against this index.
  Need NeedOf(const Graph& query, VertexId u) const;

  /// True iff signatures alone can be exact here: the indexed graph has at
  /// most kSignatureBuckets labels, so no bucket holds two of them.
  bool signatures_exact() const { return signatures_exact_; }

  std::size_t entry_bytes() const {
    return offsets_.size() * sizeof(EdgeId) + entries_.size() * sizeof(Entry);
  }
  std::size_t signature_bytes() const {
    return signatures_.size() * sizeof(std::uint64_t);
  }
  std::size_t MemoryBytes() const { return entry_bytes() + signature_bytes(); }

  /// Computes the (label, count) profile of a single vertex's neighborhood
  /// without an index; used for query vertices.
  static std::vector<Entry> Profile(const Graph& g, VertexId v);

  /// Folds (label, count) runs into a signature (saturating bytes).
  static std::uint64_t Signature(std::span<const Entry> runs);

  /// True iff every byte of `have` is >= the same byte of `need`. The low
  /// seven bits of each byte are compared by a subtraction that cannot
  /// borrow across bytes; the high bits settle the rest.
  static bool SignatureCovers(std::uint64_t have, std::uint64_t need) {
    constexpr std::uint64_t kHigh = 0x8080808080808080ULL;
    const std::uint64_t low_ge = (have | kHigh) - (need & ~kHigh);
    const std::uint64_t ge = (have & ~need) | (~(have ^ need) & low_ge);
    return (ge & kHigh) == kHigh;
  }

 private:
  std::vector<EdgeId> offsets_;
  std::vector<Entry> entries_;
  std::vector<std::uint64_t> signatures_;
  bool signatures_exact_ = true;
};

}  // namespace ceci

#endif  // CECI_GRAPH_NLC_INDEX_H_
