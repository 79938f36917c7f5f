// TE/NTE candidate list: the key-value structure of paper §3.1/§3.6.
//
// Each list maps a candidate v_p of the parent (tree parent for TE lists,
// NTE parent for NTE lists) to the sorted set of candidates of the child
// query vertex adjacent to v_p. Keys are kept sorted so lookups are binary
// searches, mirroring the paper's sorted STL-vector-of-pairs layout.
#ifndef CECI_CECI_CANDIDATE_LIST_H_
#define CECI_CECI_CANDIDATE_LIST_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.h"
#include "util/logging.h"

namespace ceci {

/// Sorted key → sorted value-set candidate map.
///
/// One CSR layout from birth: sorted keys, u32 offsets (keys + 1 of them
/// once a key exists) and one contiguous value array. The builder appends
/// straight into it, refinement prunes it in place, and the enumeration
/// hot path reads it with no per-key indirection. Freeze() only seals the
/// list — nothing is copied; mutating a frozen list is a programming error
/// (checked).
class CandidateList {
 public:
  CandidateList() = default;

  /// Appends a key with its value set. Keys must arrive in strictly
  /// ascending order (the builder expands sorted frontiers, so this holds
  /// naturally); values must be sorted.
  void Append(VertexId key, std::span<const VertexId> values);

  /// Value set for `key`; empty span if the key is absent.
  std::span<const VertexId> Find(VertexId key) const;

  /// Seals the list against further mutation. Call after refinement.
  void Freeze() { frozen_ = true; }
  bool frozen() const { return frozen_; }

  std::size_t num_keys() const { return keys_.size(); }
  std::span<const VertexId> keys() const { return keys_; }
  std::span<const VertexId> values_at(std::size_t idx) const {
    return {values_.data() + offsets_[idx],
            values_.data() + offsets_[idx + 1]};
  }
  /// Every stored value, key by key (the concatenated value sets).
  std::span<const VertexId> values() const { return values_; }

  /// Total number of candidate edges stored.
  std::size_t TotalValues() const { return values_.size(); }

  /// Sorted union of all value sets (the candidate set contribution).
  std::vector<VertexId> UnionOfValues() const;

  /// Drops keys failing `keep_key` and values failing `keep_value`; keys
  /// left with no values are dropped too. Keys, offsets and values are
  /// compacted in place. Returns the number of candidate edges removed.
  template <typename KeepKey, typename KeepValue>
  std::size_t Prune(const KeepKey& keep_key, const KeepValue& keep_value);

  /// Payload bytes: 4 per key, 4 per offset and 4 per stored edge (the
  /// paper's Table 2 accounting of 8 bytes per edge counts key + value).
  std::size_t MemoryBytes() const;

  /// Actual heap bytes held by this list's allocations, including vector
  /// capacity slack and allocator block rounding (malloc_usable_size where
  /// available, capacity-based otherwise). Always >= MemoryBytes() once a
  /// key exists; this is the honest figure to compare against
  /// FlatCeciIndex::ArenaBytes().
  std::size_t MeasuredHeapBytes() const;

  bool empty() const { return keys_.empty(); }
  void clear();

 private:
  // Test-only backdoor for planting list corruption (invariant-auditor
  // negative tests); never referenced by library code.
  friend class CandidateListTestPeer;

  std::vector<VertexId> keys_;
  std::vector<std::uint32_t> offsets_;  // empty, or keys_.size() + 1
  std::vector<VertexId> values_;
  bool frozen_ = false;
};

template <typename KeepKey, typename KeepValue>
std::size_t CandidateList::Prune(const KeepKey& keep_key,
                                 const KeepValue& keep_value) {
  CECI_CHECK(!frozen_) << "cannot prune a frozen candidate list";
  const std::size_t before = values_.size();
  std::size_t kept_keys = 0;
  std::uint32_t kept_values = 0;
  std::uint32_t begin = 0;
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    // Read the key's end before the write below may overwrite it.
    const std::uint32_t end = offsets_[i + 1];
    if (keep_key(keys_[i])) {
      const std::uint32_t first = kept_values;
      for (std::uint32_t j = begin; j < end; ++j) {
        const VertexId v = values_[j];
        values_[kept_values] = v;
        kept_values += keep_value(v) ? 1 : 0;
      }
      if (kept_values != first) {
        keys_[kept_keys] = keys_[i];
        offsets_[++kept_keys] = kept_values;
      }
    }
    begin = end;
  }
  keys_.resize(kept_keys);
  if (!offsets_.empty()) offsets_.resize(kept_keys + 1);
  values_.resize(kept_values);
  return before - kept_values;
}

}  // namespace ceci

#endif  // CECI_CECI_CANDIDATE_LIST_H_
