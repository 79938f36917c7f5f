#include "ceci/candidate_list.h"

#include <algorithm>
#include <functional>

#include "util/check.h"
#include "util/heap_bytes.h"

namespace ceci {

void CandidateList::Append(VertexId key, std::span<const VertexId> values) {
  CECI_DCHECK(!frozen_) << "cannot mutate a frozen candidate list";
  CECI_DCHECK(keys_.empty() || keys_.back() < key)
      << "keys must be appended in ascending order";
  CECI_DCHECK(std::adjacent_find(values.begin(), values.end(),
                                 std::greater_equal<VertexId>()) ==
              values.end())
      << "value sets must be strictly sorted";
  if (offsets_.empty()) offsets_.push_back(0);
  keys_.push_back(key);
  values_.insert(values_.end(), values.begin(), values.end());
  CECI_DCHECK(values_.size() <= UINT32_MAX) << "u32 offsets overflow";
  offsets_.push_back(static_cast<std::uint32_t>(values_.size()));
}

std::span<const VertexId> CandidateList::Find(VertexId key) const {
  auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it == keys_.end() || *it != key) return {};
  return values_at(static_cast<std::size_t>(it - keys_.begin()));
}

std::vector<VertexId> CandidateList::UnionOfValues() const {
  std::vector<VertexId> out = values_;
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::size_t CandidateList::MemoryBytes() const {
  return keys_.size() * sizeof(VertexId) +
         (keys_.size() + 1) * sizeof(std::uint32_t) +
         values_.size() * sizeof(VertexId);
}

std::size_t CandidateList::MeasuredHeapBytes() const {
  return MeasuredVectorBytes(keys_) + MeasuredVectorBytes(offsets_) +
         MeasuredVectorBytes(values_);
}

void CandidateList::clear() {
  keys_.clear();
  offsets_.clear();
  values_.clear();
  frozen_ = false;
}

}  // namespace ceci
