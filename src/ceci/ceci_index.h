// The Compact Embedding Cluster Index (paper §3.1).
//
// One CeciIndex represents every embedding cluster of a (data graph, query
// graph) pair: per non-root query vertex a TE candidate list keyed by its
// tree parent's candidates and one NTE candidate list per incoming non-tree
// edge; the root holds the cluster pivots. Size is O(|E_q| × |E_g|) (§3.4).
// Built by CeciBuilder, refined by Refiner, consumed by Enumerator.
#ifndef CECI_CECI_CECI_INDEX_H_
#define CECI_CECI_CECI_INDEX_H_

#include <vector>

#include "ceci/candidate_list.h"
#include "ceci/query_tree.h"
#include "graph/types.h"

namespace ceci {

/// Per-query-vertex slice of the index.
struct CeciVertexData {
  /// Alive candidates, sorted. For the root these are the cluster pivots.
  std::vector<VertexId> candidates;
  /// cardinality(u, candidates[i]) as computed by refinement (§3.3);
  /// parallel to `candidates`. Zero before refinement.
  std::vector<Cardinality> cardinalities;
  /// TE candidates keyed by parent's candidates. Empty for the root.
  CandidateList te;
  /// NTE candidates, parallel to QueryTree::nte_in(u).
  std::vector<CandidateList> nte;
};

/// The index. Plain data; lifetime bound to the QueryTree it was built for.
class CeciIndex {
 public:
  CeciIndex() = default;
  explicit CeciIndex(std::size_t num_query_vertices)
      : per_vertex_(num_query_vertices) {}

  CeciVertexData& at(VertexId u) { return per_vertex_[u]; }
  const CeciVertexData& at(VertexId u) const { return per_vertex_[u]; }

  std::size_t num_query_vertices() const { return per_vertex_.size(); }

  /// Cluster pivots (candidates of the root query vertex).
  const std::vector<VertexId>& pivots(const QueryTree& tree) const {
    return per_vertex_[tree.root()].candidates;
  }

  /// cardinality(u, v); zero if v is not an alive candidate of u.
  Cardinality CardinalityOf(VertexId u, VertexId v) const;

  /// Seals every candidate list against mutation (call after refinement;
  /// the lists are CSR already, so nothing is copied).
  void Freeze();

  /// Total candidate edges stored across all TE and NTE lists.
  std::size_t TotalCandidateEdges() const;

  /// Approximate heap bytes of the index (Table 2 accounting).
  std::size_t MemoryBytes() const;

  /// Actual heap bytes held by the index: every vector's allocation as the
  /// allocator sees it (capacity slack and block rounding included), plus
  /// the per-vertex struct storage itself. Always >= MemoryBytes(); this is
  /// the figure the flat-layout benchmarks compare against.
  std::size_t MeasuredHeapBytes() const;

  /// Measured footprint of one query vertex's slice, split by structure.
  /// MemoryBytes() equals the sum of `te_bytes + nte_bytes +
  /// candidate_bytes` over all vertices; the profiler reports this
  /// breakdown per vertex (Table 2 from measurement, not estimate).
  struct VertexFootprint {
    std::size_t te_keys = 0;
    std::size_t te_edges = 0;
    std::size_t te_bytes = 0;
    std::size_t nte_lists = 0;
    std::size_t nte_edges = 0;
    std::size_t nte_bytes = 0;
    std::size_t candidate_bytes = 0;  // candidates + cardinalities arrays
  };
  VertexFootprint MemoryFootprint(VertexId u) const;

  /// The paper's theoretical bound: |E_q| × |E_g| candidate edges at
  /// 8 bytes each (§6.4).
  static std::size_t TheoreticalBytes(std::size_t query_edges,
                                      std::size_t data_edges) {
    return query_edges * data_edges * 8;
  }

 private:
  std::vector<CeciVertexData> per_vertex_;
};

}  // namespace ceci

#endif  // CECI_CECI_CECI_INDEX_H_
