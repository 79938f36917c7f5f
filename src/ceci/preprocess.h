// Preprocessing (paper §2.2): the label/degree/NLC filters evaluated once
// per (query vertex, data vertex), root selection by argmin
// |candidate(u)|/degree(u), BFS query-tree construction, and
// matching-order selection.
#ifndef CECI_CECI_PREPROCESS_H_
#define CECI_CECI_PREPROCESS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "ceci/matching_order.h"
#include "ceci/query_tree.h"
#include "graph/graph.h"
#include "graph/nlc_index.h"
#include "util/status.h"

namespace ceci {

struct PreprocessOptions {
  OrderStrategy order = OrderStrategy::kBfs;
};

/// Outcome of the label (LF), degree (DF) and NLC filters for one
/// (query vertex, data vertex) pair: kPass, or the first filter that
/// rejects the data vertex in the builder's order — label, then degree,
/// then NLC.
enum class FilterVerdict : std::uint8_t {
  kRejectLabel = 0,
  kRejectDegree = 1,
  kRejectNlc = 2,
  kPass = 3,
};

/// One verdict byte per (query vertex, data vertex), row-major by query
/// vertex. Preprocess computes it; CeciBuilder::Build takes it over as its
/// working candidate-membership table, so the filters run once per pair.
struct FilterVerdicts {
  std::size_t num_data_vertices = 0;
  std::vector<std::uint8_t> bytes;

  bool empty() const { return bytes.empty(); }
  FilterVerdict at(VertexId u, VertexId v) const {
    return static_cast<FilterVerdict>(bytes[u * num_data_vertices + v]);
  }
};

/// Evaluates the filters for every query vertex over its scan-label bucket
/// (the data vertices carrying its rarest label); vertices outside the
/// bucket are label rejections. When `pass_counts` is set it receives
/// |candidate(u)|, the number of kPass verdicts of each query vertex.
FilterVerdicts ComputeFilterVerdicts(const Graph& data,
                                     const NlcIndex& data_nlc,
                                     const Graph& query,
                                     std::vector<std::size_t>* pass_counts);

/// Materializes the candidate list of one query vertex without a verdict
/// table: the table-free reference for PassingCandidates.
std::vector<VertexId> CollectCandidates(const Graph& data,
                                        const NlcIndex& data_nlc,
                                        const Graph& query, VertexId u);

/// The candidate list of `u` read off a verdict table: the kPass vertices
/// of its scan-label bucket, ascending. Equals CollectCandidates.
std::vector<VertexId> PassingCandidates(const Graph& data, const Graph& query,
                                        const FilterVerdicts& verdicts,
                                        VertexId u);

/// Output of preprocessing: the chosen root, the query tree with its
/// matching order applied, the filter verdicts, and the per-vertex
/// candidate counts that drove the choices.
struct Preprocessed {
  VertexId root = kInvalidVertex;
  QueryTree tree;
  /// |candidate(u)| after label, degree, and NLC filtering.
  std::vector<std::size_t> candidate_counts;
  /// Every filter verdict; pass it to CeciBuilder::Build
  /// (BuildOptions::verdicts), which consumes it. Holders that outlive the
  /// build (caches) should drop it.
  FilterVerdicts verdicts;
  /// True iff some query vertex has zero candidates (no embeddings exist).
  bool infeasible = false;
};

/// Runs the full preprocessing pipeline. Fails only on malformed input
/// (empty or disconnected query).
Result<Preprocessed> Preprocess(const Graph& data, const NlcIndex& data_nlc,
                                const Graph& query,
                                const PreprocessOptions& options);

}  // namespace ceci

#endif  // CECI_CECI_PREPROCESS_H_
