#include "ceci/preprocess.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"

namespace ceci {
namespace {

// Chooses the label bucket to scan: the least frequent label of u.
Label ScanLabel(const Graph& data, const Graph& query, VertexId u) {
  Label best = query.label(u);
  std::size_t best_size = std::numeric_limits<std::size_t>::max();
  for (Label l : query.labels(u)) {
    std::size_t size = data.VerticesWithLabel(l).size();
    if (size < best_size) {
      best_size = size;
      best = l;
    }
  }
  return best;
}

// What the filters need of query vertex u, prepared once per scan.
struct QueryVertexFilter {
  QueryVertexFilter(const NlcIndex& data_nlc, const Graph& query, VertexId u)
      : labels(query.labels(u)),
        degree(query.degree(u)),
        nlc(data_nlc.NeedOf(query, u)) {}

  std::span<const Label> labels;
  std::size_t degree;
  NlcIndex::Need nlc;
};

// The one implementation of the filters: label containment, degree, NLC,
// in that order. `v` comes from u's scan-label bucket, so it already
// carries u's label when u has only one. Degree and NLC are combined
// arithmetically rather than by early returns: where the signature is
// exact, Passes is one compare, and the scan then has no branch on data
// it cannot predict.
FilterVerdict Verdict(const Graph& data, const NlcIndex& data_nlc,
                      const QueryVertexFilter& u, VertexId v) {
  static_assert(static_cast<std::uint8_t>(FilterVerdict::kRejectDegree) == 1 &&
                    static_cast<std::uint8_t>(FilterVerdict::kRejectNlc) == 2 &&
                    static_cast<std::uint8_t>(FilterVerdict::kPass) == 3,
                "the verdict is 1 + deg_ok + (deg_ok & nlc_ok)");
  if (u.labels.size() > 1 && !data.HasAllLabels(v, u.labels)) {
    return FilterVerdict::kRejectLabel;
  }
  const unsigned deg_ok = data.degree(v) >= u.degree;
  const unsigned nlc_ok = data_nlc.Passes(v, u.nlc);
  return static_cast<FilterVerdict>(1 + deg_ok + (deg_ok & nlc_ok));
}

}  // namespace

FilterVerdicts ComputeFilterVerdicts(const Graph& data,
                                     const NlcIndex& data_nlc,
                                     const Graph& query,
                                     std::vector<std::size_t>* pass_counts) {
  static_assert(static_cast<std::uint8_t>(FilterVerdict::kRejectLabel) == 0,
                "the zero-filled table starts as all label rejections");
  const std::size_t nq = query.num_vertices();
  const std::size_t nd = data.num_vertices();
  FilterVerdicts out;
  out.num_data_vertices = nd;
  out.bytes.resize(nq * nd);
  if (pass_counts != nullptr) pass_counts->assign(nq, 0);
  for (VertexId u = 0; u < nq; ++u) {
    const QueryVertexFilter filter(data_nlc, query, u);
    std::uint8_t* row = out.bytes.data() + u * nd;
    std::size_t passed = 0;
    for (VertexId v : data.VerticesWithLabel(ScanLabel(data, query, u))) {
      const FilterVerdict verdict = Verdict(data, data_nlc, filter, v);
      row[v] = static_cast<std::uint8_t>(verdict);
      passed += verdict == FilterVerdict::kPass;
    }
    if (pass_counts != nullptr) (*pass_counts)[u] = passed;
  }
  return out;
}

std::vector<VertexId> CollectCandidates(const Graph& data,
                                        const NlcIndex& data_nlc,
                                        const Graph& query, VertexId u) {
  const QueryVertexFilter filter(data_nlc, query, u);
  std::vector<VertexId> out;
  for (VertexId v : data.VerticesWithLabel(ScanLabel(data, query, u))) {
    if (Verdict(data, data_nlc, filter, v) == FilterVerdict::kPass) {
      out.push_back(v);
    }
  }
  // Label buckets are sorted by vertex id, so `out` is already sorted.
  return out;
}

std::vector<VertexId> PassingCandidates(const Graph& data, const Graph& query,
                                        const FilterVerdicts& verdicts,
                                        VertexId u) {
  CECI_CHECK(verdicts.num_data_vertices == data.num_vertices() &&
             verdicts.bytes.size() ==
                 query.num_vertices() * data.num_vertices())
      << "verdict table does not fit this (data, query) pair";
  std::vector<VertexId> out;
  for (VertexId v : data.VerticesWithLabel(ScanLabel(data, query, u))) {
    if (verdicts.at(u, v) == FilterVerdict::kPass) out.push_back(v);
  }
  return out;
}

Result<Preprocessed> Preprocess(const Graph& data, const NlcIndex& data_nlc,
                                const Graph& query,
                                const PreprocessOptions& options) {
  if (query.num_vertices() == 0) {
    return Status::InvalidArgument("empty query graph");
  }
  Preprocessed out;
  const std::size_t nq = query.num_vertices();
  out.verdicts =
      ComputeFilterVerdicts(data, data_nlc, query, &out.candidate_counts);
  out.infeasible = std::find(out.candidate_counts.begin(),
                             out.candidate_counts.end(),
                             0) != out.candidate_counts.end();

  // Root selection (§2.2): argmin |candidate(u)| / degree(u). Isolated
  // query vertices are rejected by QueryTree::Build (disconnected query).
  VertexId root = 0;
  double best_cost = std::numeric_limits<double>::infinity();
  for (VertexId u = 0; u < nq; ++u) {
    if (query.degree(u) == 0) continue;
    double cost = static_cast<double>(out.candidate_counts[u]) /
                  static_cast<double>(query.degree(u));
    if (cost < best_cost) {
      best_cost = cost;
      root = u;
    }
  }
  if (nq == 1) root = 0;  // single-vertex query: trivial tree
  out.root = root;

  auto tree = QueryTree::Build(query, root);
  if (!tree.ok()) return tree.status();
  out.tree = std::move(tree).value();

  std::vector<VertexId> order = ComputeMatchingOrder(
      query, out.tree, out.candidate_counts, options.order);
  CECI_RETURN_IF_ERROR(out.tree.SetMatchingOrder(std::move(order)));
  return out;
}

}  // namespace ceci
