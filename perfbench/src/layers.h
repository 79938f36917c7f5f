// The traced pipeline: CeciMatcher::Match() taken apart into the calls of
// its layers (Preprocess -> CeciBuilder::Build -> RefineCeci ->
// CeciIndex::Freeze -> FlatCeciIndex::Build -> RunParallelEnumeration),
// each wrapped in a span from the outside. The library is not modified;
// the decomposition must reproduce Match()'s answer exactly.
#ifndef CECI_PERFBENCH_LAYERS_H_
#define CECI_PERFBENCH_LAYERS_H_

#include <cstdint>

#include "ceci/matcher.h"
#include "graph/graph.h"
#include "graph/nlc_index.h"
#include "report.h"

namespace perfbench {

/// Self times and counts of one query's pass through the layers.
struct LayerSample {
  bool ok = false;
  std::uint64_t embeddings = 0;
  double query_s = 0.0;  // the enclosing "query" span
  double preprocess_s = 0.0;
  double build_s = 0.0;
  double refine_s = 0.0;
  double freeze_csr_s = 0.0;
  double freeze_flat_s = 0.0;
  double enumerate_s = 0.0;
  std::uint64_t candidate_edges_built = 0;
  std::uint64_t candidate_edges_refined = 0;
  std::uint64_t neighbors_scanned = 0;
  std::uint64_t arena_bytes = 0;
  std::uint64_t recursive_calls = 0;
  std::uint64_t intersections = 0;
  std::uint64_t elements_in = 0;
  std::uint64_t elements_out = 0;
  std::uint64_t work_units = 0;
  double worker_busy_s = 0.0;  // summed over enumeration workers
  std::size_t threads = 1;

  double LayerSum() const {
    return preprocess_s + build_s + refine_s + freeze_csr_s + freeze_flat_s +
           enumerate_s;
  }
};

/// Runs one query through the layers with the same options Match() would
/// use for `options` (threads, limit, distribution, beta, order; flat
/// layout). Spans go to `log` under a "query" span whose parent is
/// `parent`.
LayerSample RunLayers(const ceci::Graph& data, const ceci::NlcIndex& nlc,
                      const ceci::Graph& query,
                      const ceci::MatchOptions& options, SpanLog& log,
                      std::size_t parent, std::int64_t query_id);

/// Empty when the counts Match() reported in `stats` equal the traced
/// pass's; otherwise names the first that differs.
std::string CompareCounts(const LayerSample& traced,
                          const ceci::MatchResult& untraced);

}  // namespace perfbench

#endif  // CECI_PERFBENCH_LAYERS_H_
