// Workload definitions: which data graph and which queries each workload
// runs, all derived from the seed, plus the oracle that says what every
// query must answer. The library only ever sees the generated graphs and
// queries.
#ifndef CECI_PERFBENCH_WORKLOADS_H_
#define CECI_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace perfbench {

enum class WorkloadKind { kFirst1k, kFullEnum, kServeZipf };

struct WorkloadSpec {
  std::string name;
  WorkloadKind kind = WorkloadKind::kFirst1k;
  /// Threads per Match() call.
  std::size_t threads = 1;
  /// Embedding limit per query; 0 enumerates everything.
  std::uint64_t limit = 0;
};

/// "first1k", "full-enum" or "serve-zipf".
ceci::Result<WorkloadSpec> LookupWorkload(const std::string& name);

/// The data graph of a workload: a labeled social analog
/// (n=50K, attach<=10, 8 labels) for first1k and serve-zipf, the Orkut
/// analog of bench/bench_common.h (social n=12K, attach<=16) for
/// full-enum. Fixed for every seed: the seed draws the queries and the
/// request order, so runs with different seeds measure the same graph.
ceci::Graph DataGraph(WorkloadKind kind);

/// Where EnsureDataFile keeps the workload's data graph.
std::string DataFilePath(const WorkloadSpec& spec,
                         const std::string& data_dir);

/// Writes the workload's data graph as a labeled edge list under
/// `data_dir` unless it is there already; returns its path.
ceci::Result<std::string> EnsureDataFile(const WorkloadSpec& spec,
                                         const std::string& data_dir);

/// One query of a workload, as a graph and as its pattern-DSL text.
struct Query {
  ceci::Graph graph;
  std::string pattern;
  /// The oracle's answer under the workload's limit.
  std::uint64_t expected = 0;
};

/// Embeddings of `query` in `data` under the library's semantics (vertex
/// label containment, injective, automorphisms broken as by
/// ceci::SymmetryConstraints), counted up to `target` by a plain
/// backtracking search that tests at most `max_steps` candidate vertices.
/// Returns nullopt when the step budget runs out first. It shares no code
/// with the CECI pipeline, and its budget is a count, so a query set chosen
/// with it depends neither on the code being measured nor on host speed.
std::optional<std::uint64_t> BoundedCount(const ceci::Graph& data,
                                          const ceci::Graph& query,
                                          std::uint64_t target,
                                          std::uint64_t max_steps);

/// `count` DFS-extracted labeled queries of 4..10 vertices with at least
/// `limit` embeddings, whose structural cache keys are pairwise distinct
/// and absent from `keys` (which receives the new keys), with their oracle
/// answers (see FillOracle). `stream` separates independent query streams
/// drawn from the same seed. A candidate is kept when BoundedCount finds
/// `limit` embeddings within a fixed step budget. Queries with fewer
/// embeddings would enumerate their whole search space, which full-enum
/// covers, and one of them can cost more than the thousand others together.
ceci::Result<std::vector<Query>> FullPageQueries(
    const ceci::Graph& data, std::uint64_t seed, std::uint64_t stream,
    std::size_t count, std::uint64_t limit, std::vector<std::string>* keys);

/// The paper's QG1..QG5, in order.
std::vector<Query> PaperQueries();

/// Fills Query::expected for every query: the embedding count under
/// `limit` from the pointer index layout (flat_index=false). Every full
/// page (limit > 0 and a count equal to it) and every complete answer
/// below 1024 is cross-checked against the QuickSI baseline under the same
/// limit. Fails when the two disagree. Runs the queries in parallel; it is
/// only called while inputs are prepared, in a process that measures
/// nothing.
ceci::Status FillOracle(const ceci::Graph& data, std::uint64_t limit,
                        std::size_t threads, std::vector<Query>* queries);

}  // namespace perfbench

#endif  // CECI_PERFBENCH_WORKLOADS_H_
