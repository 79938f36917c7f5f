// The benchmark's run phases: inputs and set-up shared by both kinds of
// run, the timed end-to-end run (tracing off) and the traced per-layer run.
#ifndef CECI_PERFBENCH_BENCH_H_
#define CECI_PERFBENCH_BENCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ceci/matcher.h"
#include "graph/graph.h"
#include "report.h"
#include "serve/query_service.h"
#include "serve/tcp_server.h"
#include "workloads.h"

namespace perfbench {

/// Hot shapes of serve-zipf, popularity-ranked under Zipf(1.0).
inline constexpr std::size_t kHotShapes = 64;
/// One request in this many is a never-repeated shape (a cache miss). At
/// 2% the p99 latency falls inside the miss population rather than on the
/// boundary between hits and misses, where it would jump between the two
/// from run to run.
inline constexpr std::size_t kMissEvery = 50;
/// Distinct first-1,024 queries of first1k: enough that the p99 over
/// queries has ten samples beyond it.
inline constexpr std::size_t kFirst1kQueries = 1024;
/// serve-zipf alternates this many open-loop windows with as many capacity
/// windows, so that both phases spread over the run.
inline constexpr std::size_t kWindows = 5;
/// setup_s is the median of several set-ups. serve-zipf sets up at least
/// kSetupMinReps times, and for at least kSetupMinSeconds, before it runs;
/// a batch workload sets up once before it runs and again in every step of
/// the run, so that its set-ups spread over the run like its queries.
inline constexpr std::size_t kSetupMinReps = 5;
inline constexpr double kSetupMinSeconds = 1.0;
/// Query-service runner threads; with the load generator's thread this
/// fills the four cores the benchmark is sized for.
inline constexpr std::size_t kServeRunners = 3;
/// Client connections to the query server.
inline constexpr std::size_t kServeConnections = 4;

struct Args {
  std::string workload;
  /// Only prepare the inputs (PrepareInputs) and exit.
  bool prepare = false;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Fixed offered rate of serve-zipf's open loop.
  double offered_qps = 2500.0;
  /// Where generated graphs, oracle answers and span logs are kept.
  std::string data_dir = ".bench_build/perfbench-data";
};

/// Everything a workload feeds the library, generated from the seed.
struct Inputs {
  WorkloadSpec spec;
  std::string data_path;
  /// first1k/full-enum: the queries, timed in order. serve-zipf: the hot
  /// shapes in popularity-rank order.
  std::vector<Query> ops;
  /// serve-zipf only: never-repeated shapes, used in order.
  std::vector<Query> misses;
  /// serve-zipf only: per request, a hot rank (>= 0) or the miss
  /// -(k + 1) for misses[k].
  std::vector<std::int64_t> plan;

  /// serve-zipf: the query of request `i` of the plan.
  const Query& Request(std::size_t i) const;
};

/// Draws the workload's inputs from the seed, computes every query's
/// oracle answer and writes both to a file under Args::data_dir, unless
/// that file exists. Run in a process of its own (--prepare 1), so that
/// nothing it allocates or runs shows in the measured process.
ceci::Status PrepareInputs(const Args& args, const WorkloadSpec& spec);

/// Reads the inputs PrepareInputs wrote; fails when they are missing.
ceci::Result<Inputs> LoadInputs(const Args& args, const WorkloadSpec& spec);

/// Request counts of serve-zipf's open-loop and capacity phases (all
/// windows together).
std::size_t OpenLoopRequests(const Args& args);
std::size_t CapacityRequests(const Args& args);
/// Requests of the traced run's in-process open loop.
std::size_t TracedServeRequests(const Args& args);
/// Requests in serve-zipf's plan for this kind of run.
std::size_t ServeRequests(const Args& args);

/// The service configuration serve-zipf runs with (and the traced run's
/// in-process service for every workload).
ceci::ServiceOptions ServiceOptionsFor(const WorkloadSpec& spec);

/// A ready system: the loaded graph plus a matcher (batch workloads) or a
/// pre-warmed service behind a TCP server (serve-zipf). Members are
/// destroyed server first, graph last.
struct Env {
  std::unique_ptr<ceci::Graph> graph;
  std::unique_ptr<ceci::CeciMatcher> matcher;
  std::unique_ptr<ceci::QueryService> service;
  std::unique_ptr<ceci::TcpServer> server;
};

/// Builds the system once; `seconds` receives the wall time. Fails when
/// a step fails or a pre-warm answer disagrees with the oracle.
ceci::Result<Env> SetUp(const Inputs& in, double* seconds);

/// The timed end-to-end run: sets up and fills every end-to-end metric.
void RunTimed(const Args& args, const Inputs& in, Result* out);

/// The traced run: fills every per-layer metric and writes the spans.
void RunTraced(const Args& args, const Inputs& in, Result* out);

/// True when `embeddings` and `termination` are the right answer for a
/// query whose oracle count is `expected` under `limit`.
bool AnswerMatches(std::uint64_t expected, std::uint64_t limit,
                   std::uint64_t embeddings, const std::string& termination);

/// The MATCHX request line of a query under `limit`.
std::string RequestLine(const Query& q, std::uint64_t limit);

}  // namespace perfbench

#endif  // CECI_PERFBENCH_BENCH_H_
