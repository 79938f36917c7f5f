// The timed end-to-end run. Tracing is off; the oracle's answers were
// computed before any clock started, and the hot path only compares.
#include <algorithm>
#include <cstdio>
#include <optional>

#include "bench.h"
#include "loopback.h"
#include "serve/protocol.h"
#include "util/metrics_registry.h"

namespace perfbench {
namespace {

bool MatchAnswerOk(const Query& q, std::uint64_t limit,
                   const ceci::Result<ceci::MatchResult>& r) {
  return r.ok() &&
         AnswerMatches(q.expected, limit, r->embedding_count,
                       ceci::TerminationReasonName(r->termination));
}

void SetLatencies(const std::vector<double>& seconds, Result* out) {
  out->Set("latency_p50_ms", NearestRank(seconds, 0.50) * 1e3, "ms");
  out->Set("latency_p90_ms", NearestRank(seconds, 0.90) * 1e3, "ms");
  out->Set("latency_p99_ms", NearestRank(seconds, 0.99) * 1e3, "ms");
}

void PrintSupport(const char* what, std::size_t n) {
  std::printf("%s: %zu samples; p90 %s, p99 %s by the >=10-beyond rule\n",
              what, n,
              PercentileSupported(n, 0.90) ? "supported" : "NOT supported",
              PercentileSupported(n, 0.99) ? "supported" : "NOT supported");
}

// Consecutive single-threaded calls on one core before the next core.
constexpr std::size_t kCallsPerTurn = 16;

// A batch step: this long of closed loop, then set-ups for this long (at
// least one).
constexpr double kClosedLoopSlice = 0.5;
constexpr double kSetUpSlice = 0.05;

// Builds a system and records its set-up time in `setup_s`; on failure
// marks the run incorrect and returns nullopt.
std::optional<Env> TimedSetUp(const Inputs& in, std::vector<double>* setup_s,
                              Result* out) {
  double seconds = 0.0;
  auto built = [&] {
    // A batch set-up (graph load, NLC index) starts no threads; serve-zipf's
    // starts the service and the server.
    std::optional<CpuTurn> turn;
    if (in.spec.kind != WorkloadKind::kServeZipf) turn.emplace();
    return SetUp(in, &seconds);
  }();
  if (!built.ok()) {
    std::fprintf(stderr, "perfbench: set-up: %s\n",
                 built.status().ToString().c_str());
    out->correct = false;
    return std::nullopt;
  }
  setup_s->push_back(seconds);
  return std::move(built).value();
}

// first1k / full-enum. The run is a sequence of short steps — a slice of
// closed loop, then a few set-ups — so that the set-ups spread over the run
// like the queries; steps go on until --seconds have passed. No sample is
// picked over another: a slow stretch of the run, whatever its cause, shows
// in the figures in proportion to its length.
void RunBatch(const Args& args, const Inputs& in, Result* out) {
  const WorkloadSpec& spec = in.spec;
  std::vector<double> setup_s;
  std::optional<Env> env = TimedSetUp(in, &setup_s, out);
  if (!env) return;
  ceci::MatchOptions options;
  options.threads = spec.threads;
  options.limit = spec.limit;
  const std::size_t n = in.ops.size();
  // Single-threaded calls take the cores in turn (CpuTurn), kCallsPerTurn
  // calls on each, so that caches stay warm from one call to the next; a
  // call with more threads is spread over the cores by the scheduler.
  const bool single = spec.threads == 1;

  std::vector<double> latency;  // every Match(); sample i is of query i % n
  std::size_t steps = 0;
  const Clock::time_point start = Clock::now();
  const auto since = [](Clock::time_point t) {
    return SecondsBetween(t, Clock::now());
  };
  while (steps == 0 || since(start) < args.seconds) {
    // Closed loop, one client: queries in a cycle.
    {
      std::optional<CpuTurn> turn;
      const Clock::time_point t = Clock::now();
      do {
        const std::size_t i = latency.size() % n;
        if (single && i % kCallsPerTurn == 0) turn.emplace();
        const Clock::time_point t0 = Clock::now();
        auto r = env->matcher->Match(in.ops[i].graph, options);
        latency.push_back(since(t0));
        out->Op(MatchAnswerOk(in.ops[i], spec.limit, r));
      } while (since(t) < kClosedLoopSlice);
    }
    // Set-ups; the systems they build are discarded.
    const Clock::time_point t = Clock::now();
    do {
      if (!TimedSetUp(in, &setup_s, out)) return;
    } while (since(t) < kSetUpSlice);
    ++steps;
  }

  // Calls count over whole passes of the query cycle, so that every query
  // weighs the same in throughput_qps; the pass in progress when time ran
  // out is dropped, unless the run did not finish one.
  if (latency.size() >= n) latency.resize(latency.size() / n * n);
  double total = 0.0;
  for (double x : latency) total += x;
  // A query's latency is the median of its calls, and the percentiles are
  // over queries: the tail is that of the query set, which a host stall
  // during one call of a query does not move. throughput_qps, a mean over
  // every call, keeps the stalls.
  std::vector<double> per_query;
  for (std::size_t i = 0; i < n && i < latency.size(); ++i) {
    std::vector<double> calls;
    for (std::size_t k = i; k < latency.size(); k += n) {
      calls.push_back(latency[k]);
    }
    per_query.push_back(Median(calls));
  }
  SetLatencies(per_query, out);
  out->Set("throughput_qps", static_cast<double>(latency.size()) / total,
           "1/s");
  out->Set("peak_rss_mb", PeakRssMb(), "MB");
  out->Set("setup_s", Median(setup_s), "s");
  std::printf("%zu steps in %.1f s: %zu closed-loop calls over %zu queries "
              "counted, %zu set-ups\n",
              steps, since(start), latency.size(), n, setup_s.size());
  PrintSupport("latency (per-query medians)", per_query.size());
}

// Checks one wire response against the oracle.
bool WireAnswerOk(const Query& q, std::uint64_t limit,
                  const std::string& line) {
  auto parsed = ceci::ParseResponseLine(line);
  return parsed.ok() && parsed->kind == ceci::WireResponse::Kind::kOk &&
         parsed->admission == "accepted" &&
         AnswerMatches(q.expected, limit, parsed->embeddings,
                       parsed->termination);
}

std::uint64_t CounterValue(const char* name) {
  return ceci::MetricsRegistry::Global().GetCounter(name).Value();
}

void RunServe(const Args& args, const Inputs& in, Result* out) {
  std::optional<Env> env;
  std::vector<double> setup_s;
  double setup_total = 0.0;
  while (setup_s.size() < kSetupMinReps || setup_total < kSetupMinSeconds) {
    env.reset();  // one system at a time: each holds the port's listener
    env = TimedSetUp(in, &setup_s, out);
    if (!env) return;
    setup_total += setup_s.back();
  }
  out->Set("setup_s", Median(setup_s), "s");
  const std::uint64_t limit = in.spec.limit;
  std::size_t base = 0;  // plan index of the phase's request 0
  LoopbackTransport transport(
      env->server->port(), kServeConnections,
      [&](std::size_t i) { return RequestLine(in.Request(base + i), limit); });
  if (!transport.ok()) {
    std::fprintf(stderr, "perfbench: cannot connect to the query server\n");
    out->correct = false;
    return;
  }
  const std::uint64_t hits_before = CounterValue("ceci.cache.hits");
  const std::uint64_t misses_before = CounterValue("ceci.cache.misses");
  std::uint64_t hot_sent = 0;
  std::uint64_t miss_sent = 0;

  // Open-loop windows at the fixed offered rate alternate with capacity
  // windows (closed loop on every connection, same mix), so both spread
  // over the whole run. Every metric pools all windows of its phase.
  const std::size_t per_window = OpenLoopRequests(args) / kWindows;
  const std::size_t cap_window = CapacityRequests(args) / kWindows;
  std::vector<double> all, hit, miss, late;
  double open_wall = 0.0, cap_wall = 0.0;
  for (std::size_t w = 0; w < kWindows; ++w) {
    base = w * per_window;
    const std::vector<RequestTiming> open =
        RunOpenLoop(transport, per_window, args.offered_qps);
    if (open.size() != per_window) {
      out->correct = false;
      return;
    }
    double last_done = 0.0;
    for (std::size_t i = 0; i < per_window; ++i) {
      const RequestTiming& r = open[i];
      const bool hot = in.plan[base + i] >= 0;
      out->Op(WireAnswerOk(in.Request(base + i), limit, r.response));
      all.push_back(r.LatencySeconds());
      (hot ? hit : miss).push_back(r.LatencySeconds());
      (hot ? hot_sent : miss_sent) += 1;
      late.push_back(r.LateSeconds());
      last_done = std::max(last_done, r.done_s);
    }
    open_wall += last_done;

    base = kWindows * per_window + w * cap_window;
    const std::vector<RequestTiming> cap = RunClosedLoop(transport, cap_window);
    if (cap.size() != cap_window) {
      out->correct = false;
      return;
    }
    double wall = 0.0;
    for (std::size_t i = 0; i < cap_window; ++i) {
      out->Op(WireAnswerOk(in.Request(base + i), limit, cap[i].response));
      (in.plan[base + i] >= 0 ? hot_sent : miss_sent) += 1;
      wall = std::max(wall, cap[i].done_s);
    }
    cap_wall += wall;
  }
  SetLatencies(all, out);
  out->Set("hit_p50_ms", Median(hit) * 1e3, "ms");
  out->Set("miss_p50_ms", Median(miss) * 1e3, "ms");
  // Completed requests per second at the offered rate: it stays at the
  // offered rate until the server can no longer keep up.
  out->Set("throughput_qps", static_cast<double>(all.size()) / open_wall,
           "1/s");
  out->Set("capacity_qps",
           static_cast<double>(kWindows * cap_window) / cap_wall, "1/s");
  std::printf("open loop: %zu windows x %zu requests at %.0f/s offered, one "
              "in %zu never repeated (%zu hit, %zu miss samples); generator "
              "late p99 %.3f ms\n",
              kWindows, per_window, args.offered_qps, kMissEvery, hit.size(),
              miss.size(), NearestRank(late, 0.99) * 1e3);
  PrintSupport("latency (open loop, pooled)", all.size());

  // The hit/miss split above is by construction (pre-warmed hot shapes vs
  // never-repeated ones); the cache's own counters must agree with it.
  const std::uint64_t hits = CounterValue("ceci.cache.hits") - hits_before;
  const std::uint64_t misses =
      CounterValue("ceci.cache.misses") - misses_before;
  if (hits != hot_sent || misses != miss_sent) {
    std::fprintf(stderr,
                 "perfbench: cache counted %llu hits / %llu misses, the mix "
                 "sent %llu / %llu\n",
                 static_cast<unsigned long long>(hits),
                 static_cast<unsigned long long>(misses),
                 static_cast<unsigned long long>(hot_sent),
                 static_cast<unsigned long long>(miss_sent));
    out->correct = false;
  }
}

}  // namespace

void RunTimed(const Args& args, const Inputs& in, Result* out) {
  if (in.spec.kind == WorkloadKind::kServeZipf) {
    RunServe(args, in, out);
    out->Set("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    RunBatch(args, in, out);
  }
}

}  // namespace perfbench
