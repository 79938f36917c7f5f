// The traced run: per-layer numbers, measured separately from the timed
// run. Every workload's queries go through the decomposed pipeline
// (layers.h), an in-process QueryService, and the loopback wire, so every
// layer is measured on every workload; which end-to-end metric each layer
// should move is tabulated in perfbench/README.md.
#include <cstdio>
#include <functional>
#include <future>
#include <thread>

#include "bench.h"
#include "graph/nlc_index.h"
#include "graphio/edge_list.h"
#include "layers.h"
#include "loopback.h"
#include "serve/protocol.h"
#include "util/metrics_registry.h"

namespace perfbench {
namespace {

constexpr std::size_t kTracedSetupReps = 3;

// Slots over an in-process QueryService: Send() submits, Wait() polls the
// slots' futures. Responses are kept by request index.
class ServiceTransport final : public Transport {
 public:
  ServiceTransport(ceci::QueryService& service, std::size_t slots,
                   std::function<ceci::ServeRequest(std::size_t)> request)
      : service_(service),
        request_(std::move(request)),
        futures_(slots),
        in_flight_(slots) {}

  std::size_t slots() const override { return futures_.size(); }

  bool Send(std::size_t slot, std::size_t request) override {
    futures_[slot] = service_.Submit(request_(request));
    in_flight_[slot] = request;
    return true;
  }

  bool Wait(double timeout_s, std::vector<Completion>* done) override {
    const Clock::time_point until =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(timeout_s));
    for (;;) {
      for (std::size_t s = 0; s < futures_.size(); ++s) {
        if (!futures_[s].valid() ||
            futures_[s].wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready) {
          continue;
        }
        const std::size_t i = in_flight_[s];
        if (responses_.size() <= i) responses_.resize(i + 1);
        responses_[i] = futures_[s].get();
        done->push_back(Completion{s, i, ""});
      }
      if (!done->empty() || Clock::now() >= until) return true;
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }

  const ceci::ServeResponse& response(std::size_t i) const {
    return responses_[i];
  }

 private:
  ceci::QueryService& service_;
  std::function<ceci::ServeRequest(std::size_t)> request_;
  std::vector<std::future<ceci::ServeResponse>> futures_;
  std::vector<std::size_t> in_flight_;
  std::vector<ceci::ServeResponse> responses_;
};

double Us(double seconds) { return seconds * 1e6; }

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// The queries the layer decomposition runs: the batch cycle, or for
// serve-zipf the hot shapes plus as many never-repeated ones.
std::vector<const Query*> LayerQueries(const Inputs& in) {
  std::vector<const Query*> out;
  for (const Query& q : in.ops) out.push_back(&q);
  if (in.spec.kind == WorkloadKind::kServeZipf) {
    for (std::size_t i = 0; i < in.misses.size() && i < kHotShapes; ++i) {
      out.push_back(&in.misses[i]);
    }
  }
  return out;
}

}  // namespace

void RunTraced(const Args& args, const Inputs& in, Result* out) {
  const WorkloadSpec& spec = in.spec;
  SpanLog log;

  // --- Set-up layers: edge-list load and NLC index, median of reps.
  std::vector<double> load_s;
  std::vector<double> nlc_s;
  std::unique_ptr<ceci::Graph> graph;
  for (std::size_t rep = 0; rep < kTracedSetupReps; ++rep) {
    const std::size_t setup = log.Begin("setup", SpanLog::kNoParent, -1);
    std::size_t span = log.Begin("graphio.load", setup, -1);
    auto loaded = ceci::ReadLabeledGraph(in.data_path);
    log.End(span);
    load_s.push_back(log.Duration(span));
    if (!loaded.ok()) {
      out->correct = false;
      return;
    }
    graph = std::make_unique<ceci::Graph>(std::move(loaded).value());
    span = log.Begin("graph.nlc", setup, -1);
    { ceci::NlcIndex nlc(*graph); }
    log.End(span);
    nlc_s.push_back(log.Duration(span));
    log.End(setup);
  }
  out->Set("graphio.load_ms", Median(load_s) * 1e3, "ms");
  out->Set("graph.nlc_ms", Median(nlc_s) * 1e3, "ms");
  const ceci::Graph& data = *graph;
  const ceci::NlcIndex nlc(data);
  const ceci::CeciMatcher matcher(data);

  // --- Matching layers: each query untraced through Match(), then
  // through the decomposed pipeline; answers and counts must agree.
  ceci::MatchOptions options;
  options.threads = spec.threads;
  options.limit = spec.limit;
  std::vector<double> pre, build, refine, freeze_csr, freeze_flat, enumerate;
  std::vector<double> unattributed;
  double traced_total = 0.0, untraced_total = 0.0;
  double enumerate_total = 0.0, busy_total = 0.0, capacity_total = 0.0;
  std::uint64_t built_edges = 0, refined_edges = 0, scanned = 0, arena = 0;
  std::uint64_t calls = 0, intersections = 0, elements_in = 0,
                elements_out = 0, units = 0;
  const std::vector<const Query*> queries = LayerQueries(in);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Query& q = *queries[i];
    const Clock::time_point t0 = Clock::now();
    auto untraced = matcher.Match(q.graph, options);
    const double match_s = SecondsBetween(t0, Clock::now());
    const LayerSample s =
        RunLayers(data, nlc, q.graph, options, log, SpanLog::kNoParent,
                  static_cast<std::int64_t>(i));
    const bool answer_ok =
        untraced.ok() && s.ok &&
        AnswerMatches(q.expected, spec.limit, untraced->embedding_count,
                      ceci::TerminationReasonName(untraced->termination));
    const std::string mismatch =
        untraced.ok() ? CompareCounts(s, *untraced) : "Match() failed";
    if (!mismatch.empty()) {
      std::fprintf(stderr, "perfbench: query %zu: %s\n", i, mismatch.c_str());
    }
    out->Op(answer_ok && mismatch.empty());
    pre.push_back(s.preprocess_s);
    build.push_back(s.build_s);
    refine.push_back(s.refine_s);
    freeze_csr.push_back(s.freeze_csr_s);
    freeze_flat.push_back(s.freeze_flat_s);
    enumerate.push_back(s.enumerate_s);
    unattributed.push_back(match_s - s.LayerSum());
    traced_total += s.query_s;
    untraced_total += match_s;
    enumerate_total += s.enumerate_s;
    busy_total += s.worker_busy_s;
    capacity_total += static_cast<double>(s.threads) * s.enumerate_s;
    built_edges += s.candidate_edges_built;
    refined_edges += s.candidate_edges_refined;
    scanned += s.neighbors_scanned;
    arena += s.arena_bytes;
    calls += s.recursive_calls;
    intersections += s.intersections;
    elements_in += s.elements_in;
    elements_out += s.elements_out;
    units += s.work_units;
  }
  out->Set("preprocess.p50_us", Us(Median(pre)), "us");
  out->Set("build.p50_us", Us(Median(build)), "us");
  out->Set("build.candidate_edges", static_cast<double>(built_edges), "count");
  out->Set("build.neighbors_scanned", static_cast<double>(scanned), "count");
  out->Set("refine.p50_us", Us(Median(refine)), "us");
  out->Set("refine.kept_ratio",
           Ratio(static_cast<double>(refined_edges),
                 static_cast<double>(built_edges)),
           "ratio");
  out->Set("freeze_csr.p50_us", Us(Median(freeze_csr)), "us");
  out->Set("freeze_flat.p50_us", Us(Median(freeze_flat)), "us");
  out->Set("freeze_flat.arena_bytes", static_cast<double>(arena), "bytes");
  out->Set("enumerate.p50_us", Us(Median(enumerate)), "us");
  out->Set("enumerate.recursive_calls", static_cast<double>(calls), "count");
  out->Set("enumerate.intersections", static_cast<double>(intersections),
           "count");
  out->Set("enumerate.elements_in", static_cast<double>(elements_in), "count");
  out->Set("enumerate.ns_per_element",
           Ratio(enumerate_total * 1e9, static_cast<double>(elements_in)),
           "ns");
  out->Set("enumerate.yield",
           Ratio(static_cast<double>(elements_out),
                 static_cast<double>(elements_in)),
           "ratio");
  out->Set("schedule.busy_ratio", Ratio(busy_total, capacity_total), "ratio");
  out->Set("schedule.work_units", static_cast<double>(units), "count");
  out->Set("match.unattributed_p50_us", Us(Median(unattributed)), "us");
  out->Set("trace.overhead_pct",
           Ratio(traced_total - untraced_total, untraced_total) * 100.0, "%");
  {
    const double sum = [&] {
      double t = 0.0;
      for (auto* v : {&pre, &build, &refine, &freeze_csr, &freeze_flat,
                      &enumerate}) {
        for (double x : *v) t += x;
      }
      return t;
    }();
    auto share = [&](const std::vector<double>& v) {
      double t = 0.0;
      for (double x : v) t += x;
      return Ratio(t, sum) * 100.0;
    };
    std::printf("layer split over %zu queries: preprocess %.1f%%, build "
                "%.1f%%, refine %.1f%%, freeze_csr %.1f%%, freeze_flat "
                "%.1f%%, enumerate %.1f%%\n",
                queries.size(), share(pre), share(build), share(refine),
                share(freeze_csr), share(freeze_flat), share(enumerate));
  }

  // --- Serving layers, in process: pre-warm, then the workload's traffic
  // through QueryService::Submit.
  ceci::QueryService service(data, ServiceOptionsFor(spec));
  {
    const std::size_t span =
        log.Begin("serve.prewarm", SpanLog::kNoParent, -1);
    for (const Query& q : in.ops) {
      ceci::ServeRequest request;
      request.pattern = q.pattern;
      request.limit = spec.limit;
      const ceci::ServeResponse r = service.Execute(std::move(request));
      out->Op(r.status.ok() &&
              AnswerMatches(q.expected, spec.limit, r.embeddings,
                            ceci::TerminationReasonName(r.termination)));
    }
    log.End(span);
    out->Set("serve.prewarm_ms", log.Duration(span) * 1e3, "ms");
  }
  std::vector<double> queue_s, exec_s, late_s;
  std::uint64_t served = 0, hits = 0;
  const auto check = [&](const Query& q, const ceci::ServeResponse& r,
                         bool expect_hit) {
    ++served;
    hits += r.cache_hit ? 1 : 0;
    queue_s.push_back(r.queue_seconds);
    exec_s.push_back(r.match_seconds);
    out->Op(r.status.ok() && r.cache_hit == expect_hit &&
            AnswerMatches(q.expected, spec.limit, r.embeddings,
                          ceci::TerminationReasonName(r.termination)));
  };
  if (spec.kind == WorkloadKind::kServeZipf) {
    // Open loop at the offered rate; a request's cache outcome must match
    // the class the timed run attributes it to.
    const std::size_t n = std::min(TracedServeRequests(args), in.plan.size());
    ServiceTransport transport(service, kServeConnections, [&](std::size_t i) {
      ceci::ServeRequest request;
      request.pattern = in.Request(i).pattern;
      request.limit = spec.limit;
      return request;
    });
    const std::vector<RequestTiming> timings =
        RunOpenLoop(transport, n, args.offered_qps);
    if (timings.size() != n) out->correct = false;
    for (std::size_t i = 0; i < timings.size(); ++i) {
      late_s.push_back(timings[i].LateSeconds());
      check(in.Request(i), transport.response(i), in.plan[i] >= 0);
    }
  } else {
    // Closed loop, one client; the generator's lateness is its gap
    // between one answer and the next request.
    Clock::time_point last = Clock::now();
    for (const Query& q : in.ops) {
      late_s.push_back(SecondsBetween(last, Clock::now()));
      ceci::ServeRequest request;
      request.pattern = q.pattern;
      request.limit = spec.limit;
      check(q, service.Execute(std::move(request)), true);
      last = Clock::now();
    }
  }
  out->Set("serve.queue_p99_us", Us(NearestRank(queue_s, 0.99)), "us");
  out->Set("serve.exec_p50_us", Us(Median(exec_s)), "us");
  out->Set("loadgen.late_p99_ms", NearestRank(late_s, 0.99) * 1e3, "ms");
  out->Set("cache.hit_ratio",
           Ratio(static_cast<double>(hits), static_cast<double>(served)),
           "ratio");
  out->Set("cache.entries",
           static_cast<double>(ceci::MetricsRegistry::Global()
                                   .GetGauge("ceci.cache.entries")
                                   .Value()),
           "count");

  // --- Wire: loopback round trip minus the service time the server
  // reports, one connection, over the workload's cached queries.
  {
    ceci::TcpServer server(service, ceci::TcpServerOptions{});
    if (!server.Start().ok()) {
      out->correct = false;
      return;
    }
    LoopbackTransport transport(server.port(), 1, [&](std::size_t i) {
      return RequestLine(in.ops[i % in.ops.size()], spec.limit);
    });
    // Full enumerations are long; one pass over them is enough samples.
    const std::size_t n =
        spec.limit == 0 ? in.ops.size()
                        : std::max<std::size_t>(in.ops.size(), 256);
    const std::size_t wire_span =
        log.Begin("serve.wire", SpanLog::kNoParent, -1);
    const std::vector<RequestTiming> timings =
        transport.ok() ? RunClosedLoop(transport, n)
                       : std::vector<RequestTiming>{};
    log.End(wire_span);
    std::vector<double> wire_s;
    for (std::size_t i = 0; i < timings.size(); ++i) {
      const Query& q = in.ops[i % in.ops.size()];
      auto parsed = ceci::ParseResponseLine(timings[i].response);
      const bool ok = parsed.ok() &&
                      parsed->kind == ceci::WireResponse::Kind::kOk &&
                      AnswerMatches(q.expected, spec.limit, parsed->embeddings,
                                    parsed->termination);
      out->Op(ok);
      if (ok) {
        wire_s.push_back(timings[i].LatencySeconds() -
                         static_cast<double>(parsed->total_us) * 1e-6);
      }
    }
    if (timings.size() != n) out->correct = false;
    out->Set("serve.wire_p50_us", Us(Median(wire_s)), "us");
    server.Stop();
  }
  service.Shutdown();

  const std::string path = args.data_dir + "/trace-" + spec.name + "-seed" +
                           std::to_string(args.seed) + ".jsonl";
  if (log.Write(path)) {
    std::printf("spans: %zu written to %s\n", log.spans().size(),
                path.c_str());
  } else {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
}

}  // namespace perfbench
