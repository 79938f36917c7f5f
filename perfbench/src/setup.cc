#include <algorithm>
#include <cstdio>
#include <fstream>
#include <random>

#include "bench.h"
#include "graphio/edge_list.h"
#include "graphio/pattern_parser.h"
#include "serve/workload.h"

namespace perfbench {

std::size_t OpenLoopRequests(const Args& args) {
  return static_cast<std::size_t>(args.offered_qps * 0.85 * args.seconds);
}

std::size_t CapacityRequests(const Args& args) {
  return static_cast<std::size_t>(args.offered_qps * 0.3 * args.seconds);
}

std::size_t TracedServeRequests(const Args& args) {
  return static_cast<std::size_t>(args.offered_qps * 0.2 * args.seconds);
}

ceci::ServiceOptions ServiceOptionsFor(const WorkloadSpec& spec) {
  ceci::ServiceOptions options;
  // Multi-threaded workloads get a shared pool sized to their per-query
  // threads; single-threaded ones enumerate on the runner thread alone.
  options.pool_threads = spec.threads > 1 ? spec.threads : 0;
  options.threads_per_query = spec.threads;
  options.limits.max_concurrent = kServeRunners;
  // Deep enough that the benchmark's offered load is never shed: a
  // rejection would count as a failed op.
  options.limits.max_queue = 1 << 16;
  options.cache_indexes = true;
  return options;
}

std::size_t ServeRequests(const Args& args) {
  return args.trace ? TracedServeRequests(args)
                    : OpenLoopRequests(args) + CapacityRequests(args);
}

namespace {

// serve-zipf's request sequence: per request a hot rank (>= 0), or -(k+1)
// for the k-th never-repeated shape, which is every kMissEvery-th request.
std::vector<std::int64_t> ServePlan(std::uint64_t seed, std::size_t count) {
  std::mt19937_64 rng(seed * 2654435761ULL + 4);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  const ceci::ZipfSampler zipf(kHotShapes, 1.0);
  std::vector<std::int64_t> plan;
  std::int64_t misses = 0;
  plan.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (i % kMissEvery == kMissEvery - 1) {
      plan.push_back(-(++misses));
    } else {
      plan.push_back(static_cast<std::int64_t>(zipf.Sample(uniform(rng))));
    }
  }
  return plan;
}

std::string InputsPath(const Args& args, const WorkloadSpec& spec) {
  std::string path = args.data_dir + "/inputs-" + spec.name + "-seed" +
                     std::to_string(args.seed);
  if (spec.kind == WorkloadKind::kServeZipf) {
    path += "-r" + std::to_string(ServeRequests(args));
  }
  return path + ".tsv";
}

// Draws the workload's queries and computes their oracle answers.
ceci::Result<Inputs> DrawInputs(const Args& args, const WorkloadSpec& spec,
                                const ceci::Graph& data) {
  Inputs in;
  in.spec = spec;
  std::vector<std::string> keys;
  switch (spec.kind) {
    case WorkloadKind::kFullEnum: {
      // The paper's five queries in a fixed cycle; the seed picks where
      // the cycle starts.
      std::vector<Query> qg = PaperQueries();
      std::rotate(qg.begin(), qg.begin() + args.seed % qg.size(), qg.end());
      in.ops = std::move(qg);
      ceci::Status st = FillOracle(data, spec.limit, spec.threads, &in.ops);
      if (!st.ok()) return st;
      return in;
    }
    case WorkloadKind::kFirst1k: {
      auto ops = FullPageQueries(data, args.seed, 1, kFirst1kQueries,
                                 spec.limit, &keys);
      if (!ops.ok()) return ops.status();
      in.ops = std::move(ops).value();
      return in;
    }
    case WorkloadKind::kServeZipf:
      break;
  }
  // serve-zipf. The hot shapes are the same every run (a fixed seed), so
  // the cached hit path is always measured on one shape set; the seed
  // varies the request order and every never-repeated shape.
  auto hot = FullPageQueries(data, 0, 2, kHotShapes, spec.limit, &keys);
  if (!hot.ok()) return hot.status();
  in.ops = std::move(hot).value();
  auto fresh = FullPageQueries(data, args.seed, 3,
                               ServeRequests(args) / kMissEvery, spec.limit,
                               &keys);
  if (!fresh.ok()) return fresh.status();
  in.misses = std::move(fresh).value();
  return in;
}

}  // namespace

ceci::Status PrepareInputs(const Args& args, const WorkloadSpec& spec) {
  const std::string path = InputsPath(args, spec);
  if (std::ifstream(path).good()) return ceci::Status::Ok();
  auto data_path = EnsureDataFile(spec, args.data_dir);
  if (!data_path.ok()) return data_path.status();
  auto data = ceci::ReadLabeledGraph(*data_path);
  if (!data.ok()) return data.status();
  auto in = DrawInputs(args, spec, *data);
  if (!in.ok()) return in.status();
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp);
  for (const Query& q : in->ops) {
    out << "op\t" << q.expected << '\t' << q.pattern << '\n';
  }
  for (const Query& q : in->misses) {
    out << "miss\t" << q.expected << '\t' << q.pattern << '\n';
  }
  out.close();
  if (!out || std::rename(tmp.c_str(), path.c_str()) != 0) {
    return ceci::Status::IoError("cannot write " + path);
  }
  return ceci::Status::Ok();
}

ceci::Result<Inputs> LoadInputs(const Args& args, const WorkloadSpec& spec) {
  Inputs in;
  in.spec = spec;
  in.data_path = DataFilePath(spec, args.data_dir);
  const std::string path = InputsPath(args, spec);
  std::ifstream file(path);
  if (!file.good() || !std::ifstream(in.data_path).good()) {
    return ceci::Status::NotFound("inputs not prepared: " + path);
  }
  std::string line;
  while (std::getline(file, line)) {
    const auto tab1 = line.find('\t');
    const auto tab2 = line.find('\t', tab1 + 1);
    if (tab1 == std::string::npos || tab2 == std::string::npos) {
      return ceci::Status::InvalidArgument("malformed line in " + path);
    }
    Query q;
    q.pattern = line.substr(tab2 + 1);
    q.expected = std::stoull(line.substr(tab1 + 1, tab2 - tab1 - 1));
    auto parsed = ceci::ParsePattern(q.pattern);
    if (!parsed.ok()) return parsed.status();
    q.graph = std::move(parsed).value();
    (line.compare(0, tab1, "miss") == 0 ? in.misses : in.ops)
        .push_back(std::move(q));
  }
  if (spec.kind == WorkloadKind::kServeZipf) {
    in.plan = ServePlan(args.seed, ServeRequests(args));
    if (in.misses.size() < in.plan.size() / kMissEvery) {
      return ceci::Status::InvalidArgument("too few never-repeated shapes in " +
                                           path);
    }
  }
  return in;
}

const Query& Inputs::Request(std::size_t i) const {
  const std::int64_t p = plan[i];
  return p >= 0 ? ops[static_cast<std::size_t>(p)]
                : misses[static_cast<std::size_t>(-p - 1)];
}

ceci::Result<Env> SetUp(const Inputs& in, double* seconds) {
  const Clock::time_point start = Clock::now();
  Env env;
  auto graph = ceci::ReadLabeledGraph(in.data_path);
  if (!graph.ok()) return graph.status();
  env.graph = std::make_unique<ceci::Graph>(std::move(graph).value());
  if (in.spec.kind != WorkloadKind::kServeZipf) {
    env.matcher = std::make_unique<ceci::CeciMatcher>(*env.graph);
    *seconds = SecondsBetween(start, Clock::now());
    return env;
  }
  env.service = std::make_unique<ceci::QueryService>(
      *env.graph, ServiceOptionsFor(in.spec));
  env.server = std::make_unique<ceci::TcpServer>(*env.service,
                                                 ceci::TcpServerOptions{});
  ceci::Status st = env.server->Start();
  if (!st.ok()) return st;
  for (const Query& q : in.ops) {
    ceci::ServeRequest request;
    request.pattern = q.pattern;
    request.limit = in.spec.limit;
    const ceci::ServeResponse r = env.service->Execute(std::move(request));
    if (!r.status.ok() ||
        !AnswerMatches(q.expected, in.spec.limit, r.embeddings,
                       ceci::TerminationReasonName(r.termination))) {
      return ceci::Status::InvalidArgument("pre-warm answer for " + q.pattern +
                                           " disagrees with the oracle");
    }
  }
  *seconds = SecondsBetween(start, Clock::now());
  return env;
}

bool AnswerMatches(std::uint64_t expected, std::uint64_t limit,
                   std::uint64_t embeddings, const std::string& termination) {
  if (embeddings != expected) return false;
  // A query with exactly `limit` embeddings may finish either way.
  if (limit > 0 && expected == limit) {
    return termination == "limit" || termination == "completed";
  }
  return termination == "completed";
}

std::string RequestLine(const Query& q, std::uint64_t limit) {
  return "MATCHX limit=" + std::to_string(limit) + " " + q.pattern;
}

}  // namespace perfbench
