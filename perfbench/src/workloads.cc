#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <random>
#include <thread>

#include "baselines/quicksi.h"
#include "ceci/cached_matcher.h"
#include "ceci/matcher.h"
#include "ceci/symmetry.h"
#include "gen/labels.h"
#include "gen/paper_queries.h"
#include "gen/query_gen.h"
#include "gen/random_graphs.h"
#include "graphio/edge_list.h"
#include "graphio/pattern_parser.h"

namespace perfbench {

ceci::Result<WorkloadSpec> LookupWorkload(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "first1k") {
    spec.kind = WorkloadKind::kFirst1k;
    spec.threads = 1;
    spec.limit = 1024;
  } else if (name == "full-enum") {
    spec.kind = WorkloadKind::kFullEnum;
    spec.threads = 2;
    spec.limit = 0;
  } else if (name == "serve-zipf") {
    spec.kind = WorkloadKind::kServeZipf;
    spec.threads = 1;
    spec.limit = 1024;
  } else {
    return ceci::Status::InvalidArgument("unknown workload '" + name + "'");
  }
  return spec;
}

ceci::Graph DataGraph(WorkloadKind kind) {
  if (kind == WorkloadKind::kFullEnum) {
    return ceci::GenerateSocialGraph(12000, 16, 105);
  }
  return ceci::AssignRandomLabels(ceci::GenerateSocialGraph(50000, 10, 104),
                                  8, 1004);
}

std::string DataFilePath(const WorkloadSpec& spec,
                         const std::string& data_dir) {
  return data_dir + "/" +
         (spec.kind == WorkloadKind::kFullEnum ? "ok12k" : "social50k") +
         ".txt";
}

ceci::Result<std::string> EnsureDataFile(const WorkloadSpec& spec,
                                         const std::string& data_dir) {
  const std::string path = DataFilePath(spec, data_dir);
  if (std::ifstream(path).good()) return path;
  const std::string tmp = path + ".tmp";
  ceci::Status st = ceci::WriteLabeledGraph(DataGraph(spec.kind), tmp);
  if (!st.ok()) return st;
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return ceci::Status::IoError("cannot rename " + tmp);
  }
  return path;
}

namespace {

// Candidate extensions BoundedCount may test while selecting a full-page
// query. Generous for a query that reaches 1,024 embeddings quickly; a
// query that needs more is a near-exhaustive search and is dropped.
constexpr std::uint64_t kSelectionSteps = 2'000'000;

constexpr ceci::VertexId kUnmapped = ~ceci::VertexId{0};

// Runs fn(k) for k in [0, n) on up to hardware_concurrency threads.
template <typename Fn>
void ParallelFor(std::size_t n, std::size_t threads_per_item, Fn fn) {
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t k = next.fetch_add(1); k < n; k = next.fetch_add(1)) {
      fn(k);
    }
  };
  const std::size_t workers = std::min(
      n, std::max<std::size_t>(
             1, std::thread::hardware_concurrency() / threads_per_item));
  std::vector<std::thread> pool;
  for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();
}

// Backtracking behind BoundedCount. Query vertices are placed in a fixed
// order (most constrained first); each one's candidates are the data
// neighbours of its earliest placed query neighbour.
class BoundedSearch {
 public:
  BoundedSearch(const ceci::Graph& data, const ceci::Graph& query,
                std::uint64_t target, std::uint64_t max_steps)
      : data_(data),
        query_(query),
        target_(target),
        max_steps_(max_steps),
        symmetry_(ceci::SymmetryConstraints::Compute(query)),
        map_(query.num_vertices(), kUnmapped),
        used_(data.num_vertices(), false) {
    const std::size_t n = query.num_vertices();
    std::vector<std::size_t> placed_neighbors(n, 0);
    std::vector<bool> placed(n, false);
    for (std::size_t k = 0; k < n; ++k) {
      ceci::VertexId pick = kUnmapped;
      for (ceci::VertexId u = 0; u < n; ++u) {
        if (placed[u]) continue;
        if (pick == kUnmapped ||
            placed_neighbors[u] > placed_neighbors[pick] ||
            (placed_neighbors[u] == placed_neighbors[pick] &&
             query.degree(u) > query.degree(pick))) {
          pick = u;
        }
      }
      ceci::VertexId anchor = kUnmapped;
      for (ceci::VertexId w : query.neighbors(pick)) {
        if (placed[w] && (anchor == kUnmapped || rank_of(w) < rank_of(anchor))) {
          anchor = w;
        }
      }
      order_.push_back(pick);
      anchor_.push_back(anchor);
      placed[pick] = true;
      for (ceci::VertexId w : query.neighbors(pick)) ++placed_neighbors[w];
    }
  }

  std::optional<std::uint64_t> Run() {
    Extend(0);
    if (count_ >= target_) return target_;
    if (steps_ > max_steps_) return std::nullopt;
    return count_;
  }

 private:
  std::size_t rank_of(ceci::VertexId u) const {
    return static_cast<std::size_t>(
        std::find(order_.begin(), order_.end(), u) - order_.begin());
  }

  bool Feasible(ceci::VertexId u, ceci::VertexId v) const {
    if (used_[v] || data_.degree(v) < query_.degree(u) ||
        !data_.HasAllLabels(v, query_.labels(u))) {
      return false;
    }
    for (ceci::VertexId w : query_.neighbors(u)) {
      if (map_[w] != kUnmapped && !data_.HasEdge(v, map_[w])) return false;
    }
    for (ceci::VertexId w : symmetry_.must_be_less(u)) {
      if (map_[w] != kUnmapped && !(map_[w] < v)) return false;
    }
    for (ceci::VertexId w : symmetry_.must_be_greater(u)) {
      if (map_[w] != kUnmapped && !(map_[w] > v)) return false;
    }
    return true;
  }

  // False once the search must stop: target reached or budget spent.
  bool Try(std::size_t k, ceci::VertexId v) {
    if (++steps_ > max_steps_) return false;
    const ceci::VertexId u = order_[k];
    if (!Feasible(u, v)) return true;
    map_[u] = v;
    used_[v] = true;
    const bool go = Extend(k + 1);
    map_[u] = kUnmapped;
    used_[v] = false;
    return go;
  }

  bool Extend(std::size_t k) {
    if (k == order_.size()) return ++count_ < target_;
    if (anchor_[k] == kUnmapped) {
      for (ceci::VertexId v = 0; v < data_.num_vertices(); ++v) {
        if (!Try(k, v)) return false;
      }
    } else {
      for (ceci::VertexId v : data_.neighbors(map_[anchor_[k]])) {
        if (!Try(k, v)) return false;
      }
    }
    return true;
  }

  const ceci::Graph& data_;
  const ceci::Graph& query_;
  const std::uint64_t target_;
  const std::uint64_t max_steps_;
  const ceci::SymmetryConstraints symmetry_;
  std::vector<ceci::VertexId> order_;
  std::vector<ceci::VertexId> anchor_;  // per position: earliest placed neighbour
  std::vector<ceci::VertexId> map_;
  std::vector<bool> used_;
  std::uint64_t count_ = 0;
  std::uint64_t steps_ = 0;
};

std::vector<Query> GenerateDistinctQueries(const ceci::Graph& data,
                                           std::uint64_t seed,
                                           std::uint64_t stream,
                                           std::size_t count,
                                           std::vector<std::string>* keys) {
  std::mt19937_64 rng(seed * 1000003ULL + stream * 7919ULL + 17);
  std::vector<Query> out;
  const ceci::MatchOptions defaults;
  while (out.size() < count) {
    ceci::QueryGenOptions gen;
    gen.num_vertices = 4 + rng() % 7;
    gen.seed = rng();
    auto generated = ceci::GenerateQuery(data, gen);
    if (!generated.has_value()) continue;
    // The service keys its cache on the parsed pattern, so keys and the
    // graphs the matcher sees are both taken after a DSL round trip.
    const std::string pattern = ceci::FormatPattern(*generated);
    auto parsed = ceci::ParsePattern(pattern);
    if (!parsed.ok()) continue;
    const std::string key = ceci::CachedMatcher::QueryKey(*parsed, defaults);
    if (std::find(keys->begin(), keys->end(), key) != keys->end()) continue;
    keys->push_back(key);
    out.push_back(Query{std::move(parsed).value(), pattern, 0});
  }
  return out;
}

}  // namespace

std::optional<std::uint64_t> BoundedCount(const ceci::Graph& data,
                                          const ceci::Graph& query,
                                          std::uint64_t target,
                                          std::uint64_t max_steps) {
  return BoundedSearch(data, query, target, max_steps).Run();
}

ceci::Result<std::vector<Query>> FullPageQueries(
    const ceci::Graph& data, std::uint64_t seed, std::uint64_t stream,
    std::size_t count, std::uint64_t limit, std::vector<std::string>* keys) {
  std::vector<Query> out;
  for (std::uint64_t batch = 0; out.size() < count; ++batch) {
    if (batch == 64) {
      return ceci::Status::InvalidArgument(
          "too few generated queries reach the embedding limit");
    }
    std::vector<Query> drawn = GenerateDistinctQueries(
        data, seed, stream * 1000 + batch, count - out.size(), keys);
    std::vector<char> full(drawn.size(), 0);
    ParallelFor(drawn.size(), 1, [&](std::size_t k) {
      full[k] = BoundedCount(data, drawn[k].graph, limit, kSelectionSteps) ==
                limit;
    });
    std::vector<Query> kept;
    for (std::size_t k = 0; k < drawn.size(); ++k) {
      if (full[k]) kept.push_back(std::move(drawn[k]));
    }
    ceci::Status st = FillOracle(data, limit, 1, &kept);
    if (!st.ok()) return st;
    for (Query& q : kept) {
      if (q.expected != limit) {
        return ceci::Status::InvalidArgument(
            "oracles disagree on " + q.pattern + ": reference search found " +
            std::to_string(limit) + " embeddings, CECI pointer layout " +
            std::to_string(q.expected));
      }
      out.push_back(std::move(q));
    }
  }
  return out;
}

std::vector<Query> PaperQueries() {
  std::vector<Query> out;
  for (ceci::PaperQuery which : ceci::kAllPaperQueries) {
    ceci::Graph g = ceci::MakePaperQuery(which);
    std::string pattern = ceci::FormatPattern(g);
    out.push_back(Query{std::move(g), std::move(pattern), 0});
  }
  return out;
}

ceci::Status FillOracle(const ceci::Graph& data, std::uint64_t limit,
                        std::size_t threads, std::vector<Query>* queries) {
  const ceci::CeciMatcher matcher(data);
  std::mutex error_mutex;
  ceci::Status error;
  ParallelFor(queries->size(), threads, [&](std::size_t k) {
    Query& q = (*queries)[k];
    ceci::MatchOptions options;
    options.flat_index = false;
    options.limit = limit;
    options.threads = threads;
    auto result = matcher.Match(q.graph, options);
    ceci::Status st = result.status();
    if (result.ok()) {
      q.expected = result->embedding_count;
      const bool checked = limit > 0 ? q.expected == limit : q.expected < 1024;
      if (checked) {
        ceci::QuickSiOptions qs;
        qs.limit = limit;
        const auto independent = ceci::QuickSiCount(data, q.graph, qs);
        if (independent.embeddings != q.expected) {
          st = ceci::Status::InvalidArgument(
              "oracles disagree on " + q.pattern + ": CECI pointer layout " +
              std::to_string(q.expected) + " vs QuickSI " +
              std::to_string(independent.embeddings));
        }
      }
    }
    if (!st.ok()) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (error.ok()) error = st;
    }
  });
  return error;
}

}  // namespace perfbench
