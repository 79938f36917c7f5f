#include "layers.h"

#include <memory>

#include "ceci/ceci_builder.h"
#include "ceci/ceci_index.h"
#include "ceci/flat_index.h"
#include "ceci/preprocess.h"
#include "ceci/refinement.h"
#include "ceci/scheduler.h"
#include "ceci/symmetry.h"
#include "util/thread_pool.h"

namespace perfbench {

LayerSample RunLayers(const ceci::Graph& data, const ceci::NlcIndex& nlc,
                      const ceci::Graph& query,
                      const ceci::MatchOptions& options, SpanLog& log,
                      std::size_t parent, std::int64_t query_id) {
  LayerSample out;
  out.threads = options.threads;
  const std::size_t q = log.Begin("query", parent, query_id);
  const auto finish = [&] {
    log.End(q);
    out.query_s = log.Duration(q);
    return out;
  };

  std::size_t span = log.Begin("preprocess", q, query_id);
  ceci::PreprocessOptions pre_options;
  pre_options.order = options.order;
  auto pre = ceci::Preprocess(data, nlc, query, pre_options);
  ceci::SymmetryConstraints symmetry =
      options.break_automorphisms
          ? ceci::SymmetryConstraints::Compute(query)
          : ceci::SymmetryConstraints::None(query.num_vertices());
  log.End(span);
  out.preprocess_s = log.Duration(span);
  if (!pre.ok()) return finish();
  if (pre->infeasible) {
    out.ok = true;
    return finish();
  }

  span = log.Begin("build", q, query_id);
  std::unique_ptr<ceci::ThreadPool> pool;
  if (options.threads > 1) {
    pool = std::make_unique<ceci::ThreadPool>(options.threads);
  }
  ceci::BuildOptions build_options;
  build_options.pool = pool.get();
  ceci::BuildStats build_stats;
  ceci::CeciIndex index = ceci::CeciBuilder(data, nlc).Build(
      query, pre->tree, build_options, &build_stats);
  log.End(span);
  out.build_s = log.Duration(span);
  out.candidate_edges_built = index.TotalCandidateEdges();
  out.neighbors_scanned = build_stats.neighbors_scanned;

  span = log.Begin("refine", q, query_id);
  ceci::RefineStats refine_stats;
  ceci::RefineCeci(pre->tree, data.num_vertices(), &index, &refine_stats);
  log.End(span);
  out.refine_s = log.Duration(span);

  span = log.Begin("freeze_csr", q, query_id);
  index.Freeze();
  log.End(span);
  out.freeze_csr_s = log.Duration(span);
  out.candidate_edges_refined = index.TotalCandidateEdges();

  span = log.Begin("freeze_flat", q, query_id);
  ceci::FlatCeciIndex flat = ceci::FlatCeciIndex::Build(index, pre->tree);
  log.End(span);
  out.freeze_flat_s = log.Duration(span);
  out.arena_bytes = flat.ArenaBytes();

  ceci::ScheduleOptions schedule;
  schedule.threads = options.threads;
  schedule.distribution = options.distribution;
  schedule.beta = options.beta;
  schedule.limit = options.limit;
  schedule.enumeration.nte_intersection = options.nte_intersection;
  schedule.enumeration.leaf_count_shortcut = options.leaf_count_shortcut;
  schedule.enumeration.symmetry = &symmetry;
  span = log.Begin("enumerate", q, query_id);
  ceci::ScheduleResult sched = ceci::RunParallelEnumeration(
      data, pre->tree, ceci::IndexView(flat), schedule, nullptr);
  log.End(span);
  out.enumerate_s = log.Duration(span);
  out.embeddings = sched.embeddings;
  out.recursive_calls = sched.stats.recursive_calls;
  out.intersections = sched.stats.intersections;
  out.elements_in = sched.stats.intersection_elements_in;
  out.elements_out = sched.stats.intersection_elements_out;
  out.work_units = sched.decomposition.work_units;
  out.worker_busy_s = sched.TotalWork();
  out.ok = true;
  return finish();
}

std::string CompareCounts(const LayerSample& traced,
                          const ceci::MatchResult& untraced) {
  const ceci::MatchStats& s = untraced.stats;
  struct Pair {
    const char* name;
    std::uint64_t traced;
    std::uint64_t untraced;
  };
  const Pair pairs[] = {
      {"embeddings", traced.embeddings, untraced.embedding_count},
      {"build.candidate_edges", traced.candidate_edges_built,
       s.candidate_edges_unrefined},
      {"refine.candidate_edges", traced.candidate_edges_refined,
       s.candidate_edges},
      {"build.neighbors_scanned", traced.neighbors_scanned,
       s.build.neighbors_scanned},
      {"freeze_flat.arena_bytes", traced.arena_bytes, s.flat_bytes},
      {"enumerate.recursive_calls", traced.recursive_calls,
       s.enumeration.recursive_calls},
      {"enumerate.intersections", traced.intersections,
       s.enumeration.intersections},
      {"enumerate.elements_in", traced.elements_in,
       s.enumeration.intersection_elements_in},
      {"enumerate.elements_out", traced.elements_out,
       s.enumeration.intersection_elements_out},
      {"schedule.work_units", traced.work_units, s.decomposition.work_units},
  };
  for (const Pair& p : pairs) {
    if (p.traced != p.untraced) {
      return std::string(p.name) + " traced " + std::to_string(p.traced) +
             " vs Match() " + std::to_string(p.untraced);
    }
  }
  return "";
}

}  // namespace perfbench
