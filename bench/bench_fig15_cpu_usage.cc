// Figure 15: CPU utilization over the lifetime of a query (§6.5).
//
// The paper's curve: low utilization through loading/preprocessing,
// slightly higher during (partially serialized) CECI creation, then ~100%
// on every core during enumeration, which is >95% of total runtime.
// Reproduced here as per-phase utilization = parallel work / (workers x
// phase time) from per-worker CPU accounting.
#include <cstdio>

#include "bench/bench_common.h"
#include "ceci/matcher.h"

int main() {
  using namespace ceci;
  using namespace ceci::bench;
  Banner("Figure 15 - per-phase CPU utilization", "Fig. 15",
         "QG1/QG3/QG5 on OK, 8 workers");

  Dataset d = MakeDataset("OK");
  CeciMatcher matcher(d.graph);
  constexpr std::size_t kThreads = 8;

  std::printf("%-4s %11s %11s %11s %11s %10s %10s\n", "QG", "preprocess",
              "build", "refine", "enumerate", "enum-util", "enum-share");
  for (PaperQuery pq :
       {PaperQuery::kQG1, PaperQuery::kQG3, PaperQuery::kQG5}) {
    MatchOptions options;
    options.threads = kThreads;
    options.distribution = Distribution::kFineDynamic;
    auto result = matcher.Match(MakePaperQuery(pq), options);
    const MatchStats& s = result->stats;
    double work = 0.0;
    double makespan = 0.0;
    for (double w : s.worker_seconds) {
      work += w;
      makespan = makespan > w ? makespan : w;
    }
    // Utilization a k-core machine would see during enumeration.
    double util = makespan > 0
                      ? 100.0 * work / (kThreads * makespan)
                      : 0.0;
    double sim_total = s.preprocess_seconds + s.build_seconds +
                       s.refine_seconds + s.freeze_seconds + makespan;
    double share = sim_total > 0 ? 100.0 * makespan / sim_total : 0.0;
    std::printf("%-4s %11s %11s %11s %11s %9.1f%% %9.1f%%\n",
                PaperQueryName(pq).c_str(),
                FmtSeconds(s.preprocess_seconds).c_str(),
                FmtSeconds(s.build_seconds).c_str(),
                FmtSeconds(s.refine_seconds).c_str(),
                FmtSeconds(makespan).c_str(), util, share);
    std::fflush(stdout);
  }
  std::printf(
      "(preprocess/build/refine run at ~1/%zu utilization: serialized)\n",
      kThreads);
  return 0;
}
