// Ablation: candidate-list storage layout and index reuse (extensions).
//
// Part 1 — frozen (CSR-flat) vs mutable (vector-per-key) candidate lists
// during enumeration: the flat layout removes one indirection per Find.
// Part 2 — amortizing construction: CachedMatcher / on-disk index images
// versus rebuilding per query (the §6.4 reuse scenario).
#include <cstdio>

#include "bench/bench_common.h"
#include "ceci/cached_matcher.h"
#include "ceci/ceci_builder.h"
#include "ceci/preprocess.h"
#include "ceci/refinement.h"
#include "ceci/scheduler.h"
#include "util/timer.h"

int main() {
  using namespace ceci;
  using namespace ceci::bench;
  Banner("Ablation - storage layout and index reuse", "extensions",
         "frozen vs mutable lists; cached vs rebuilt indexes (on OK)");

  Dataset d = MakeDataset("OK");
  NlcIndex nlc(d.graph);

  std::printf("-- frozen vs mutable candidate lists (enumeration only)\n");
  std::printf("%-4s %12s %12s %9s\n", "QG", "mutable", "frozen", "gain");
  for (PaperQuery pq : kAllPaperQueries) {
    Graph query = MakePaperQuery(pq);
    auto pre = Preprocess(d.graph, nlc, query, PreprocessOptions{});
    BuildOptions build_options;
    build_options.verdicts = &pre->verdicts;
    CeciBuilder builder(d.graph, nlc);
    CeciIndex mutable_index =
        builder.Build(query, pre->tree, build_options, nullptr);
    RefineCeci(pre->tree, d.graph.num_vertices(), &mutable_index, nullptr);
    SymmetryConstraints symmetry = SymmetryConstraints::Compute(query);
    ScheduleOptions options;
    options.enumeration.symmetry = &symmetry;

    Timer t;
    auto slow = RunParallelEnumeration(d.graph, pre->tree, mutable_index,
                                       options, nullptr);
    double mutable_s = t.Seconds();

    mutable_index.Freeze();
    t.Reset();
    auto fast = RunParallelEnumeration(d.graph, pre->tree, mutable_index,
                                       options, nullptr);
    double frozen_s = t.Seconds();
    if (slow.embeddings != fast.embeddings) {
      std::printf("COUNT MISMATCH on %s\n", PaperQueryName(pq).c_str());
      return 1;
    }
    std::printf("%-4s %12s %12s %+8.1f%%\n", PaperQueryName(pq).c_str(),
                FmtSeconds(mutable_s).c_str(), FmtSeconds(frozen_s).c_str(),
                100.0 * (mutable_s - frozen_s) / mutable_s);
    std::fflush(stdout);
  }

  std::printf("\n-- rebuild vs cached index, 8 repeats of QG3\n");
  Graph query = MakePaperQuery(PaperQuery::kQG3);
  constexpr int kRepeats = 8;
  CeciMatcher plain(d.graph);
  Timer t;
  std::uint64_t count_plain = 0;
  for (int i = 0; i < kRepeats; ++i) {
    count_plain = plain.Match(query, MatchOptions{})->embedding_count;
  }
  double rebuild_s = t.Seconds();

  CachedMatcher cached(d.graph);
  t.Reset();
  std::uint64_t count_cached = 0;
  for (int i = 0; i < kRepeats; ++i) {
    count_cached = cached.Match(query, MatchOptions{})->embedding_count;
  }
  double cached_s = t.Seconds();
  if (count_plain != count_cached) {
    std::printf("COUNT MISMATCH in reuse comparison\n");
    return 1;
  }
  std::printf("rebuild: %s   cached: %s   speedup: %.2fx "
              "(%llu embeddings/run)\n",
              FmtSeconds(rebuild_s / kRepeats).c_str(),
              FmtSeconds(cached_s / kRepeats).c_str(), rebuild_s / cached_s,
              static_cast<unsigned long long>(count_plain));
  return 0;
}
