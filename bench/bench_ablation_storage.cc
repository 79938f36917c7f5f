// Ablation: index reuse (extension). Amortizing construction:
// CachedMatcher / on-disk index images versus rebuilding per query (the
// §6.4 reuse scenario). The candidate lists have one CSR layout from
// birth, so there is no list-layout comparison left to run.
#include <cstdio>

#include "bench/bench_common.h"
#include "ceci/cached_matcher.h"
#include "util/timer.h"

int main() {
  using namespace ceci;
  using namespace ceci::bench;
  Banner("Ablation - index reuse", "extension",
         "cached vs rebuilt indexes (on OK)");

  Dataset d = MakeDataset("OK");

  std::printf("-- rebuild vs cached index, 8 repeats of QG3\n");
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
