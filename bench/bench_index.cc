// Index-layout benchmark: pointer (frozen CSR CandidateLists) vs flat
// (arena-backed FlatCeciIndex), the evidence behind docs/index_layout.md.
//
// For QG1-QG5 on the Table-2 dataset analogs each layout is timed over
// `--reps` full matches (single-threaded so the two layouts enumerate the
// same embeddings in the same order) and the best run is kept. Bytes are
// *measured* for both sides: malloc_usable_size over every allocation of
// the frozen pointer index vs the exact flat arena size. One JSON line per
// (dataset, query, layout) goes to --out; scripts/bench_index.sh wraps the
// lines into BENCH_index.json and validates the reduction/latency claims.
//
//   bench_index --out runs.jsonl [--reps 3] [--limit 500000]
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "ceci/ceci_builder.h"
#include "ceci/flat_index.h"
#include "ceci/matcher.h"
#include "ceci/preprocess.h"
#include "ceci/refinement.h"
#include "graph/nlc_index.h"
#include "util/json_writer.h"
#include "util/timer.h"

namespace {

struct LayoutRun {
  double build_seconds = 0;      // BFS build (best rep)
  double refine_seconds = 0;     // reverse-BFS refine (best rep)
  double enumerate_seconds = 0;  // enumeration (best rep)
  double total_seconds = 0;      // whole Match() wall clock (best rep)
  std::uint64_t embeddings = 0;
  std::size_t bytes_measured = 0;  // pointer: heap-measured; flat: exact arena
  std::size_t bytes_estimate = 0;  // pointer payload estimate (ceci_bytes)
  std::size_t candidate_edges = 0;
  std::size_t array_entries = 0;   // flat only
  std::size_t bitmap_entries = 0;  // flat only
};

// The candidate-storage figures per (dataset, query), measured on the
// same refined index. "Mutable" is the index before Freeze() and "CSR"
// after it; the lists are CSR from birth and Freeze() copies nothing, so
// the two now agree (the column kept its name from the vector-per-key
// form it used to measure). "Flat" is the arena. Mutable and CSR are
// malloc_usable_size sums; flat is exact by construction.
struct BytesReport {
  std::size_t mutable_measured = 0;
  std::size_t csr_measured = 0;
  std::size_t flat_exact = 0;
};

BytesReport MeasureBytes(const ceci::Graph& data, const ceci::Graph& query) {
  using namespace ceci;
  NlcIndex nlc(data);
  auto pre = Preprocess(data, nlc, query, PreprocessOptions{});
  BytesReport r;
  if (!pre.ok() || pre->infeasible) return r;
  BuildOptions build_options;
  build_options.verdicts = &pre->verdicts;
  CeciBuilder builder(data, nlc);
  BuildStats bstats;
  CeciIndex index = builder.Build(query, pre->tree, build_options, &bstats);
  RefineStats rstats;
  RefineCeci(pre->tree, data.num_vertices(), &index, &rstats);
  r.mutable_measured = index.MeasuredHeapBytes();
  index.Freeze();
  r.csr_measured = index.MeasuredHeapBytes();
  const FlatCeciIndex flat = FlatCeciIndex::Build(index, pre->tree);
  r.flat_exact = flat.ArenaBytes();
  return r;
}

LayoutRun RunLayout(const ceci::Graph& data, const ceci::Graph& query,
                    bool flat, int reps, std::uint64_t limit) {
  using namespace ceci;
  LayoutRun best;
  best.total_seconds = -1.0;
  for (int rep = 0; rep < reps; ++rep) {
    CeciMatcher matcher(data);
    MatchOptions options;
    options.flat_index = flat;
    options.threads = 1;  // identical enumeration order across layouts
    options.limit = limit;
    std::size_t pointer_measured = 0;
    options.index_inspector = [&](const QueryTree&, const CeciIndex& idx,
                                  bool refined) {
      if (refined) pointer_measured = idx.MeasuredHeapBytes();
    };
    Timer wall;
    auto result = matcher.Match(query, options);
    const double total = wall.Seconds();
    const auto& s = result->stats;
    if (rep == 0 && std::getenv("CECI_BENCH_INDEX_DEBUG") != nullptr) {
      std::fprintf(stderr,
                   "[%s] calls=%llu inter=%llu in=%llu out=%llu emb=%llu "
                   "enum=%.1fms\n",
                   flat ? "flat" : "ptr",
                   (unsigned long long)s.enumeration.recursive_calls,
                   (unsigned long long)s.enumeration.intersections,
                   (unsigned long long)s.enumeration.intersection_elements_in,
                   (unsigned long long)s.enumeration.intersection_elements_out,
                   (unsigned long long)result->embedding_count,
                   s.enumerate_seconds * 1e3);
    }
    if (best.total_seconds < 0 || total < best.total_seconds) {
      best.total_seconds = total;
      best.build_seconds = s.build_seconds;
      best.refine_seconds = s.refine_seconds;
      best.enumerate_seconds = s.enumerate_seconds;
      best.embeddings = result->embedding_count;
      best.bytes_measured = flat ? s.flat_bytes : pointer_measured;
      best.bytes_estimate = s.ceci_bytes;
      best.candidate_edges = s.candidate_edges;
      best.array_entries = s.flat_array_entries;
      best.bitmap_entries = s.flat_bitmap_entries;
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ceci;
  using namespace ceci::bench;
  std::string out;
  int reps = 3;
  std::uint64_t limit = 500000;
  std::string only_dataset, only_query;  // profiling aids, not for BENCH runs
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--limit") == 0 && i + 1 < argc) {
      limit = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--dataset") == 0 && i + 1 < argc) {
      only_dataset = argv[++i];
    } else if (std::strcmp(argv[i], "--query") == 0 && i + 1 < argc) {
      only_query = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_index --out PATH [--reps N] [--limit N] "
                   "[--dataset ABBR] [--query QGn]\n");
      return 2;
    }
  }
  if (out.empty()) {
    std::fprintf(stderr, "bench_index: --out is required\n");
    return 2;
  }
  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_index: cannot open %s\n", out.c_str());
    return 1;
  }

  Banner("Index layout - pointer vs flat arena", "docs/index_layout.md",
         "measured bytes and single-thread latency, per query x dataset");

  const char* datasets[] = {"FS", "LJ", "OK", "WT", "YT"};
  std::printf("%-9s %-5s %12s %12s %12s %8s %8s %12s %12s %8s\n", "dataset",
              "query", "mut bytes", "csr bytes", "flat bytes", "mut x",
              "csr x", "ptr enum", "flat enum", "speedup");
  for (const char* abbr : datasets) {
    if (!only_dataset.empty() && only_dataset != abbr) continue;
    Dataset d = MakeDataset(abbr);
    for (PaperQuery pq : kAllPaperQueries) {
      if (!only_query.empty() && only_query != PaperQueryName(pq)) continue;
      Graph query = MakePaperQuery(pq);
      const BytesReport bytes = MeasureBytes(d.graph, query);
      LayoutRun ptr = RunLayout(d.graph, query, /*flat=*/false, reps, limit);
      LayoutRun flat = RunLayout(d.graph, query, /*flat=*/true, reps, limit);
      if (ptr.embeddings != flat.embeddings) {
        std::fprintf(stderr,
                     "bench_index: layout disagreement on %s/%s: "
                     "pointer found %llu embeddings, flat %llu\n",
                     abbr, PaperQueryName(pq).c_str(),
                     static_cast<unsigned long long>(ptr.embeddings),
                     static_cast<unsigned long long>(flat.embeddings));
        std::fclose(f);
        return 1;
      }
      auto emit = [&](const LayoutRun& run, const char* layout) {
        JsonWriter w;
        w.BeginObject();
        // std::string_view() wrappers: a bare const char* would bind to the
        // bool overload of KV.
        w.KV("bench", std::string_view("index"));
        w.KV("dataset", d.abbr);
        w.KV("query", PaperQueryName(pq));
        w.KV("layout", std::string_view(layout));
        w.KV("embeddings", run.embeddings);
        w.KV("build_seconds", run.build_seconds);
        w.KV("refine_seconds", run.refine_seconds);
        w.KV("enumerate_seconds", run.enumerate_seconds);
        w.KV("total_seconds", run.total_seconds);
        w.KV("bytes_measured", static_cast<std::uint64_t>(run.bytes_measured));
        w.KV("bytes_estimate", static_cast<std::uint64_t>(run.bytes_estimate));
        w.KV("bytes_mutable_measured",
             static_cast<std::uint64_t>(bytes.mutable_measured));
        w.KV("bytes_csr_measured",
             static_cast<std::uint64_t>(bytes.csr_measured));
        w.KV("bytes_flat_exact",
             static_cast<std::uint64_t>(bytes.flat_exact));
        w.KV("candidate_edges",
             static_cast<std::uint64_t>(run.candidate_edges));
        w.KV("array_entries", static_cast<std::uint64_t>(run.array_entries));
        w.KV("bitmap_entries", static_cast<std::uint64_t>(run.bitmap_entries));
        w.EndObject();
        std::fprintf(f, "%s\n", w.str().c_str());
      };
      emit(ptr, "pointer");
      emit(flat, "flat");
      const double flat_div =
          static_cast<double>(std::max<std::size_t>(bytes.flat_exact, 1));
      std::printf("%-9s %-5s %12s %12s %12s %7.2fx %7.2fx %12s %12s %7.2fx\n",
                  abbr, PaperQueryName(pq).c_str(),
                  FmtBytes(bytes.mutable_measured).c_str(),
                  FmtBytes(bytes.csr_measured).c_str(),
                  FmtBytes(bytes.flat_exact).c_str(),
                  static_cast<double>(bytes.mutable_measured) / flat_div,
                  static_cast<double>(bytes.csr_measured) / flat_div,
                  FmtSeconds(ptr.enumerate_seconds).c_str(),
                  FmtSeconds(flat.enumerate_seconds).c_str(),
                  ptr.enumerate_seconds /
                      std::max(flat.enumerate_seconds, 1e-9));
    }
  }
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
