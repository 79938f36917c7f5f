// ceci_perfbench: the end-to-end benchmark program (perfbench/README.md).
//
//   ceci_perfbench --workload first1k|full-enum|serve-zipf --seed N
//                  --seconds S --trace 0|1 [--offered-qps Q] [--data-dir D]
//                  [--prepare 1]
//
// With --prepare 1 it only draws the inputs and computes their oracle
// answers (cached in the data directory) and exits. Otherwise it loads the
// prepared inputs, prints host facts and per-phase notes, then, as its last
// line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--prepare") {
      args->prepare = value == "1";
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--offered-qps") {
      args->offered_qps = std::strtod(value.c_str(), &end);
    } else if (flag == "--data-dir") {
      args->data_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0 &&
         args->offered_qps > 0.0;
}

int Run(const Args& args) {
  const HostFacts facts = CollectHostFacts();
  std::printf("host: nproc=%u cpu=\"%s\" simd=%s build=%s\n", facts.nproc,
              facts.cpu_model.c_str(), facts.simd.c_str(),
              facts.build_type.c_str());
  const std::string refusal = RefusalReason(facts);
  if (!refusal.empty()) {
    std::fprintf(stderr, "perfbench: refusing to report numbers: %s\n",
                 refusal.c_str());
    return 2;
  }
  auto spec = LookupWorkload(args.workload);
  if (!spec.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", spec.status().ToString().c_str());
    return 2;
  }
  if (args.prepare) {
    ::mkdir(args.data_dir.c_str(), 0755);
    const ceci::Status st = PrepareInputs(args, *spec);
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: preparing inputs: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    return 0;
  }
  auto inputs = LoadInputs(args, *spec);
  if (!inputs.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 inputs.status().ToString().c_str());
    return 1;
  }
  // peak_rss_mb covers the run from here on, not the loading above.
  ResetPeakRss();
  std::printf("workload %s seed %llu: %zu queries, %zu never-repeated\n",
              spec->name.c_str(), static_cast<unsigned long long>(args.seed),
              inputs->ops.size(), inputs->misses.size());

  Result result;
  if (args.trace) {
    RunTraced(args, *inputs, &result);
  } else {
    RunTimed(args, *inputs, &result);
  }
  std::printf("%s\n", ResultJson(result).c_str());
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload first1k|full-enum|serve-zipf --seed N "
                 "--seconds S --trace 0|1 [--offered-qps Q] [--data-dir D] "
                 "[--prepare 1]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
