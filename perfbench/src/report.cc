#include "report.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/intersection.h"
#include "util/json_writer.h"

namespace perfbench {

double NearestRank(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

std::size_t SamplesBeyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const double rank = std::ceil(q * static_cast<double>(n));
  const std::size_t r = rank < 1.0 ? 1 : static_cast<std::size_t>(rank);
  return n - std::min(r, n);
}

bool PercentileSupported(std::size_t n, double q) {
  return SamplesBeyond(n, q) >= 10;
}

double Median(std::vector<double> values) { return NearestRank(values, 0.5); }

namespace {

std::string ReadCpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

}  // namespace

HostFacts CollectHostFacts() {
  HostFacts facts;
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  facts.nproc = n > 0 ? static_cast<unsigned>(n) : 1;
  facts.cpu_model = ReadCpuModel();
  facts.simd =
      ceci::IntersectionArchName(ceci::ActiveIntersectionArch());
  facts.build_type = PERFBENCH_BUILD_TYPE;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  facts.sanitized = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  facts.sanitized = true;
#endif
#endif
  const char* scalar = std::getenv("CECI_FORCE_SCALAR");
  facts.force_scalar = scalar != nullptr && *scalar != '\0';
  return facts;
}

std::string RefusalReason(const HostFacts& facts) {
  if (facts.build_type != "Release") {
    return "build type is '" + facts.build_type + "', not Release";
  }
#ifndef NDEBUG
  return "assertions are enabled (NDEBUG not defined)";
#endif
  if (facts.sanitized) return "binary is instrumented by a sanitizer";
  if (facts.force_scalar) return "CECI_FORCE_SCALAR is set";
  return "";
}

namespace {

// The CPUs of the process's mask when first asked.
const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

}  // namespace

CpuTurn::CpuTurn() : saved_(sizeof(cpu_set_t)) {
  static std::atomic<std::size_t> turn{0};
  const std::vector<int>& cpus = AllowedCpus();
  if (cpus.size() < 2) return;
  auto* saved = reinterpret_cast<cpu_set_t*>(saved_.data());
  if (sched_getaffinity(0, sizeof(cpu_set_t), saved) != 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[turn.fetch_add(1) % cpus.size()], &one);
  pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
}

CpuTurn::~CpuTurn() {
  if (pinned_) {
    sched_setaffinity(0, sizeof(cpu_set_t),
                      reinterpret_cast<cpu_set_t*>(saved_.data()));
  }
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

void ResetPeakRss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

std::string ResultJson(const Result& result) {
  // JsonWriter prints doubles with limited precision; metric values are
  // formatted here so they keep every digit.
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

SpanLog::SpanLog() : origin_(Clock::now()) {}

std::size_t SpanLog::Begin(const std::string& name, std::size_t parent,
                           std::int64_t query_id) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.query_id = query_id;
  span.start_s = SecondsBetween(origin_, Clock::now());
  span.end_s = span.start_s;
  spans_.push_back(std::move(span));
  children_.emplace_back();
  const std::size_t id = spans_.size() - 1;
  if (parent != kNoParent) children_[parent].push_back(id);
  return id;
}

void SpanLog::End(std::size_t id) {
  spans_[id].end_s = SecondsBetween(origin_, Clock::now());
}

double SpanLog::SelfSeconds(std::size_t id) const {
  double self = Duration(id);
  for (std::size_t child : children_[id]) self -= Duration(child);
  return self;
}

bool SpanLog::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t id = 0; id < spans_.size(); ++id) {
    const Span& s = spans_[id];
    ceci::JsonWriter w;
    w.BeginObject();
    w.KV("id", static_cast<std::uint64_t>(id));
    w.KV("name", s.name);
    if (s.parent != kNoParent) {
      w.KV("parent", static_cast<std::uint64_t>(s.parent));
    }
    w.KV("query", static_cast<std::int64_t>(s.query_id));
    w.KV("start_us", s.start_s * 1e6);
    w.KV("end_us", s.end_s * 1e6);
    w.KV("self_us", SelfSeconds(id) * 1e6);
    w.EndObject();
    std::fprintf(f, "%s\n", w.str().c_str());
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
