// Measurement plumbing shared by every perfbench workload: nearest-rank
// percentiles with a support rule, host facts, peak RSS, an in-memory span
// log, and the one-line JSON result the benchmark ends with.
#ifndef CECI_PERFBENCH_REPORT_H_
#define CECI_PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds from `a` to `b`.
inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank percentile (q in (0, 1]) of `samples`; sorts a copy.
/// Returns 0 for an empty sample.
double NearestRank(std::vector<double> samples, double q);

/// Samples strictly above the nearest-rank q-th percentile of n samples.
std::size_t SamplesBeyond(std::size_t n, double q);

/// True when a run of n samples supports the q-th percentile: at least
/// ten samples lie beyond it.
bool PercentileSupported(std::size_t n, double q);

/// Median of `values` (nearest rank).
double Median(std::vector<double> values);

/// Host and build facts stamped on every result.
struct HostFacts {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string simd;        // IntersectionArchName of the active kernel
  std::string build_type;  // CMAKE_BUILD_TYPE of this binary
  bool sanitized = false;
  bool force_scalar = false;  // CECI_FORCE_SCALAR set in the environment
};

HostFacts CollectHostFacts();

/// Empty when numbers from this host/build may be reported; otherwise the
/// reason they may not (non-Release build, sanitizer, forced scalar).
std::string RefusalReason(const HostFacts& facts);

/// Pins the calling thread to one CPU for its lifetime, then restores the
/// thread's CPU mask. Successive objects take the CPUs of the process's
/// mask in turn. The benchmark host's cores slow down independently of
/// each other (co-tenants), and a single-threaded loop left to the
/// scheduler stays on one core for seconds, so one busy core could decide
/// a whole run; taken in turn, every core carries an equal share of the
/// samples. Only for calls that start no threads: those would inherit the
/// one-CPU mask.
class CpuTurn {
 public:
  CpuTurn();
  ~CpuTurn();
  CpuTurn(const CpuTurn&) = delete;
  CpuTurn& operator=(const CpuTurn&) = delete;

 private:
  std::vector<unsigned char> saved_;  // the thread's cpu_set_t
  bool pinned_ = false;
};

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

/// Restarts the VmHWM high-water mark at the current resident size.
void ResetPeakRss();

/// One named metric with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// The benchmark's final line: correctness, op accounting, metrics.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Counts one op; a false `ok` marks it failed and the run incorrect.
  void Op(bool ok) { Ops(1, ok ? 0 : 1); }
  /// Counts `n` ops of which `bad` failed.
  void Ops(std::uint64_t n, std::uint64_t bad) {
    attempted += n;
    failed += bad;
    if (bad > 0) correct = false;
  }
};

/// Renders `result` as one JSON object (no newline). Values keep all
/// their digits (%.17g).
std::string ResultJson(const Result& result);

/// Spans recorded around calls into the library's layers. Kept in memory;
/// Write() dumps them as JSONL when the run ends.
class SpanLog {
 public:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  SpanLog();

  /// Opens a span and returns its id.
  std::size_t Begin(const std::string& name, std::size_t parent,
                    std::int64_t query_id);
  void End(std::size_t id);

  struct Span {
    std::string name;
    std::size_t parent = kNoParent;
    std::int64_t query_id = -1;
    double start_s = 0.0;  // since the log was created
    double end_s = 0.0;
  };
  const std::vector<Span>& spans() const { return spans_; }

  double Duration(std::size_t id) const {
    return spans_[id].end_s - spans_[id].start_s;
  }
  /// Span duration minus the time its direct children cover.
  double SelfSeconds(std::size_t id) const;

  /// Writes one JSON object per span to `path`; false on I/O error.
  bool Write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::vector<std::size_t>> children_;
};

}  // namespace perfbench

#endif  // CECI_PERFBENCH_REPORT_H_
