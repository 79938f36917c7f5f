// Wall-clock timing helpers used by benches and phase accounting.
#ifndef CECI_UTIL_TIMER_H_
#define CECI_UTIL_TIMER_H_

#include <time.h>

#include <chrono>
#include <cstdint>

namespace ceci {

/// CPU time consumed by the calling thread, in seconds. Used to compute
/// simulated parallel makespans (max over workers) on machines with fewer
/// physical cores than workers — the per-worker work is disjoint, so the
/// thread CPU clock measures exactly the work a dedicated core would do.
inline double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Monotonic wall-clock stopwatch.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Reset().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Seconds since construction or the last Reset()/Lap(), restarting the
  /// stopwatch at the same instant: consecutive laps leave no gap.
  double Lap() {
    const Clock::time_point now = Clock::now();
    const double seconds = std::chrono::duration<double>(now - start_).count();
    start_ = now;
    return seconds;
  }

  double Millis() const { return Seconds() * 1e3; }
  std::uint64_t Micros() const {
    return static_cast<std::uint64_t>(Seconds() * 1e6);
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace ceci

#endif  // CECI_UTIL_TIMER_H_
