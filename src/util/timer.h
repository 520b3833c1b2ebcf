// Wall-clock timing helpers for the cost-profile experiments (R2, R9).

#ifndef LCE_UTIL_TIMER_H_
#define LCE_UTIL_TIMER_H_

#include <chrono>

namespace lce {

/// Monotonic stopwatch; starts on construction.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  double ElapsedMicros() const { return ElapsedSeconds() * 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace lce

#endif  // LCE_UTIL_TIMER_H_
