// Logging and invariant-checking macros.
//
// LCE_CHECK* terminate the process with a diagnostic; they guard programming
// errors on paths where Status propagation would add noise without value.
//
// LCE_LOG(severity) is stream-style leveled logging to stderr:
//
//   LCE_LOG(INFO) << "labeled " << n << " queries in " << secs << "s";
//   LCE_LOG_EVERY_N(WARN, 64) << "labeling fell back to unfiltered scan";
//
// Severities are DEBUG < INFO < WARN < ERROR. The threshold comes from the
// LCE_LOG_LEVEL knob (DEBUG/INFO/WARN/ERROR/OFF or 0-4, case-insensitive;
// default INFO); messages below it cost one comparison and never evaluate
// their stream operands.

#ifndef LCE_UTIL_LOGGING_H_
#define LCE_UTIL_LOGGING_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace lce {
namespace internal {

[[noreturn]] inline void CheckFailed(const char* file, int line,
                                     const std::string& what) {
  std::fprintf(stderr, "[LCE CHECK FAILED] %s:%d: %s\n", file, line,
               what.c_str());
  std::abort();
}

}  // namespace internal

namespace logging {

enum class Severity : int { kDEBUG = 0, kINFO = 1, kWARN = 2, kERROR = 3, kOFF = 4 };

/// Current threshold: messages with severity < MinSeverity() are dropped.
/// Parsed once from LCE_LOG_LEVEL unless overridden for tests.
Severity MinSeverity();

/// Overrides the threshold (tests); ResetMinSeverityForTesting restores the
/// env-derived one.
void SetMinSeverityForTesting(Severity s);
void ResetMinSeverityForTesting();

/// One in-flight log statement; flushes to stderr as a single line on
/// destruction.
class LogMessage {
 public:
  LogMessage(const char* file, int line, Severity severity);
  ~LogMessage();
  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;
  std::ostream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
  const char* file_;
  int line_;
  Severity severity_;
};

/// Swallows the ostream expression in the discarded branch of LCE_LOG's
/// ternary; operator& binds looser than <<, tighter than ?:.
struct Voidify {
  void operator&(std::ostream&) {}
};

}  // namespace logging
}  // namespace lce

#define LCE_LOG(severity)                                                   \
  (::lce::logging::Severity::k##severity < ::lce::logging::MinSeverity())   \
      ? (void)0                                                             \
      : ::lce::logging::Voidify() &                                         \
            ::lce::logging::LogMessage(__FILE__, __LINE__,                  \
                                       ::lce::logging::Severity::k##severity) \
                .stream()

#define LCE_LOGGING_CONCAT_(a, b) a##b
#define LCE_LOGGING_CONCAT(a, b) LCE_LOGGING_CONCAT_(a, b)

// Logs on the 1st, (n+1)th, (2n+1)th, ... execution of the statement.
#define LCE_LOG_EVERY_N(severity, n)                                        \
  static ::std::atomic<uint64_t> LCE_LOGGING_CONCAT(lce_log_occurrences_,   \
                                                    __LINE__){0};           \
  if (LCE_LOGGING_CONCAT(lce_log_occurrences_, __LINE__)                    \
              .fetch_add(1, ::std::memory_order_relaxed) %                  \
          static_cast<uint64_t>(n) ==                                       \
      0)                                                                    \
  LCE_LOG(severity)

#define LCE_CHECK(cond)                                                 \
  do {                                                                  \
    if (!(cond)) {                                                      \
      ::lce::internal::CheckFailed(__FILE__, __LINE__, #cond);          \
    }                                                                   \
  } while (0)

#define LCE_CHECK_MSG(cond, msg)                                        \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::ostringstream oss_;                                          \
      oss_ << #cond << " — " << msg;                                    \
      ::lce::internal::CheckFailed(__FILE__, __LINE__, oss_.str());     \
    }                                                                   \
  } while (0)

#define LCE_CHECK_OK(status_expr)                                       \
  do {                                                                  \
    const ::lce::Status s_ = (status_expr);                             \
    if (!s_.ok()) {                                                     \
      ::lce::internal::CheckFailed(__FILE__, __LINE__, s_.ToString());  \
    }                                                                   \
  } while (0)

#endif  // LCE_UTIL_LOGGING_H_
