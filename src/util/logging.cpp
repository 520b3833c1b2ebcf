#include "src/util/logging.h"

#include <cstring>

#include "src/util/knobs.h"

namespace lce {
namespace logging {

Severity MinSeverity() {
  return static_cast<Severity>(knobs::Int(knobs::kLogLevel));
}

void SetMinSeverityForTesting(Severity s) {
  knobs::Override(knobs::kLogLevel, static_cast<int>(s));
}

void ResetMinSeverityForTesting() { knobs::Override(knobs::kLogLevel, -1); }

LogMessage::LogMessage(const char* file, int line, Severity severity)
    : file_(file), line_(line), severity_(severity) {}

LogMessage::~LogMessage() {
  static const char kTags[] = {'D', 'I', 'W', 'E'};
  int idx = static_cast<int>(severity_);
  char tag = (idx >= 0 && idx < 4) ? kTags[idx] : '?';
  const char* base = std::strrchr(file_, '/');
  base = base != nullptr ? base + 1 : file_;
  // One fprintf per message keeps concurrent lines from interleaving.
  std::fprintf(stderr, "[LCE %c %s:%d] %s\n", tag, base, line_,
               stream_.str().c_str());
}

}  // namespace logging
}  // namespace lce
