// Machine-readable run manifests for the bench binaries.
//
// A manifest records everything needed to interpret one bench run as a point
// on a perf trajectory: git commit, UTC timestamp, thread configuration, the
// value of every LCE_* knob in effect (`config`, src/util/knobs.h),
// wall-clock, and — when LCE_METRICS is on —
// a full metrics snapshot plus a digested per-phase breakdown (total ms,
// calls, mean us per phase.<scope>:<name> pair). Written as
// BENCH_manifest_<name>.json next to the bench's other outputs.

#ifndef LCE_UTIL_TELEMETRY_RUN_MANIFEST_H_
#define LCE_UTIL_TELEMETRY_RUN_MANIFEST_H_

#include <string>

#include "src/util/status.h"

namespace lce {
namespace telemetry {

/// The commit baked in at configure time ("unknown" outside a git checkout).
const char* BuildGitCommit();

/// Renders the manifest JSON for a run named `bench_name` that took
/// `wall_seconds`. Exposed separately from WriteRunManifest for tests.
std::string RunManifestJson(const std::string& bench_name,
                            double wall_seconds);

/// Writes RunManifestJson to `path`, creating parent directories as needed.
/// On I/O failure returns the error (also logged, with the path).
Status WriteRunManifest(const std::string& path, const std::string& bench_name,
                        double wall_seconds);

}  // namespace telemetry
}  // namespace lce

#endif  // LCE_UTIL_TELEMETRY_RUN_MANIFEST_H_
