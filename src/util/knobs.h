// The LCE_* environment knobs: one typed table, each knob parsed once.
//
// Every knob the library, the benches and the tools read is one row of the
// table in knobs.cpp: its name, its type and its default. A knob is read
// from the environment on its first use, by the strict parser of its type:
//
//   bool    0/1, false/true, off/on, no/yes (any case)
//   int     a whole decimal integer inside the knob's range; a knob with
//           named levels (LCE_LOG_LEVEL) also takes a level's name
//   double  a whole decimal number inside the knob's range
//   string  any text; "0" means the default, and a knob with a shorthand
//           (LCE_PROFILE) reads "1" as that text
//
// Anything else prints one warning on stderr naming the knob, and the knob
// keeps its default. The warning bypasses LCE_LOG, whose threshold is itself
// a knob.
//
// Tests and A/B benches override a knob in process until they clear the
// override. Once parsed, a bool, int or double knob reads as one relaxed
// atomic load, so gates on per-kernel, per-record and per-filter paths take
// no lock, lookup or string compare. The run manifest walks the table
// (WriteConfigJson): each knob's value in effect, overrides included, and
// whether the environment set it.

#ifndef LCE_UTIL_KNOBS_H_
#define LCE_UTIL_KNOBS_H_

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace lce {

class JsonWriter;

namespace knobs {

enum class Type : uint8_t { kBool, kInt, kDouble, kString };

/// Every knob, in the order of README.md's knob table.
enum Id : int {
  kThreads,
  kMetrics,
  kTrace,
  kQueryLog,
  kTrainLog,
  kProfile,
  kDriftWindow,
  kFlightRecorder,
  kFrQerrTrigger,
  kFrLatTrigger,
  kFrDrift,
  kFrSignal,
  kFrDir,
  kOracleIndex,
  kSimd,
  kLogLevel,
  kBenchOutDir,
  kBenchScale,
  kBenchDmvScale,
  kBenchTrainQueries,
  kBenchTestQueries,
  kBenchMaxJoins,
  kBenchSeed,
  kServeBenchSeconds,
  kServeBenchClients,
  kNumKnobs,
};

/// One row of the table.
struct Spec {
  Id id;
  const char* name;
  Type type;
  double def = 0;          // bool, int and double knobs
  double min = 0;          // accepted range of int and double knobs
  double max = 0;
  const char* text = "";   // string knobs: the default
  const char* one = nullptr;             // string knobs: what "1" stands for
  const char* const* levels = nullptr;   // int knobs: names of min, min+1, ...
};

const Spec& GetSpec(Id id);

/// The default as README.md's knob table writes it: on/off, the number, the
/// level name, or the text (`unset` when empty).
std::string DefaultText(Id id);

namespace internal {
// NaN until the knob is parsed; then its value in effect (string knobs: 1
// when the text is non-empty). Constant-initialized, so a knob read from
// any static initializer is safe.
struct Slot {
  std::atomic<double> value{std::numeric_limits<double>::quiet_NaN()};
};
extern Slot g_slots[kNumKnobs];
double ParseOnFirstUse(Id id);
}  // namespace internal

/// The value in effect. For a string knob, Bool is true when its text is
/// non-empty.
inline double Number(Id id) {
  double v = internal::g_slots[id].value.load(std::memory_order_relaxed);
  return std::isnan(v) ? internal::ParseOnFirstUse(id) : v;
}
inline bool Bool(Id id) { return Number(id) != 0; }
inline int64_t Int(Id id) { return static_cast<int64_t>(Number(id)); }

/// The text of a string knob in effect ("" when unset).
std::string String(Id id);

/// True when the environment supplied the knob's value: set, non-empty and
/// valid.
bool EnvSet(Id id);

/// Overrides a knob in this process (tests, A/B benches); a number override
/// skips the range check. A negative value, or a null text, clears the
/// override and restores the environment's value: no knob's range holds a
/// negative number.
void Override(Id id, double value);
void OverrideText(Id id, const char* text);

/// Writes the manifest's `config` object: for every knob, in table order,
/// {"value": <value in effect>, "env_set": <EnvSet>}. An unset string knob
/// writes null.
void WriteConfigJson(JsonWriter* w);

/// The strict parsers, exposed for tests: nullopt on anything that is not a
/// whole valid value.
std::optional<bool> ParseBool(std::string_view text);
std::optional<int64_t> ParseInt(std::string_view text, int64_t min,
                                int64_t max);
std::optional<double> ParseDouble(std::string_view text, double min,
                                  double max);

}  // namespace knobs
}  // namespace lce

#endif  // LCE_UTIL_KNOBS_H_
