#include "src/util/knobs.h"

#include <strings.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "src/util/json_writer.h"

namespace lce {
namespace knobs {

namespace {

constexpr const char* kLogLevels[] = {"DEBUG", "INFO", "WARN", "ERROR", "OFF"};

// The table. README.md's knob table lists the same names with the same
// defaults; tests/knobs_test.cpp holds the two together.
constexpr Spec kSpecs[kNumKnobs] = {
    {.id = kThreads, .name = "LCE_THREADS", .type = Type::kInt,
     .max = 256},
    {.id = kMetrics, .name = "LCE_METRICS", .type = Type::kBool},
    {.id = kTrace, .name = "LCE_TRACE", .type = Type::kString},
    {.id = kQueryLog, .name = "LCE_QUERY_LOG", .type = Type::kString},
    {.id = kTrainLog, .name = "LCE_TRAIN_LOG", .type = Type::kString},
    {.id = kProfile, .name = "LCE_PROFILE", .type = Type::kString,
     .one = "lce_profile.collapsed"},
    {.id = kDriftWindow, .name = "LCE_DRIFT_WINDOW", .type = Type::kInt,
     .max = 1 << 20},
    {.id = kFlightRecorder, .name = "LCE_FLIGHT_RECORDER", .type = Type::kBool,
     .def = 1},
    {.id = kFrQerrTrigger, .name = "LCE_FR_QERR_TRIGGER",
     .type = Type::kDouble, .max = 1e6},
    {.id = kFrLatTrigger, .name = "LCE_FR_LAT_TRIGGER", .type = Type::kDouble,
     .max = 1e6},
    {.id = kFrDrift, .name = "LCE_FR_DRIFT", .type = Type::kBool},
    {.id = kFrSignal, .name = "LCE_FR_SIGNAL", .type = Type::kBool},
    {.id = kFrDir, .name = "LCE_FR_DIR", .type = Type::kString},
    {.id = kOracleIndex, .name = "LCE_ORACLE_INDEX", .type = Type::kBool,
     .def = 1},
    {.id = kSimd, .name = "LCE_SIMD", .type = Type::kBool, .def = 1},
    {.id = kLogLevel, .name = "LCE_LOG_LEVEL", .type = Type::kInt, .def = 1,
     .max = 4, .levels = kLogLevels},
    {.id = kBenchOutDir, .name = "LCE_BENCH_OUT_DIR", .type = Type::kString,
     .text = "bench/out"},
    {.id = kBenchScale, .name = "LCE_BENCH_SCALE", .type = Type::kDouble,
     .def = 0.12, .min = 1e-3, .max = 100},
    {.id = kBenchDmvScale, .name = "LCE_BENCH_DMV_SCALE",
     .type = Type::kDouble, .def = 0.3, .min = 1e-3, .max = 100},
    {.id = kBenchTrainQueries, .name = "LCE_BENCH_TRAIN_QUERIES",
     .type = Type::kInt, .def = 1500, .min = 1, .max = 1e7},
    {.id = kBenchTestQueries, .name = "LCE_BENCH_TEST_QUERIES",
     .type = Type::kInt, .def = 300, .min = 1, .max = 1e7},
    {.id = kBenchMaxJoins, .name = "LCE_BENCH_MAX_JOINS", .type = Type::kInt,
     .def = 3, .max = 16},
    {.id = kBenchSeed, .name = "LCE_BENCH_SEED", .type = Type::kInt, .def = 7,
     .max = 9007199254740992.0},  // 2^53: every seed up to it is exact
    {.id = kServeBenchSeconds, .name = "LCE_SERVE_BENCH_SECONDS",
     .type = Type::kDouble, .def = 1, .min = 0.01, .max = 3600},
    {.id = kServeBenchClients, .name = "LCE_SERVE_BENCH_CLIENTS",
     .type = Type::kString, .text = "1,4,16"},
};

constexpr bool InIdOrder() {
  for (int i = 0; i < kNumKnobs; ++i) {
    if (kSpecs[i].id != i) return false;
  }
  return true;
}
static_assert(InIdOrder(), "kSpecs rows must follow the Id enum");

// Everything but the published values, guarded by mu. Leaked, so exit-time
// flushes can still read a path.
struct State {
  std::mutex mu;
  bool parsed[kNumKnobs] = {};
  bool env_set[kNumKnobs] = {};
  double env_value[kNumKnobs] = {};
  std::string env_text[kNumKnobs];
  std::string text[kNumKnobs];  // in effect
};

State& GetState() {
  static State* state = new State();
  return *state;
}

bool EqualsIgnoreCase(std::string_view a, const char* b) {
  return a.size() == std::strlen(b) && strncasecmp(a.data(), b, a.size()) == 0;
}

std::string FormatNumber(double v) {
  if (v == std::trunc(v) && std::abs(v) < 1e15) {
    return std::to_string(static_cast<int64_t>(v));
  }
  char buf[32];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : std::string("?");
}

// Parses `raw` as knob `s` into (value, text); false when malformed.
bool ParseKnob(const Spec& s, std::string_view raw, double* value,
               std::string* text) {
  switch (s.type) {
    case Type::kBool:
      if (std::optional<bool> b = ParseBool(raw)) {
        *value = *b ? 1 : 0;
        return true;
      }
      return false;
    case Type::kInt:
      for (int i = 0; s.levels != nullptr && i <= s.max - s.min; ++i) {
        if (EqualsIgnoreCase(raw, s.levels[i])) {
          *value = s.min + i;
          return true;
        }
      }
      if (std::optional<int64_t> n = ParseInt(raw, static_cast<int64_t>(s.min),
                                              static_cast<int64_t>(s.max))) {
        *value = static_cast<double>(*n);
        return true;
      }
      return false;
    case Type::kDouble:
      if (std::optional<double> d = ParseDouble(raw, s.min, s.max)) {
        *value = *d;
        return true;
      }
      return false;
    case Type::kString:
      if (raw == "0") {
        *text = s.text;
      } else if (raw == "1" && s.one != nullptr) {
        *text = s.one;
      } else {
        *text = std::string(raw);
      }
      return true;
  }
  return false;
}

void WarnMalformed(const Spec& s, const char* raw) {
  std::string expected;
  switch (s.type) {
    case Type::kBool:
      expected = "0/1, false/true, off/on or no/yes";
      break;
    case Type::kInt:
    case Type::kDouble:
      expected = std::string(s.type == Type::kInt ? "an integer" : "a number") +
                 " in [" + FormatNumber(s.min) + ", " + FormatNumber(s.max) +
                 "]";
      for (int i = 0; s.levels != nullptr && i <= s.max - s.min; ++i) {
        expected += std::string(i == 0 ? " or " : "/") + s.levels[i];
      }
      break;
    case Type::kString:
      break;  // every string is valid
  }
  std::fprintf(stderr, "[LCE W knobs] ignoring %s=%s: expected %s; using %s\n",
               s.name, raw, expected.c_str(), DefaultText(s.id).c_str());
}

void Publish(State& state, Id id, double value, std::string text) {
  if (kSpecs[id].type == Type::kString) value = text.empty() ? 0 : 1;
  state.text[id] = std::move(text);
  internal::g_slots[id].value.store(value, std::memory_order_relaxed);
}

void ParseLocked(State& state, Id id) {
  if (state.parsed[id]) return;
  state.parsed[id] = true;
  const Spec& s = kSpecs[id];
  double value = s.def;
  std::string text = s.text;
  const char* raw = std::getenv(s.name);
  if (raw != nullptr && *raw != '\0') {
    if (ParseKnob(s, raw, &value, &text)) {
      state.env_set[id] = true;
    } else {
      WarnMalformed(s, raw);
    }
  }
  state.env_value[id] = value;
  state.env_text[id] = text;
  Publish(state, id, value, std::move(text));
}

// Publishes (value, text) as knob `id`'s override, or restores the
// environment's value when `clear`.
void SetOverride(Id id, bool clear, double value, const char* text) {
  State& state = GetState();
  std::lock_guard<std::mutex> lock(state.mu);
  ParseLocked(state, id);
  if (clear) {
    Publish(state, id, state.env_value[id], state.env_text[id]);
  } else {
    Publish(state, id, value, text);
  }
}

}  // namespace

namespace internal {

Slot g_slots[kNumKnobs];

double ParseOnFirstUse(Id id) {
  State& state = GetState();
  std::lock_guard<std::mutex> lock(state.mu);
  ParseLocked(state, id);
  return g_slots[id].value.load(std::memory_order_relaxed);
}

}  // namespace internal

const Spec& GetSpec(Id id) { return kSpecs[id]; }

std::string DefaultText(Id id) {
  const Spec& s = kSpecs[id];
  switch (s.type) {
    case Type::kBool:
      return s.def != 0 ? "on" : "off";
    case Type::kInt:
      if (s.levels != nullptr) return s.levels[static_cast<int>(s.def - s.min)];
      return FormatNumber(s.def);
    case Type::kDouble:
      return FormatNumber(s.def);
    case Type::kString:
      return *s.text != '\0' ? s.text : "unset";
  }
  return "";
}

std::string String(Id id) {
  State& state = GetState();
  std::lock_guard<std::mutex> lock(state.mu);
  ParseLocked(state, id);
  return state.text[id];
}

bool EnvSet(Id id) {
  State& state = GetState();
  std::lock_guard<std::mutex> lock(state.mu);
  ParseLocked(state, id);
  return state.env_set[id];
}

void Override(Id id, double value) {
  SetOverride(id, value < 0, value, "");
}

void OverrideText(Id id, const char* text) {
  SetOverride(id, text == nullptr, 0, text != nullptr ? text : "");
}

void WriteConfigJson(JsonWriter* w) {
  w->BeginObject();
  for (int i = 0; i < kNumKnobs; ++i) {
    const Spec& s = kSpecs[i];
    const Id id = s.id;
    w->Key(s.name).BeginObject().Key("value");
    switch (s.type) {
      case Type::kBool:
        w->Value(Bool(id));
        break;
      case Type::kInt: {
        // An override may sit outside the range the level names cover.
        int64_t level = Int(id) - static_cast<int64_t>(s.min);
        if (s.levels != nullptr && level >= 0 && level <= s.max - s.min) {
          w->Value(s.levels[level]);
        } else {
          w->Value(Int(id));
        }
        break;
      }
      case Type::kDouble:
        w->Value(Number(id));
        break;
      case Type::kString:
        if (std::string text = String(id); !text.empty()) {
          w->Value(text);
        } else {
          w->Null();
        }
        break;
    }
    w->Key("env_set").Value(EnvSet(id));
    w->EndObject();
  }
  w->EndObject();
}

std::optional<bool> ParseBool(std::string_view text) {
  for (const char* word : {"1", "true", "on", "yes"}) {
    if (EqualsIgnoreCase(text, word)) return true;
  }
  for (const char* word : {"0", "false", "off", "no"}) {
    if (EqualsIgnoreCase(text, word)) return false;
  }
  return std::nullopt;
}

std::optional<int64_t> ParseInt(std::string_view text, int64_t min,
                                int64_t max) {
  int64_t v = 0;
  const char* end = text.data() + text.size();
  auto [p, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || p != end || v < min || v > max) return std::nullopt;
  return v;
}

std::optional<double> ParseDouble(std::string_view text, double min,
                                  double max) {
  double v = 0;
  const char* end = text.data() + text.size();
  auto [p, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || p != end || !std::isfinite(v) || v < min ||
      v > max) {
    return std::nullopt;
  }
  return v;
}

}  // namespace knobs
}  // namespace lce
