#include "src/util/knobs.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/util/json_writer.h"
#include "src/util/parallel.h"
#include "src/util/simd.h"
#include "src/util/telemetry/run_manifest.h"

namespace lce {
namespace knobs {
namespace {

TEST(KnobsTest, BoolParserAcceptsOnlyTheFourWordPairs) {
  const std::vector<std::pair<std::string, std::optional<bool>>> cases = {
      {"1", true},       {"0", false},     {"true", true},  {"false", false},
      {"on", true},      {"off", false},   {"yes", true},   {"no", false},
      {"TRUE", true},    {"Off", false},   {"", std::nullopt},
      {"2", std::nullopt},  {"-1", std::nullopt}, {"y", std::nullopt},
      {"enable", std::nullopt}, {" 1", std::nullopt}, {"on ", std::nullopt},
      {"truex", std::nullopt},
  };
  for (const auto& [text, want] : cases) {
    EXPECT_EQ(ParseBool(text), want) << "'" << text << "'";
  }
}

TEST(KnobsTest, IntParserNeedsTheWholeStringInsideTheRange) {
  const std::vector<std::pair<std::string, std::optional<int64_t>>> cases = {
      {"0", 0},           {"4", 4},           {"256", 256},
      {"", std::nullopt}, {"1e3", std::nullopt}, {"4.0", std::nullopt},
      {" 4", std::nullopt}, {"4 ", std::nullopt}, {"-1", std::nullopt},
      {"257", std::nullopt}, {"0x10", std::nullopt}, {"abc", std::nullopt},
      {"99999999999999999999", std::nullopt},
  };
  for (const auto& [text, want] : cases) {
    EXPECT_EQ(ParseInt(text, 0, 256), want) << "'" << text << "'";
  }
}

TEST(KnobsTest, DoubleParserNeedsTheWholeStringInsideTheRange) {
  const std::vector<std::pair<std::string, std::optional<double>>> cases = {
      {"0", 0.0},          {"0.5", 0.5},        {"1e1", 10.0},
      {"100", 100.0},      {"", std::nullopt},  {"abc", std::nullopt},
      {"1e3", std::nullopt}, {"-0.1", std::nullopt}, {"nan", std::nullopt},
      {"inf", std::nullopt}, {"1,5", std::nullopt}, {" 1", std::nullopt},
      {"1x", std::nullopt},
  };
  for (const auto& [text, want] : cases) {
    EXPECT_EQ(ParseDouble(text, 0, 100), want) << "'" << text << "'";
  }
}

// The config object of a fresh manifest, keyed by knob name.
json::JsonValue ManifestConfig() {
  json::JsonValue v;
  std::string error;
  EXPECT_TRUE(json::Parse(telemetry::RunManifestJson("knobs_test", 1.0), &v,
                          &error))
      << error;
  const json::JsonValue* config = v.Find("config");
  return config != nullptr ? *config : json::JsonValue{};
}

TEST(KnobsTest, ManifestConfigReportsTheOverrideInEffect) {
  // Both values of each knob, so the check holds whatever the environment
  // sets.
  for (int on : {0, 1}) {
    simd::SetSimdEnabledForTesting(on);
    parallel::SetThreadCountForTesting(on + 2);
    OverrideText(kFrDir, on ? "fr_dir" : "");
    json::JsonValue config = ManifestConfig();
    ASSERT_EQ(config.kind, json::JsonValue::Kind::kObject);
    EXPECT_EQ(config.Find("LCE_SIMD")->Find("value")->boolean, on == 1);
    EXPECT_EQ(config.Find("LCE_THREADS")->Find("value")->number, on + 2);
    const json::JsonValue* fr_dir = config.Find("LCE_FR_DIR")->Find("value");
    if (on) {
      EXPECT_EQ(fr_dir->string, "fr_dir");
    } else {
      EXPECT_EQ(fr_dir->kind, json::JsonValue::Kind::kNull);
    }
  }
  simd::SetSimdEnabledForTesting(-1);
  parallel::SetThreadCountForTesting(0);
  OverrideText(kFrDir, nullptr);

  // Every knob, in table order, each with whether the environment set it.
  json::JsonValue config = ManifestConfig();
  ASSERT_EQ(config.object.size(), static_cast<size_t>(kNumKnobs));
  for (int i = 0; i < kNumKnobs; ++i) {
    EXPECT_EQ(config.object[i].first, GetSpec(static_cast<Id>(i)).name);
    const json::JsonValue* env_set = config.object[i].second.Find("env_set");
    ASSERT_NE(env_set, nullptr) << config.object[i].first;
    EXPECT_EQ(env_set->kind, json::JsonValue::Kind::kBool);
  }
}

// README.md's knob table: name -> default, backticks stripped.
std::map<std::string, std::string> ReadmeKnobs() {
  std::ifstream in(std::string(LCE_SOURCE_DIR) + "/README.md");
  EXPECT_TRUE(in.good()) << "cannot read README.md";
  std::map<std::string, std::string> rows;
  std::string line;
  bool in_table = false;
  while (std::getline(in, line)) {
    if (line.rfind("### Environment knobs", 0) == 0) {
      in_table = true;
      continue;
    }
    if (!in_table) continue;
    if (line.rfind("| `LCE_", 0) != 0) {
      if (!rows.empty() && line.empty()) break;  // the table ended
      continue;
    }
    std::vector<std::string> cells;
    std::stringstream ss(line.substr(1));
    for (std::string cell; std::getline(ss, cell, '|');) {
      std::string bare;
      for (char c : cell) {
        if (c != '`') bare.push_back(c);
      }
      size_t b = bare.find_first_not_of(' ');
      size_t e = bare.find_last_not_of(' ');
      cells.push_back(b == std::string::npos ? "" : bare.substr(b, e - b + 1));
    }
    EXPECT_GE(cells.size(), 3u) << line;
    if (cells.size() >= 2) {
      EXPECT_TRUE(rows.emplace(cells[0], cells[1]).second)
          << "duplicate README row " << cells[0];
    }
  }
  return rows;
}

TEST(KnobsTest, ReadmeTableListsEveryKnobWithItsDefault) {
  std::map<std::string, std::string> readme = ReadmeKnobs();
  std::map<std::string, std::string> table;
  for (int i = 0; i < kNumKnobs; ++i) {
    table.emplace(GetSpec(static_cast<Id>(i)).name,
                  DefaultText(static_cast<Id>(i)));
  }
  for (const auto& [name, def] : table) {
    auto it = readme.find(name);
    if (it == readme.end()) {
      ADD_FAILURE() << name << " has no row in README.md's knob table";
    } else {
      EXPECT_EQ(it->second, def) << name << "'s default in README.md";
    }
  }
  for (const auto& [name, def] : readme) {
    EXPECT_TRUE(table.count(name) != 0)
        << "README.md lists " << name << ", which is not in the knob table";
  }
}

}  // namespace
}  // namespace knobs
}  // namespace lce
