// lce_postmortem: render a flight-recorder postmortem bundle as a markdown
// forensics report.
//
//   lce_postmortem BUNDLE_DIR [--out PATH] [--context N] [--validate]
//
// A bundle directory (written by the flight recorder on a q-error / latency /
// drift / manual trigger, or by the fatal-signal handler) contains:
//
//   meta.json      trigger kind + detail, the offending record, counter
//                  deltas since the previous bundle, trigger counts
//   ring.jsonl     the forensic ring at trigger time, oldest first
//   metrics.json   full metrics-registry dump (absent in signal bundles:
//                  the registry cannot be read async-signal-safely)
//   profile.collapsed  profiler call tree (only when span recording was on)
//
// The report names the offending query (per-predicate selectivity
// attribution, fallbacks), compares its stage breakdown against the ring
// population for the same estimator, lists the neighboring ring entries for
// context (+-N around the offending record, default 8), and tabulates the
// metric deltas around the trigger.
//
// --validate checks bundle structure instead of rendering: meta.json parses
// and names a trigger, every ring.jsonl line parses, and metrics.json (when
// present) parses. Exit codes: 0 ok, 1 validation failed, 2 usage/IO error.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "src/util/fs.h"
#include "src/util/json_writer.h"
#include "tools/report_common.h"

namespace {

namespace stdfs = std::filesystem;
using namespace lce::report;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s BUNDLE_DIR [--out PATH] [--context N] [--validate]\n",
               argv0);
  return 2;
}

double GetNumberOr(const JsonValue& v, const char* key, double fallback) {
  double d = fallback;
  GetNumber(v, key, &d);
  return d;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] * (1 - frac) + values[hi] * frac;
}

struct Bundle {
  std::string dir;
  JsonValue meta;
  std::vector<JsonValue> ring;  // parsed ring.jsonl records, oldest first
  bool has_metrics = false;
  bool has_profile = false;
};

// Loads and structurally validates the bundle. Returns "" on success, else
// the first problem found (used by both --validate and the renderer).
std::string LoadBundle(const std::string& dir, Bundle* out) {
  out->dir = dir;
  std::string text;
  lce::Status read = lce::fs::ReadFileToString(dir + "/meta.json", &text);
  if (!read.ok()) return "meta.json: " + read.ToString();
  std::string error;
  if (!lce::json::Parse(text, &out->meta, &error)) {
    return "meta.json: " + error;
  }
  if (GetString(out->meta, "trigger", "") == "") {
    return "meta.json: missing \"trigger\"";
  }
  double version = 0;
  if (!GetNumber(out->meta, "version", &version) || version < 1) {
    return "meta.json: missing \"version\"";
  }
  // ring.jsonl is optional (a signal bundle from a process that never
  // recorded has none), but when present every line must parse.
  read = lce::fs::ReadFileToString(dir + "/ring.jsonl", &text);
  if (read.ok()) {
    error = ParseJsonLines(text, &out->ring);
    if (!error.empty()) return "ring.jsonl " + error;
  }
  read = lce::fs::ReadFileToString(dir + "/metrics.json", &text);
  if (read.ok()) {
    JsonValue metrics;
    if (!lce::json::Parse(text, &metrics, &error)) {
      return "metrics.json: " + error;
    }
    out->has_metrics = true;
  }
  std::error_code ec;
  out->has_profile = stdfs::exists(dir + "/profile.collapsed", ec);
  return "";
}

std::string DescribeQuery(const JsonValue& rec) {
  std::string q = "tables [";
  if (const JsonValue* tables = Find(rec, "tables", Kind::kArray)) {
    for (size_t i = 0; i < tables->array.size(); ++i) {
      if (i > 0) q += ", ";
      q += "t" + Num(tables->array[i].number);
    }
  }
  q += "], " + NumCell(rec, "joins") + " join(s), " +
       NumCell(rec, "predicates") + " predicate(s)";
  return q;
}

void RenderOffending(const JsonValue& rec, bool from_ring, std::string* out) {
  *out += "## Offending query\n\n";
  if (from_ring) {
    *out +=
        "_The trigger carried no single record (drift/signal/manual); "
        "showing the worst q-error record in the ring._\n\n";
  }
  Append(out, "- **estimator**: `%s` (kind %s, scope `%s`)\n",
         GetString(rec, "estimator").c_str(), GetString(rec, "kind").c_str(),
         GetString(rec, "scope").c_str());
  Append(out, "- **query**: %s — hash `%s`\n", DescribeQuery(rec).c_str(),
         GetString(rec, "query_hash").c_str());
  Append(out, "- **estimate**: %s, **truth**: %s, **q-error**: **%s**\n",
         NumCell(rec, "estimate").c_str(), NumCell(rec, "truth").c_str(),
         NumCell(rec, "qerror").c_str());
  Append(out, "- **latency**: %s µs, **seq**: %s\n",
         NumCell(rec, "latency_us").c_str(), NumCell(rec, "seq").c_str());
  double fallbacks = GetNumberOr(rec, "fallbacks", 0);
  if (fallbacks > 0) {
    Append(out, "- **fallbacks**: %s (first site `%s`)\n", Num(fallbacks).c_str(),
           GetString(rec, "fallback_site").c_str());
  }
  *out += "\n### Per-predicate selectivity attribution\n\n";
  const JsonValue* preds = Find(rec, "preds", Kind::kArray);
  if (preds == nullptr || preds->array.empty()) {
    *out += "No predicates recorded.\n\n";
  } else {
    *out +=
        "| # | column | range | attributed selectivity |\n|---|---|---|---|\n";
    for (size_t i = 0; i < preds->array.size(); ++i) {
      const JsonValue& p = preds->array[i];
      std::string sel = "n/a (joint model or context record)";
      double s = -1;
      if (GetNumber(p, "sel", &s) && s >= 0) sel = Num(s);
      Append(out, "| %d | t%s.c%s | [%s, %s] | %s |\n",
             static_cast<int>(i + 1), NumCell(p, "t").c_str(),
             NumCell(p, "c").c_str(), NumCell(p, "lo").c_str(),
             NumCell(p, "hi").c_str(), sel.c_str());
    }
    double total = GetNumberOr(rec, "predicates", 0);
    if (total > static_cast<double>(preds->array.size())) {
      Append(out, "\n_%d of %s predicates recorded (fixed-size record)._\n",
             static_cast<int>(preds->array.size()), Num(total).c_str());
    }
    *out += "\n";
  }
}

// Stage breakdown of the offending record vs. the population of ring records
// for the same estimator.
void RenderStages(const Bundle& b, const JsonValue& rec, std::string* out) {
  *out += "### Stage breakdown vs population\n\n";
  const JsonValue* stages = Find(rec, "stages", Kind::kArray);
  if (stages == nullptr || stages->array.empty()) {
    *out +=
        "No stage samples on this record (context records from the accuracy "
        "scan carry none; only diagnostics-path records do).\n\n";
    return;
  }
  const std::string estimator = GetString(rec, "estimator", "");
  // stage name -> per-record micros across the ring (same estimator).
  std::map<std::string, std::vector<double>> population;
  for (const JsonValue& r : b.ring) {
    if (GetString(r, "estimator", "") != estimator) continue;
    const JsonValue* rs = Find(r, "stages", Kind::kArray);
    if (rs == nullptr) continue;
    for (const JsonValue& s : rs->array) {
      double us = 0;
      if (GetNumber(s, "us", &us)) {
        population[GetString(s, "s", "?")].push_back(us);
      }
    }
  }
  *out +=
      "| stage | this query µs | population mean µs | population p95 µs |"
      " samples |\n|---|---|---|---|---|\n";
  for (const JsonValue& s : stages->array) {
    const std::string name = GetString(s, "s", "?");
    std::string mean = "n/a", p95 = "n/a", n = "0";
    auto it = population.find(name);
    if (it != population.end() && !it->second.empty()) {
      double sum = 0;
      for (double v : it->second) sum += v;
      mean = Num(sum / static_cast<double>(it->second.size()));
      p95 = Num(Quantile(it->second, 0.95));
      n = Num(static_cast<double>(it->second.size()));
    }
    Append(out, "| %s | %s | %s | %s | %s |\n", name.c_str(),
           NumCell(s, "us").c_str(), mean.c_str(), p95.c_str(), n.c_str());
  }
  *out += "\n";
}

void RenderNeighbors(const Bundle& b, double offending_seq, int context,
                     std::string* out) {
  *out += "## Neighboring ring entries\n\n";
  if (b.ring.empty()) {
    *out += "Ring empty at trigger time.\n\n";
    return;
  }
  // The ring is seq-ordered; find the offending index (or the end).
  size_t center = b.ring.size() - 1;
  for (size_t i = 0; i < b.ring.size(); ++i) {
    if (GetNumberOr(b.ring[i], "seq", -1) == offending_seq) {
      center = i;
      break;
    }
  }
  size_t lo = center > static_cast<size_t>(context)
                  ? center - static_cast<size_t>(context)
                  : 0;
  size_t hi = std::min(b.ring.size(), center + static_cast<size_t>(context) + 1);
  *out +=
      "| seq | kind | estimator | estimate | truth | q-error | latency µs |"
      " query |\n|---|---|---|---|---|---|---|---|\n";
  for (size_t i = lo; i < hi; ++i) {
    const JsonValue& r = b.ring[i];
    bool is_offender = GetNumberOr(r, "seq", -1) == offending_seq;
    Append(out, "| %s%s%s | %s | `%s` | %s | %s | %s | %s | %s |\n",
           is_offender ? "**" : "", NumCell(r, "seq").c_str(),
           is_offender ? "**" : "", GetString(r, "kind").c_str(),
           GetString(r, "estimator").c_str(), NumCell(r, "estimate").c_str(),
           NumCell(r, "truth").c_str(), NumCell(r, "qerror").c_str(),
           NumCell(r, "latency_us").c_str(), DescribeQuery(r).c_str());
  }
  *out += "\n";
}

void RenderRingSummary(const Bundle& b, std::string* out) {
  *out += "## Ring population\n\n";
  if (b.ring.empty()) {
    *out += "Ring empty at trigger time.\n\n";
    return;
  }
  struct Pop {
    int64_t records = 0;
    std::vector<double> qerrors;
    std::vector<double> latencies;
  };
  std::map<std::string, Pop> by_estimator;
  for (const JsonValue& r : b.ring) {
    Pop& p = by_estimator[GetString(r, "estimator", "?")];
    ++p.records;
    double d = 0;
    if (GetNumber(r, "qerror", &d) && d >= 0) p.qerrors.push_back(d);
    if (GetNumber(r, "latency_us", &d) && d >= 0) p.latencies.push_back(d);
  }
  *out +=
      "| estimator | records | qerr p50 | qerr p95 | qerr max |"
      " latency p95 µs |\n|---|---|---|---|---|---|\n";
  for (auto& [name, p] : by_estimator) {
    std::string q50 = "n/a", q95 = "n/a", qmax = "n/a", l95 = "n/a";
    if (!p.qerrors.empty()) {
      q50 = Num(Quantile(p.qerrors, 0.5));
      q95 = Num(Quantile(p.qerrors, 0.95));
      qmax = Num(*std::max_element(p.qerrors.begin(), p.qerrors.end()));
    }
    if (!p.latencies.empty()) l95 = Num(Quantile(p.latencies, 0.95));
    Append(out, "| `%s` | %lld | %s | %s | %s | %s |\n", name.c_str(),
           static_cast<long long>(p.records), q50.c_str(), q95.c_str(),
           qmax.c_str(), l95.c_str());
  }
  *out += "\n";
}

void RenderDeltas(const Bundle& b, std::string* out) {
  *out += "## Metric deltas around the trigger\n\n";
  const JsonValue* deltas = Find(b.meta, "counter_deltas", Kind::kObject);
  if (deltas == nullptr || deltas->object.empty()) {
    *out +=
        "No counter deltas (signal bundles cannot dump the registry "
        "async-signal-safely).\n\n";
    return;
  }
  std::vector<std::pair<std::string, double>> rows;
  for (const auto& [name, v] : deltas->object) {
    if (v.kind == JsonValue::Kind::kNumber) rows.emplace_back(name, v.number);
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  constexpr size_t kTop = 30;
  bool truncated = rows.size() > kTop;
  if (truncated) rows.resize(kTop);
  *out += "Counter movement since the previous bundle (or process start):\n\n";
  *out += "| counter | delta |\n|---|---|\n";
  for (const auto& [name, v] : rows) {
    Append(out, "| `%s` | %s |\n", name.c_str(), Num(v).c_str());
  }
  if (truncated) {
    Append(out, "\n_Top %d shown; see meta.json for the rest._\n",
           static_cast<int>(kTop));
  }
  *out += "\n";
}

std::string Render(const Bundle& b, int context) {
  std::string md = "# Postmortem bundle report\n\n";
  const std::string trigger = GetString(b.meta, "trigger");
  Append(&md, "- **bundle**: `%s`\n", b.dir.c_str());
  Append(&md, "- **trigger**: **%s** — %s\n", trigger.c_str(),
         GetString(b.meta, "detail", "-").c_str());
  double signo = 0;
  if (GetNumber(b.meta, "signal", &signo)) {
    Append(&md, "- **signal**: %d\n", static_cast<int>(signo));
  }
  std::string ts = GetString(b.meta, "timestamp_utc", "");
  if (ts.empty()) {
    double unix_time = 0;
    if (GetNumber(b.meta, "unix_time", &unix_time)) {
      ts = "unix " + Num(unix_time);
    } else {
      ts = "-";
    }
  }
  Append(&md, "- **when**: %s (commit %s)\n", ts.c_str(),
         GetString(b.meta, "git_commit").c_str());
  Append(&md, "- **ring**: %d record(s) captured, %s appended in total\n",
         static_cast<int>(b.ring.size()),
         NumCell(b.meta, "records_total").c_str());
  Append(&md, "- **files**: meta.json, %s record ring%s%s\n",
         b.ring.empty() ? "no" : "full",
         b.has_metrics ? ", metrics.json" : ", no metrics dump (signal path)",
         b.has_profile ? ", profile.collapsed" : "");
  const std::string counts = PositiveCounts(Find(b.meta, "trigger_counts"));
  if (!counts.empty()) {
    Append(&md, "- **trigger counts**: %s\n", counts.c_str());
  }
  md += "\n";

  // The offending record: from meta.json when the trigger named one, else
  // the worst q-error record in the ring.
  const JsonValue* shown = Find(b.meta, "offending", Kind::kObject);
  bool from_ring = false;
  if (shown == nullptr) {
    double worst = -1;
    for (const JsonValue& r : b.ring) {
      double qe = GetNumberOr(r, "qerror", -1);
      if (qe > worst) {
        worst = qe;
        shown = &r;
        from_ring = true;
      }
    }
  }
  if (shown != nullptr) {
    RenderOffending(*shown, from_ring, &md);
    RenderStages(b, *shown, &md);
    RenderNeighbors(b, GetNumberOr(*shown, "seq", -1), context, &md);
  } else {
    md += "## Offending query\n\nRing empty; nothing to attribute.\n\n";
  }
  RenderRingSummary(b, &md);
  RenderDeltas(b, &md);
  return md;
}

}  // namespace

int main(int argc, char** argv) {
  std::string bundle_dir;
  std::string out_path;
  bool validate = false;
  int context = 8;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (std::strcmp(arg, "--out") == 0) {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      out_path = v;
    } else if (std::strcmp(arg, "--context") == 0) {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      context = std::atoi(v);
      if (context < 0) return Usage(argv[0]);
    } else if (std::strcmp(arg, "--validate") == 0) {
      validate = true;
    } else if (arg[0] == '-') {
      return Usage(argv[0]);
    } else if (bundle_dir.empty()) {
      bundle_dir = arg;
    } else {
      return Usage(argv[0]);
    }
  }
  if (bundle_dir.empty()) return Usage(argv[0]);

  Bundle bundle;
  std::string problem = LoadBundle(bundle_dir, &bundle);
  if (validate) {
    if (!problem.empty()) {
      std::fprintf(stderr, "lce_postmortem: INVALID %s: %s\n",
                   bundle_dir.c_str(), problem.c_str());
      return 1;
    }
    std::printf("lce_postmortem: OK %s (trigger %s, %d ring record(s)%s)\n",
                bundle_dir.c_str(),
                GetString(bundle.meta, "trigger").c_str(),
                static_cast<int>(bundle.ring.size()),
                bundle.has_metrics ? ", metrics dump" : "");
    return 0;
  }
  if (!problem.empty()) {
    std::fprintf(stderr, "lce_postmortem: %s: %s\n", bundle_dir.c_str(),
                 problem.c_str());
    return 2;
  }

  return EmitReport("lce_postmortem", Render(bundle, context), out_path);
}
