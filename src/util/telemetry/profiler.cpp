#include "src/util/telemetry/profiler.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <unordered_map>

#include "src/util/fs.h"
#include "src/util/logging.h"
#include "src/util/telemetry/telemetry.h"

namespace lce {
namespace telemetry {

namespace {

std::string EnvProfilePath() {
  static std::string v = [] {
    const char* e = std::getenv("LCE_PROFILE");
    if (e == nullptr || *e == '\0' || std::strcmp(e, "0") == 0) {
      return std::string();
    }
    if (std::strcmp(e, "1") == 0) return std::string("lce_profile.collapsed");
    return std::string(e);
  }();
  return v;
}

std::mutex g_path_mu;
bool g_path_overridden = false;
std::string g_path_override;
std::atomic<bool> g_enabled{false};
std::atomic<bool> g_enabled_initialized{false};

void InitEnabledFlag() {
  if (g_enabled_initialized.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(g_path_mu);
  if (g_enabled_initialized.load(std::memory_order_relaxed)) return;
  bool on = !EnvProfilePath().empty();
  g_enabled.store(on, std::memory_order_relaxed);
  g_enabled_initialized.store(true, std::memory_order_release);
  if (on) {
    // Processes that never construct a BenchRun still get their profile.
    std::atexit([] { WriteProfileIfEnabled(); });
  }
}

}  // namespace

bool ProfileEnabled() {
  InitEnabledFlag();
  return g_enabled.load(std::memory_order_relaxed);
}

void SetProfilePathForTesting(const char* path) {
  InitEnabledFlag();
  std::lock_guard<std::mutex> lock(g_path_mu);
  if (path == nullptr) {
    g_path_overridden = false;
    g_enabled.store(!EnvProfilePath().empty(), std::memory_order_relaxed);
  } else {
    g_path_overridden = true;
    g_path_override = path;
    g_enabled.store(!g_path_override.empty(), std::memory_order_relaxed);
  }
}

std::string ProfilePath() {
  InitEnabledFlag();
  std::lock_guard<std::mutex> lock(g_path_mu);
  return g_path_overridden ? g_path_override : EnvProfilePath();
}

std::vector<ProfileNode> BuildProfile(const std::vector<TraceEvent>& events) {
  // Span id -> event index, for parent-chain walks across threads.
  std::unordered_map<uint64_t, size_t> by_id;
  by_id.reserve(events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].id != 0) by_id.emplace(events[i].id, i);
  }
  // Resolved ";"-joined path per event (memoized by event index).
  std::vector<std::string> paths(events.size());
  std::vector<char> done(events.size(), 0);
  // Iterative resolve: collect the ancestor chain, then fill top-down.
  std::vector<size_t> chain;
  for (size_t i = 0; i < events.size(); ++i) {
    if (done[i]) continue;
    chain.clear();
    size_t cur = i;
    while (!done[cur] && chain.size() <= events.size()) {
      chain.push_back(cur);
      auto it = by_id.find(events[cur].parent_id);
      if (events[cur].parent_id == 0 || it == by_id.end() ||
          it->second == cur) {
        break;
      }
      cur = it->second;
    }
    for (auto r = chain.rbegin(); r != chain.rend(); ++r) {
      size_t e = *r;
      if (done[e]) continue;
      std::string name = events[e].name;
      std::replace(name.begin(), name.end(), ';', ':');
      auto parent = by_id.find(events[e].parent_id);
      if (events[e].parent_id != 0 && parent != by_id.end() &&
          parent->second != e) {
        paths[e] = paths[parent->second] + ";" + name;
      } else {
        paths[e] = std::move(name);
      }
      done[e] = 1;
    }
  }
  // Aggregate by path; subtract each span's duration from its parent's self.
  struct Agg {
    int64_t total_ns = 0;
    int64_t self_ns = 0;
    uint64_t count = 0;
  };
  std::unordered_map<std::string, Agg> agg;
  for (size_t i = 0; i < events.size(); ++i) {
    Agg& a = agg[paths[i]];
    a.total_ns += events[i].dur_ns;
    a.self_ns += events[i].dur_ns;
    a.count += 1;
    auto parent = by_id.find(events[i].parent_id);
    if (events[i].parent_id != 0 && parent != by_id.end() &&
        parent->second != i) {
      agg[paths[parent->second]].self_ns -= events[i].dur_ns;
    }
  }
  std::vector<ProfileNode> nodes;
  nodes.reserve(agg.size());
  for (auto& [path, a] : agg) {
    ProfileNode n;
    n.path = path;
    size_t sep = path.rfind(';');
    n.name = sep == std::string::npos ? path : path.substr(sep + 1);
    n.depth = static_cast<int>(std::count(path.begin(), path.end(), ';'));
    n.total_ns = a.total_ns;
    n.self_ns = std::max<int64_t>(a.self_ns, 0);
    n.count = a.count;
    nodes.push_back(std::move(n));
  }
  std::sort(nodes.begin(), nodes.end(),
            [](const ProfileNode& a, const ProfileNode& b) {
              if (a.self_ns != b.self_ns) return a.self_ns > b.self_ns;
              return a.path < b.path;
            });
  return nodes;
}

std::string ToCollapsed(const std::vector<ProfileNode>& nodes) {
  std::string out;
  char buf[32];
  for (const ProfileNode& n : nodes) {
    int64_t micros = n.self_ns / 1000;
    if (micros <= 0) continue;
    out += n.path;
    std::snprintf(buf, sizeof(buf), " %lld\n",
                  static_cast<long long>(micros));
    out += buf;
  }
  return out;
}

std::vector<ProfileNode> SnapshotProfileForTesting() {
  return BuildProfile(SnapshotTraceEventsForTesting());
}

Status WriteProfileNow() {
  std::string path = ProfilePath();
  if (path.empty()) return Status::OK();
  std::vector<ProfileNode> nodes =
      BuildProfile(SnapshotTraceEventsForTesting());
  Status written = fs::WriteStringToFile(path, ToCollapsed(nodes));
  if (!written.ok()) {
    MetricsRegistry::Global().counter("telemetry.export_failures").AddAlways(1);
    LCE_LOG(ERROR) << "cannot write profile output: " << written.ToString();
    return written;
  }
  LCE_LOG(INFO) << "wrote " << nodes.size() << " profile paths to " << path;
  return Status::OK();
}

void WriteProfileIfEnabled() { (void)WriteProfileNow(); }

}  // namespace telemetry
}  // namespace lce
