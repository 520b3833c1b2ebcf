#include "src/util/telemetry/drift.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "src/util/knobs.h"
#include "src/util/telemetry/flight_recorder.h"
#include "src/util/telemetry/telemetry.h"

namespace lce {
namespace telemetry {

WindowedQuantileSketch::WindowedQuantileSketch(size_t window)
    : window_(std::max<size_t>(1, window)) {
  ring_.reserve(window_);
}

void WindowedQuantileSketch::Observe(double value) {
  if (ring_.size() < window_) {
    ring_.push_back(value);
  } else {
    ring_[next_] = value;
  }
  next_ = (next_ + 1) % window_;
  ++count_;
}

size_t WindowedQuantileSketch::size() const { return ring_.size(); }

double WindowedQuantileSketch::Quantile(double q) const {
  if (ring_.empty()) return 0;
  std::vector<double> sorted = ring_;
  std::sort(sorted.begin(), sorted.end());
  q = std::clamp(q, 0.0, 1.0);
  double rank = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

DriftMonitor::DriftMonitor(std::string name, Options options)
    : name_(std::move(name)), options_(options), sketch_(options.window) {}

void DriftMonitor::Observe(double qerror) {
  std::lock_guard<std::mutex> lock(mu_);
  sketch_.Observe(qerror);
  double p95 = sketch_.Quantile(0.95);
  double p50 = sketch_.Quantile(0.50);
  // Gauges publish unconditionally: constructing a monitor is its own
  // opt-in (env gate or an explicit bench), independent of LCE_METRICS.
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.gauge("ce/" + name_ + "/qerr_p95_window").SetAlways(p95);
  reg.gauge("ce/" + name_ + "/qerr_p50_window").SetAlways(p50);
  if (!sketch_.full()) return;
  bool now_above = p95 > options_.threshold_p95;
  if (now_above && !above_) {
    DriftAlert alert{name_, sketch_.count(), p95, options_.threshold_p95};
    alerts_.push_back(alert);
    history_.push_back(std::move(alert));
    if (history_.size() > kAlertHistory) {
      history_.erase(history_.begin(),
                     history_.begin() + (history_.size() - kAlertHistory));
    }
    reg.counter("drift.alerts").AddAlways(1);
    // Alert edge = flight-recorder trigger (LCE_FR_DRIFT). The recorder
    // takes its own locks but never calls back into drift monitors.
    FlightRecorder::Global().TriggerDriftAlert(name_, p95,
                                               options_.threshold_p95);
  }
  above_ = now_above;
}

double DriftMonitor::WindowP95() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sketch_.Quantile(0.95);
}

double DriftMonitor::WindowP50() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sketch_.Quantile(0.50);
}

uint64_t DriftMonitor::observations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sketch_.count();
}

std::vector<DriftAlert> DriftMonitor::DrainAlerts() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<DriftAlert> out = std::move(alerts_);
  alerts_.clear();
  return out;
}

std::vector<DriftAlert> DriftMonitor::AlertHistory() const {
  std::lock_guard<std::mutex> lock(mu_);
  return history_;
}

namespace {

struct MonitorRegistry {
  std::mutex mu;
  std::map<std::string, std::unique_ptr<DriftMonitor>> monitors;
};

MonitorRegistry& Monitors() {
  static MonitorRegistry* reg = new MonitorRegistry();
  return *reg;
}

}  // namespace

size_t DriftWindow() {
  return static_cast<size_t>(knobs::Int(knobs::kDriftWindow));
}

bool DriftEnabled() { return DriftWindow() > 0; }

void SetDriftWindowForTesting(int window) {
  knobs::Override(knobs::kDriftWindow, window);
}

DriftMonitor& GlobalDriftMonitor(const std::string& name) {
  MonitorRegistry& reg = Monitors();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto it = reg.monitors.find(name);
  if (it == reg.monitors.end()) {
    DriftMonitor::Options opts;
    opts.window = std::max<size_t>(1, DriftWindow());
    it = reg.monitors
             .emplace(name, std::make_unique<DriftMonitor>(name, opts))
             .first;
  }
  return *it->second;
}

std::vector<DriftAlert> AllDriftAlertHistory() {
  MonitorRegistry& reg = Monitors();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::vector<DriftAlert> out;
  for (auto& [name, monitor] : reg.monitors) {
    for (DriftAlert& a : monitor->AlertHistory()) out.push_back(std::move(a));
  }
  return out;
}

void ResetDriftForTesting() {
  MonitorRegistry& reg = Monitors();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.monitors.clear();
}

}  // namespace telemetry
}  // namespace lce
