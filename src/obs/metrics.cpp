#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "obs/trace.hpp"

namespace tiledqr::obs {

namespace {

void append_number(std::string& out, double v) {
  if (std::floor(v) == v && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    out += buf;
  } else {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    out += buf;
  }
}

}  // namespace

// ---------------------------------------------------------------- Histogram

void Histogram::record_ns(std::int64_t ns) noexcept {
  int b = 0;
  if (ns > 0) {
    b = std::bit_width(static_cast<std::uint64_t>(ns)) - 1;
    if (b >= kBuckets) b = kBuckets - 1;
  }
  bucket_[b].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_ns_.fetch_add(ns > 0 ? ns : 0, std::memory_order_relaxed);
  std::int64_t prev = max_.load(std::memory_order_relaxed);
  while (ns > prev && !max_.compare_exchange_weak(prev, ns, std::memory_order_relaxed)) {
  }
}

double Histogram::mean_ns() const noexcept {
  long n = count_.load(std::memory_order_relaxed);
  if (n == 0) return 0.0;
  return double(sum_ns_.load(std::memory_order_relaxed)) / double(n);
}

double Histogram::quantile_ns(double q) const noexcept {
  long n = count_.load(std::memory_order_relaxed);
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  long target = static_cast<long>(std::ceil(q * double(n)));
  if (target < 1) target = 1;
  long seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += bucket_[b].load(std::memory_order_relaxed);
    if (seen >= target) {
      // Upper bound of bucket b, clamped to the observed maximum.
      double hi = std::ldexp(1.0, b + 1);
      return std::min(hi, double(max_.load(std::memory_order_relaxed)));
    }
  }
  return double(max_.load(std::memory_order_relaxed));
}

void Histogram::reset() noexcept {
  for (auto& b : bucket_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_ns_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

void Histogram::append_samples(const std::string& prefix, std::vector<Sample>& out) const {
  long n = count();
  if (n == 0) return;
  out.push_back({prefix + ".count", double(n)});
  out.push_back({prefix + ".mean_us", mean_ns() / 1e3});
  out.push_back({prefix + ".p50_us", quantile_ns(0.50) / 1e3});
  out.push_back({prefix + ".p95_us", quantile_ns(0.95) / 1e3});
  out.push_back({prefix + ".max_us", double(max_ns()) / 1e3});
}

// ---------------------------------------------------------------- Registry

void MetricsRegistry::SourceHandle::release() {
  if (reg_ != nullptr) {
    reg_->deregister(id_);
    reg_ = nullptr;
  }
}

MetricsRegistry::SourceHandle MetricsRegistry::register_source(std::string name,
                                                               Source source) {
  std::lock_guard<std::mutex> lock(mu_);
  long id = next_id_++;
  sources_.push_back(Entry{id, std::move(name), std::move(source)});
  return SourceHandle(this, id);
}

void MetricsRegistry::deregister(long id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = std::find_if(sources_.begin(), sources_.end(),
                         [id](const Entry& e) { return e.id == id; });
  if (it == sources_.end()) return;
  // Freeze the source's final values so end-of-run dumps still see it.
  std::vector<Sample> finals;
  it->source(finals);
  for (auto& s : finals) {
    retired_.push_back({it->name + "." + s.name, s.value});
  }
  while (retired_.size() > kMaxRetired) retired_.pop_front();
  sources_.erase(it);
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.try_emplace(name).first->second;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return gauges_.try_emplace(name).first->second;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return histograms_.try_emplace(name).first->second;
}

std::string MetricsRegistry::unique_label(const std::string& prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  long n = label_counts_[prefix]++;
  return prefix + std::to_string(n);
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  Snapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Sample> tmp;
  for (const auto& e : sources_) {
    tmp.clear();
    e.source(tmp);
    for (auto& s : tmp) snap.samples.push_back({e.name + "." + s.name, s.value});
  }
  for (const auto& [name, c] : counters_) snap.samples.push_back({name, double(c.value())});
  for (const auto& [name, g] : gauges_) snap.samples.push_back({name, double(g.value())});
  for (const auto& [name, h] : histograms_) h.append_samples(name, snap.samples);
  for (const auto& s : retired_) snap.samples.push_back(s);
  std::stable_sort(snap.samples.begin(), snap.samples.end(),
                   [](const Sample& a, const Sample& b) { return a.name < b.name; });
  return snap;
}

std::string MetricsRegistry::dump_now(const std::string& path) const {
  const std::string target = unique_export_path(path);
  Snapshot snap = snapshot();
  std::ofstream f(target);
  TILEDQR_CHECK(f.good(), "cannot open metrics dump file: " + target);
  const bool json = target.size() >= 5 && target.ends_with(".json");
  f << (json ? snap.to_json() : snap.to_text());
  f.flush();
  TILEDQR_CHECK(f.good(), "failed writing metrics dump file: " + target);
  return target;
}

void MetricsRegistry::clear_retired() {
  std::lock_guard<std::mutex> lock(mu_);
  retired_.clear();
}

MetricsRegistry::~MetricsRegistry() {
  if (dump_path_.empty()) return;
  try {
    Snapshot snap = snapshot();
    std::ofstream f(dump_path_);
    if (!f.good()) return;
    bool json = dump_path_.size() >= 5 && dump_path_.ends_with(".json");
    f << (json ? snap.to_json() : snap.to_text());
  } catch (...) {
    // Exit-time dump: never throw out of a destructor.
  }
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry reg;
  static bool init = [] {
    if (auto path = env_string("TILEDQR_METRICS")) reg.dump_path_ = *path;
    return true;
  }();
  (void)init;
  return reg;
}

// ---------------------------------------------------------------- Snapshot

std::string MetricsRegistry::Snapshot::to_text() const {
  std::size_t width = 0;
  for (const auto& s : samples) width = std::max(width, s.name.size());
  std::string out;
  for (const auto& s : samples) {
    out += s.name;
    out.append(width - s.name.size() + 2, ' ');
    append_number(out, s.value);
    out += '\n';
  }
  return out;
}

std::string MetricsRegistry::Snapshot::to_json() const {
  std::string out = "{";
  bool first = true;
  for (const auto& s : samples) {
    if (!first) out += ",";
    first = false;
    out += "\n  ";
    out += json::quote(s.name);
    out += ": ";
    append_number(out, s.value);
  }
  out += "\n}\n";
  return out;
}

double MetricsRegistry::Snapshot::value(const std::string& name) const {
  for (const auto& s : samples) {
    if (s.name == name) return s.value;
  }
  return std::nan("");
}

}  // namespace tiledqr::obs
