#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/contract.hpp"
#include "common/schema.hpp"
#include "common/table.hpp"
#include "obs/json.hpp"

namespace dbn::obs {

namespace {

/// Portable atomic fetch-add for doubles (std::atomic<double>::fetch_add is
/// C++20 but spotty in older standard libraries).
void atomic_add(std::atomic<double>& cell, double delta) {
  double current = cell.load(std::memory_order_relaxed);
  while (!cell.compare_exchange_weak(current, current + delta,
                                     std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace

const char* metric_kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::Counter:
      return "counter";
    case MetricKind::Gauge:
      return "gauge";
    case MetricKind::Histogram:
      return "histogram";
  }
  return "unknown";
}

double Summary::mean() const {
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

double Summary::variance() const {
  if (count == 0) {
    return 0.0;
  }
  const double m = mean();
  const double v = sum_squares / static_cast<double>(count) - m * m;
  return v > 0.0 ? v : 0.0;  // clamp the usual catastrophic-cancellation dust
}

double Summary::coefficient_of_variation() const {
  const double m = mean();
  if (count == 0 || m == 0.0) {
    return 0.0;
  }
  return std::sqrt(variance()) / m;
}

// --- handles ---------------------------------------------------------------

// memory_order_relaxed throughout: every cell carries an independent tally,
// not publication. snapshot() reads the cells relaxed too; exactness after
// the updating threads are joined is what test_obs and the concurrency
// stress suite verify.

void Counter::inc(std::uint64_t n) {
  if (cell_ != nullptr) {
    cell_->fetch_add(n, std::memory_order_relaxed);
  }
}

void Gauge::set(std::int64_t value) {
  if (cell_ != nullptr) {
    cell_->store(value, std::memory_order_relaxed);
  }
}

void Gauge::add(std::int64_t delta) {
  if (cell_ != nullptr) {
    cell_->fetch_add(delta, std::memory_order_relaxed);
  }
}

void Histogram::observe(double value) {
  if (info_ == nullptr) {
    return;
  }
  info_->buckets[bucket(value)].fetch_add(1, std::memory_order_relaxed);
  atomic_add(info_->sum, value);
}

std::size_t Histogram::bucket(double value) const {
  if (info_ == nullptr) {
    return 0;
  }
  // Upper-inclusive buckets: bucket i counts bounds[i-1] < v <= bounds[i];
  // the last bucket is the implicit overflow bucket (v > bounds.back()).
  const auto it =
      std::lower_bound(info_->bounds.begin(), info_->bounds.end(), value);
  return static_cast<std::size_t>(it - info_->bounds.begin());
}

void Histogram::merge(std::span<const std::uint64_t> counts, double sum) {
  if (info_ == nullptr) {
    return;
  }
  DBN_REQUIRE(counts.size() == info_->buckets.size(),
              "histogram merge needs one count per bucket");
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] != 0) {
      info_->buckets[i].fetch_add(counts[i], std::memory_order_relaxed);
    }
  }
  atomic_add(info_->sum, sum);
}

// --- registry ---------------------------------------------------------------

MetricsRegistry::MetricInfo::MetricInfo(std::string_view metric_name,
                                        MetricKind metric_kind,
                                        std::vector<double> metric_bounds)
    : name(metric_name),
      kind(metric_kind),
      bounds(std::move(metric_bounds)),
      buckets(kind == MetricKind::Histogram ? bounds.size() + 1 : 0) {}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry::MetricInfo& MetricsRegistry::register_metric(
    std::string_view name, MetricKind kind, std::vector<double> bounds) {
  DBN_REQUIRE(!name.empty(), "metric names must be non-empty");
  const MutexLock lock(mutex_);
  const auto it = by_name_.find(std::string(name));
  if (it != by_name_.end()) {
    MetricInfo& existing = metrics_[it->second];
    DBN_REQUIRE(existing.kind == kind,
                "metric re-registered with a different kind");
    DBN_REQUIRE(kind != MetricKind::Histogram || existing.bounds == bounds,
                "histogram re-registered with different bounds");
    return existing;
  }
  metrics_.emplace_back(name, kind, std::move(bounds));
  const std::uint32_t id = static_cast<std::uint32_t>(metrics_.size()) - 1;
  by_name_.emplace(metrics_.back().name, id);
  return metrics_.back();
}

Counter MetricsRegistry::counter(std::string_view name) {
  return Counter(&register_metric(name, MetricKind::Counter, {}).count);
}

Gauge MetricsRegistry::gauge(std::string_view name) {
  return Gauge(&register_metric(name, MetricKind::Gauge, {}).value);
}

Histogram MetricsRegistry::histogram(std::string_view name,
                                     std::vector<double> bounds) {
  DBN_REQUIRE(!bounds.empty(), "histograms need at least one bucket bound");
  DBN_REQUIRE(std::is_sorted(bounds.begin(), bounds.end()) &&
                  std::adjacent_find(bounds.begin(), bounds.end()) ==
                      bounds.end(),
              "histogram bounds must be strictly increasing");
  return Histogram(
      &register_metric(name, MetricKind::Histogram, std::move(bounds)));
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const MutexLock lock(mutex_);
  MetricsSnapshot out;
  out.entries.reserve(metrics_.size());
  // A snapshot taken while other threads update is a valid cut per cell,
  // not a linearizable cross-cell one; callers that need exact totals join
  // their threads first.
  for (const MetricInfo& info : metrics_) {
    MetricSnapshot entry;
    entry.name = info.name;
    entry.kind = info.kind;
    switch (info.kind) {
      case MetricKind::Counter:
        entry.count = info.count.load(std::memory_order_relaxed);
        break;
      case MetricKind::Gauge:
        entry.value = info.value.load(std::memory_order_relaxed);
        break;
      case MetricKind::Histogram:
        entry.bounds = info.bounds;
        entry.buckets.reserve(info.buckets.size());
        for (const auto& bucket : info.buckets) {
          entry.buckets.push_back(bucket.load(std::memory_order_relaxed));
          entry.count += entry.buckets.back();
        }
        entry.sum = info.sum.load(std::memory_order_relaxed);
        break;
    }
    out.entries.push_back(std::move(entry));
  }
  std::sort(out.entries.begin(), out.entries.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

void MetricsRegistry::reset() {
  const MutexLock lock(mutex_);
  for (MetricInfo& info : metrics_) {
    info.count.store(0, std::memory_order_relaxed);
    info.value.store(0, std::memory_order_relaxed);
    for (auto& bucket : info.buckets) {
      bucket.store(0, std::memory_order_relaxed);
    }
    info.sum.store(0.0, std::memory_order_relaxed);
  }
}

std::size_t MetricsRegistry::metric_count() const {
  const MutexLock lock(mutex_);
  return metrics_.size();
}

// --- snapshot export ---------------------------------------------------------

const MetricSnapshot* MetricsSnapshot::find(std::string_view name) const {
  for (const MetricSnapshot& entry : entries) {
    if (entry.name == name) {
      return &entry;
    }
  }
  return nullptr;
}

void append_metric_json(const MetricSnapshot& entry, std::ostream& out) {
  out << "{\"name\":\"" << json_escape(entry.name) << "\",\"kind\":\""
      << metric_kind_name(entry.kind) << "\"";
  switch (entry.kind) {
    case MetricKind::Counter:
      out << ",\"count\":" << entry.count;
      break;
    case MetricKind::Gauge:
      out << ",\"value\":" << entry.value;
      break;
    case MetricKind::Histogram: {
      out << ",\"count\":" << entry.count << ",\"sum\":"
          << json_number(entry.sum) << ",\"bounds\":[";
      for (std::size_t i = 0; i < entry.bounds.size(); ++i) {
        if (i != 0) {
          out << ",";
        }
        out << json_number(entry.bounds[i]);
      }
      out << "],\"buckets\":[";
      for (std::size_t i = 0; i < entry.buckets.size(); ++i) {
        if (i != 0) {
          out << ",";
        }
        out << entry.buckets[i];
      }
      out << "]";
      break;
    }
  }
  out << "}";
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream out;
  out << "{\"schema\":\"" << schema::kMetrics << "\",\"metrics\":[";
  bool first = true;
  for (const MetricSnapshot& entry : entries) {
    if (!first) {
      out << ",";
    }
    first = false;
    append_metric_json(entry, out);
  }
  out << "]}\n";
  return out.str();
}

void MetricsSnapshot::print(std::ostream& out,
                            const std::string& caption) const {
  Table table({"metric", "kind", "value", "detail"});
  for (const MetricSnapshot& entry : entries) {
    std::string value;
    std::string detail;
    switch (entry.kind) {
      case MetricKind::Counter:
        value = std::to_string(entry.count);
        break;
      case MetricKind::Gauge:
        value = std::to_string(entry.value);
        break;
      case MetricKind::Histogram: {
        value = std::to_string(entry.count);
        std::ostringstream d;
        d << "mean=" << Table::num(entry.mean(), 3) << " buckets=[";
        for (std::size_t i = 0; i < entry.buckets.size(); ++i) {
          if (i != 0) {
            d << " ";
          }
          d << entry.buckets[i];
        }
        d << "]";
        detail = d.str();
        break;
      }
    }
    table.add_row({entry.name, metric_kind_name(entry.kind), std::move(value),
                   std::move(detail)});
  }
  table.print(out, caption);
}

}  // namespace dbn::obs
