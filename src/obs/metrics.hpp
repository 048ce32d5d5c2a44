// MetricsRegistry — named counters, gauges and fixed-bucket histograms for
// every layer of the stack (schema "metrics/1").
//
// Design constraints, in order:
//   1. Handles (Counter, Gauge, Histogram) are trivially copyable and
//      cheap to stash in hot objects; a default-constructed handle is
//      inert (operations are no-ops), which is how disabled-by-default
//      instrumentation stays one branch.
//   2. Snapshots are deterministic: entries sorted by name, doubles
//      rendered with a fixed format, so two identical runs export
//      byte-identical JSON.
//
// Each metric owns one set of atomic cells inside the registry, and a
// handle points straight at them: an update is a relaxed atomic on that
// metric's cells, from any thread, with no lock. Threads that update the
// same metric share its cells, so instrument per batch, simulation, table
// view or served request, not per query inside a worker pool. A gauge
// holds the last set() value. Histogram buckets are upper-inclusive:
// bucket i counts values v with bounds[i-1] < v <= bounds[i]; one implicit
// overflow bucket counts v > bounds.back().
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/mutex.hpp"

namespace dbn::obs {

enum class MetricKind : std::uint8_t { Counter, Gauge, Histogram };

const char* metric_kind_name(MetricKind kind);

class Counter;
class Gauge;
class Histogram;

/// Streaming count/sum/sum-of-squares accumulator; the one place mean,
/// variance and coefficient of variation are computed (net/load_stats and
/// the snapshot table both lean on it).
struct Summary {
  std::uint64_t count = 0;
  double sum = 0.0;
  double sum_squares = 0.0;

  void observe(double value) {
    ++count;
    sum += value;
    sum_squares += value * value;
  }
  double mean() const;
  /// Population variance (0 for empty input).
  double variance() const;
  /// stddev / mean; 0 for empty or zero-mean input.
  double coefficient_of_variation() const;
};

/// One metric's state at snapshot time.
struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::Counter;
  std::uint64_t count = 0;          // counter value / histogram sample count
  double sum = 0.0;                 // histogram only
  std::int64_t value = 0;           // gauge only
  std::vector<double> bounds;       // histogram only
  std::vector<std::uint64_t> buckets;  // histogram only: bounds.size() + 1

  double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
};

/// Renders one entry as its "metrics/1" JSON object (no trailing newline).
/// Shared by MetricsSnapshot::to_json and the metricsts/1 timeline writer
/// so both formats stay byte-compatible per entry.
void append_metric_json(const MetricSnapshot& entry, std::ostream& out);

/// All metrics of one registry, sorted by name.
struct MetricsSnapshot {
  std::vector<MetricSnapshot> entries;

  const MetricSnapshot* find(std::string_view name) const;
  /// The "metrics/1" JSON document (deterministic byte-for-byte).
  std::string to_json() const;
  /// Aligned-text rendering via common/table.
  void print(std::ostream& out, const std::string& caption = "") const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry the built-in instrumentation records into.
  static MetricsRegistry& global();

  /// Registers (or looks up) a metric. Re-registration with the same name
  /// must use the same kind (and, for histograms, the same bounds).
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  /// `bounds` must be non-empty and strictly increasing.
  Histogram histogram(std::string_view name, std::vector<double> bounds);

  /// Every metric's current value, sorted by name. Safe to call
  /// concurrently with updates (relaxed reads).
  MetricsSnapshot snapshot() const;

  /// Zeroes every cell; registrations survive.
  void reset();

  std::size_t metric_count() const;

 private:
  friend class Histogram;

  // One registered metric and its cells. Only the cells of its own kind
  // are used; they are updated lock-free through handles and read or
  // zeroed by snapshot()/reset() under mutex_. Cache-line aligned so the
  // updates of one hot metric do not invalidate a neighbour's cells.
  struct alignas(64) MetricInfo {
    MetricInfo(std::string_view metric_name, MetricKind metric_kind,
               std::vector<double> metric_bounds);

    const std::string name;
    const MetricKind kind;
    const std::vector<double> bounds;     // histogram only
    std::atomic<std::uint64_t> count{0};  // counter only
    std::atomic<std::int64_t> value{0};   // gauge only
    // Histogram only: bounds.size() + 1 buckets (the last one is the
    // overflow bucket) and the sum of every observed value.
    std::vector<std::atomic<std::uint64_t>> buckets;
    std::atomic<double> sum{0.0};
  };

  MetricInfo& register_metric(std::string_view name, MetricKind kind,
                              std::vector<double> bounds);

  mutable Mutex mutex_;
  // A deque never moves its elements, so handles keep pointers into it
  // without holding mutex_.
  std::deque<MetricInfo> metrics_ DBN_GUARDED_BY(mutex_);
  std::unordered_map<std::string, std::uint32_t> by_name_
      DBN_GUARDED_BY(mutex_);
};

/// Monotone event count. Default-constructed handles are inert.
class Counter {
 public:
  Counter() = default;
  void inc(std::uint64_t n = 1);
  explicit operator bool() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::atomic<std::uint64_t>* cell) : cell_(cell) {}
  std::atomic<std::uint64_t>* cell_ = nullptr;
};

/// Point-in-time value (thread count, queue depth).
class Gauge {
 public:
  Gauge() = default;
  void set(std::int64_t value);
  void add(std::int64_t delta);
  explicit operator bool() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::atomic<std::int64_t>* cell) : cell_(cell) {}
  std::atomic<std::int64_t>* cell_ = nullptr;
};

/// Fixed-bucket distribution (bounds chosen at registration).
class Histogram {
 public:
  Histogram() = default;
  void observe(double value);
  explicit operator bool() const { return info_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(MetricsRegistry::MetricInfo* info) : info_(info) {}
  MetricsRegistry::MetricInfo* info_ = nullptr;
};

}  // namespace dbn::obs
