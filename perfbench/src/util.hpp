// Shared plumbing for the repository benchmark: run options, the result
// record every workload fills, percentiles, the benchmark's own span log
// and host facts. Nothing here reaches into src/ internals; workloads call
// the library's public headers only.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

inline double micros_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// CPU time the calling thread has used, in seconds. For work that runs on
/// one thread and never waits, this is its wall time less the time the CPU
/// was taken from it (another thread, or on a VM the host: steal time).
double thread_cpu_seconds();

/// The machine's CPU time so far, summed over its CPUs, in seconds: busy
/// (user, nice, system, irq, softirq) and steal, the time a hypervisor ran
/// something else while a CPU of this machine wanted to run. Both stay 0
/// where /proc/stat cannot be read.
struct MachineTimes {
  double busy = 0.0;
  double steal = 0.0;
};
MachineTimes machine_times();

/// The share of the CPU time wanted between two readings that the host
/// took: steal / (busy + steal). Wall time scaled by 1 - share leaves out
/// the time the host took the CPUs away; on a machine of its own the share
/// is 0 and the wall time stays as it is.
double steal_share(const MachineTimes& from, const MachineTimes& to);

/// setup_s is the median over the set-ups of one run: as many as fit in
/// kSetupBudgetS, and at least kMinSetups.
constexpr std::size_t kMinSetups = 25;
constexpr double kSetupBudgetS = 0.5;

/// True while another set-up is due, given those timed so far and when the
/// first began.
inline bool setup_due(const std::vector<double>& setups,
                      Clock::time_point first) {
  return setups.size() < kMinSetups ||
         seconds_between(first, Clock::now()) < kSetupBudgetS;
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // where the traced run writes its spans
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// One row of the traced run's attribution table: a layer's self time per
/// operation, in the unit of the end-to-end figure it decomposes. Every
/// row is measured on its own (a span, a counter times an offline timing);
/// what the rows leave of the traced figure is printed apart from them.
struct AttributionRow {
  std::string layer;
  double self_per_op = 0.0;
  std::string how;  // where the number comes from
};

struct Attribution {
  std::string figure;  // e.g. "wall ns per answered request"
  double untraced = 0.0;
  double traced = 0.0;
  std::vector<AttributionRow> rows;
  std::string leftover;  // what the traced figure less the rows stands for
};

/// Everything a workload reports. `metrics` carries the end-to-end metrics
/// (always) and the per-layer metrics (traced runs); `info` carries input
/// properties and other facts printed beside them.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::pair<std::string, std::string>> info;
  std::vector<std::string> problems;  // why `correct` is false
  Attribution attribution;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(const std::string& key, const std::string& value) {
    info.emplace_back(key, value);
  }
  void note(const std::string& key, double value);
  void problem(const std::string& what) {
    correct = false;
    problems.push_back(what);
  }
};

/// Nearest-rank percentile (p in [0, 100]) of `values`; reorders them.
double percentile(std::vector<double>& values, double p);
double median(std::vector<double> values);

/// Fixed-size latency histogram: 1% wide logarithmic buckets from 1 us, so
/// memory does not grow with the number of samples (a faster program must
/// not make the client's own bookkeeping look like a memory regression).
/// Percentiles interpolate inside the bucket that holds them.
class LogHistogram {
 public:
  void add(double us);
  void merge(const LogHistogram& other);
  std::uint64_t count() const { return total_; }
  double percentile(double p) const;

 private:
  static constexpr std::size_t kBuckets = 2048;  // up to ~7e8 us
  std::vector<std::uint32_t> counts_ = std::vector<std::uint32_t>(kBuckets);
  std::uint64_t total_ = 0;
};

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// The benchmark's own spans, kept in memory and written when it ends.
/// Timestamps are obs::wall_ts_micros(), the clock the daemon's request
/// spans use, so both sets of spans line up in one file.
class SpanLog {
 public:
  struct Record {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    double begin_us = 0.0;
    double end_us = 0.0;
    std::uint64_t ops = 0;  // operations the span covered (0 = n/a)
  };

  /// RAII span; no-op when the log is disabled.
  class Scope {
   public:
    Scope(SpanLog& log, std::string name, std::uint64_t parent = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint64_t id() const { return id_; }
    void set_ops(std::uint64_t ops) { ops_ = ops; }

   private:
    SpanLog& log_;
    std::string name_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    double begin_us_ = 0.0;
    std::uint64_t ops_ = 0;
  };

  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Records an already-timed span (e.g. one reconstructed from the
  /// daemon's request spans).
  std::uint64_t add(std::string name, std::uint64_t parent, double begin_us,
                    double end_us, std::uint64_t ops = 0);

  /// Self time per span name: each span's duration minus the part of it
  /// its children cover, summed over spans of that name (microseconds).
  std::map<std::string, double> self_times_us() const;

  /// Writes the spans as a Chrome trace_event JSON array.
  bool write(const std::string& path,
             const std::vector<std::pair<std::string, std::string>>& meta)
      const;

 private:
  bool enabled_ = false;
  mutable dbn::Mutex mutex_;
  std::uint64_t next_id_ DBN_GUARDED_BY(mutex_) = 1;
  std::vector<Record> records_ DBN_GUARDED_BY(mutex_);
};

/// The process-wide span log of this benchmark run.
SpanLog& spans();

/// A number rendered with all its digits (shortest round-trip form).
std::string full_digits(double value);

}  // namespace perfbench
