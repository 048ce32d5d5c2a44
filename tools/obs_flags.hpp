// Shared --trace-out / --metrics-out wiring for the CLI tools (dbn,
// dbn_bench, dbn_chaos).
//
//   --trace-out=FILE    install a process-global trace sink writing to FILE:
//                       Chrome trace_event JSON when FILE ends in ".json"
//                       (load in Perfetto / chrome://tracing), trace/1
//                       NDJSON otherwise.
//   --metrics-out=FILE  after the run, snapshot the global MetricsRegistry
//                       to FILE as a metrics/1 JSON document.
//
// Plus the time-series recorder (the serving plane's flight recorder, but
// available to every dbn command):
//
//   --metrics-ts-out=FILE  run a background sampler for the duration of
//                          the process and flush a metricsts/1 NDJSON
//                          timeline (periodic registry deltas) to FILE.
//   --metrics-interval=MS  sampling period in milliseconds (default 1000,
//                          must be positive).
//
// Header-only; each tool owns one ObsWriter for the duration of main().
#pragma once

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "obs/chrome_trace.hpp"
#include "obs/live.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dbn::tools {

class ObsWriter {
 public:
  ObsWriter() = default;
  ObsWriter(const ObsWriter&) = delete;
  ObsWriter& operator=(const ObsWriter&) = delete;
  ~ObsWriter() { finish(); }

  /// Opens the requested outputs and installs the trace sink. Empty
  /// strings mean "not requested". Returns false (with a message on
  /// stderr) if a file cannot be opened.
  bool setup(const std::string& trace_out, const std::string& metrics_out,
             const std::string& metrics_ts_out = "",
             double metrics_interval_ms = 1000.0) {
    metrics_path_ = metrics_out;
    if (!metrics_ts_out.empty()) {
      // Open now so a bad path fails before the run, not after it.
      timeline_file_.open(metrics_ts_out, std::ios::binary);
      if (!timeline_file_) {
        std::cerr << "error: cannot open metrics timeline output "
                  << metrics_ts_out << "\n";
        return false;
      }
      obs::MetricsTimelineOptions options;
      // Under 1 us the sampler would spin; past ~30 years the tick count
      // would overflow.
      options.interval = std::chrono::microseconds(static_cast<long long>(
          std::clamp(metrics_interval_ms * 1000.0, 1.0, 1e15)));
      timeline_ = std::make_unique<obs::MetricsTimeline>(options);
      timeline_->start();
    }
    if (!trace_out.empty()) {
      trace_file_.open(trace_out, std::ios::binary);
      if (!trace_file_) {
        std::cerr << "error: cannot open trace output " << trace_out << "\n";
        return false;
      }
      if (trace_out.size() >= 5 &&
          trace_out.compare(trace_out.size() - 5, 5, ".json") == 0) {
        sink_ = std::make_unique<obs::ChromeTraceSink>(trace_file_);
      } else {
        sink_ = std::make_unique<obs::NdjsonTraceSink>(trace_file_);
      }
      obs::set_trace_sink(sink_.get());
    }
    return true;
  }

  /// Uninstalls the sink, flushes the trace file, and writes the metrics
  /// snapshot. Safe to call more than once.
  void finish() {
    if (sink_) {
      obs::set_trace_sink(nullptr);
      sink_.reset();  // ChromeTraceSink writes its document on destruction
      trace_file_.close();
    }
    if (timeline_) {
      timeline_->stop();
      timeline_->sample_now();  // final post-quiesce cut
      timeline_->flush(timeline_file_);
      timeline_.reset();
      timeline_file_.close();
    }
    if (!metrics_path_.empty()) {
      std::ofstream out(metrics_path_, std::ios::binary);
      if (!out) {
        std::cerr << "error: cannot open metrics output " << metrics_path_
                  << "\n";
      } else {
        out << obs::MetricsRegistry::global().snapshot().to_json();
      }
      metrics_path_.clear();
    }
  }

 private:
  std::ofstream trace_file_;
  std::ofstream timeline_file_;
  std::unique_ptr<obs::TraceSink> sink_;
  std::unique_ptr<obs::MetricsTimeline> timeline_;
  std::string metrics_path_;
};

}  // namespace dbn::tools
