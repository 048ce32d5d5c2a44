// perfbench — the repository benchmark's measuring program (run through
// perfbench/run.py, which builds it, checks its metric names against
// BENCHMARK.json and prints the result line).
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 [--trace-out F]
//   perfbench --self-test
//
// Prints "# "-prefixed human-readable lines, then one JSON object: the
// end-to-end metrics always, and with --trace 1 every per-layer metric
// (0 where the layer is not on the workload's path, listed under "na").
#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <string_view>

#include "common/contract.hpp"
#include "obs/json.hpp"
#include "util.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Per-layer metrics, in BENCHMARK.json's order (run.py checks the match).
constexpr MetricSpec kLayerMetrics[] = {
    {"serve.decode_ns", "ns"},       {"serve.encode_ns", "ns"},
    {"serve.engine_ns", "ns"},       {"serve.queue_us", "us"},
    {"serve.route_us", "us"},        {"serve.respond_us", "us"},
    {"serve.transport_us", "us"},    {"serve.batch_size", "count"},
    {"serve.frames_per_read", "ratio"}, {"serve.dispatcher_busy", "ratio"},
    {"serve.rejected", "count"},     {"serve.lateness_us", "us"},
    {"kernel.distance_ns", "ns"},    {"kernel.route_ns", "ns"},
    {"batch.t1_ns", "ns"},           {"batch.speedup", "ratio"},
    {"layer.lookups", "count"},      {"layer.hits", "count"},
    {"layer.builds", "count"},       {"layer.evictions", "count"},
    {"layer.build_us", "us"},        {"layer.classify_ns", "ns"},
    {"distance.undirected_ns", "ns"}, {"sim.inject_s", "s"},
    {"sim.run_s", "s"},              {"sim.hops", "count"},
    {"sim.event_ns", "ns"},          {"sim.dropped.fault", "count"},
    {"sim.dropped.link", "count"},   {"sim.dropped.overflow", "count"},
    {"sim.dropped.misdelivered", "count"}, {"sim.dropped.ttl", "count"},
    {"trace.overhead", "ratio"},     {"trace.coverage", "ratio"},
};

int usage() {
  std::cerr << "usage: perfbench --workload serve_inproc|serve_bulk|serve_open|"
               "batch_k128|sim_saturation --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n"
               "       perfbench --self-test\n";
  return 2;
}

int cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    return CPU_COUNT(&set);
  }
  return static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN));
}

// The rows must account for the traced figure within this share of it.
constexpr double kAttributionAllowance = 0.10;

double row_sum(const Attribution& a) {
  double sum = 0.0;
  for (const AttributionRow& r : a.rows) {
    sum += r.self_per_op;
  }
  return sum;
}

/// Prints the table: the measured rows, their sum against the traced
/// figure, then the leftover apart. Returns what falls outside the
/// allowance: a row below -10% of the figure (a self time whose children
/// were overestimated), or a leftover beyond +-10% of it.
std::vector<std::string> print_attribution(const Attribution& a) {
  std::vector<std::string> problems;
  if (a.rows.empty() || !(a.traced > 0.0)) {
    return problems;
  }
  const double sum = row_sum(a);
  const double leftover = a.traced - sum;
  std::cout << "# attribution of " << a.figure << ": untraced "
            << full_digits(a.untraced) << ", traced " << full_digits(a.traced)
            << "\n";
  char line[256];
  for (const AttributionRow& r : a.rows) {
    std::snprintf(line, sizeof(line), "#   %-22s %12.3f  %5.1f%%  ",
                  r.layer.c_str(), r.self_per_op, 100.0 * r.self_per_op / a.traced);
    std::cout << line << r.how << "\n";
    if (r.self_per_op < -kAttributionAllowance * a.traced) {
      problems.push_back(r.layer + " is below -10% of the figure: a row it subtracts is too large");
    }
  }
  std::snprintf(line, sizeof(line), "#   %-22s %12.3f  = %.3f of traced (trace.coverage)\n",
                "sum of measured rows", sum, sum / a.traced);
  std::cout << line;
  std::snprintf(line, sizeof(line), "#   %-22s %12.3f  %5.1f%%  ", "leftover", leftover,
                100.0 * leftover / a.traced);
  std::cout << line << a.leftover << "\n";
  if (std::abs(leftover) > kAttributionAllowance * a.traced) {
    problems.push_back("the rows leave " + full_digits(100.0 * leftover / a.traced) +
                       "% of the traced figure, beyond the 10% allowance");
  }
  return problems;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  bool self_test = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string {
      return i + 1 < argc ? std::string(argv[++i]) : std::string();
    };
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--workload") {
      options.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--trace-out") {
      options.trace_out = value();
    } else {
      return usage();
    }
  }
  if (self_test) {
    return run_selftest();
  }
  if (!have_workload || !(options.seconds > 0.0)) {
    return usage();
  }
  spans().enable(options.trace);

  const std::string host =
      "nproc=" + std::to_string(cpu_count()) +
      " build_type=" + PERFBENCH_BUILD_TYPE +
      " contract_level=" + std::to_string(dbn::contract_level()) +
      " compiler=" + PERFBENCH_COMPILER;
  std::cout << "# perfbench workload=" << options.workload
            << " seed=" << options.seed << " seconds=" << options.seconds
            << " trace=" << (options.trace ? 1 : 0) << "\n# host " << host
            << "\n";

  Result result;
  try {
    if (options.workload == "serve_inproc") {
      result = run_serve(options, ServeMode::InProcess);
    } else if (options.workload == "serve_bulk") {
      result = run_serve(options, ServeMode::Bulk);
    } else if (options.workload == "serve_open") {
      result = run_serve(options, ServeMode::Open);
    } else if (options.workload == "batch_k128") {
      result = run_batch(options);
    } else if (options.workload == "sim_saturation") {
      result = run_sim(options);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  result.set("peak_rss_mb", peak_rss_mb(), "MB");

  std::vector<std::string> na;
  if (options.trace) {
    const Attribution& a = result.attribution;
    // Self times come from the traced parts of the window, so they account
    // for the traced figure; the gap between the traced and untraced
    // figures is the tracing overhead.
    if (a.untraced > 0.0 && a.traced > 0.0) {
      result.set("trace.overhead", a.traced / a.untraced - 1.0, "ratio");
      result.set("trace.coverage", row_sum(a) / a.traced, "ratio");
    }
    for (const MetricSpec& m : kLayerMetrics) {
      if (result.metrics.find(m.name) == result.metrics.end()) {
        result.set(m.name, 0.0, m.unit);
        na.emplace_back(m.name);
      }
    }
  }

  const double failed_frac =
      result.attempted == 0 ? 0.0
                            : static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted);
  std::cout << "# failed_frac " << full_digits(failed_frac) << " frac ("
            << result.failed << " of " << result.attempted << ")\n";
  for (const auto& [key, value] : result.info) {
    std::cout << "# " << key << ": " << value << "\n";
  }
  for (const std::string& p : result.problems) {
    std::cout << "# PROBLEM: " << p << "\n";
  }
  // An attribution gap is a finding about the measurement, not a wrong
  // answer: it is printed, and trace.coverage carries it, but the run's
  // answers stay correct.
  for (const std::string& p : print_attribution(result.attribution)) {
    std::cout << "# PROBLEM (attribution): " << p << "\n";
  }
  if (options.trace && !options.trace_out.empty()) {
    std::vector<std::pair<std::string, std::string>> meta = {
        {"workload", options.workload},
        {"seed", std::to_string(options.seed)},
        {"host", host}};
    if (!spans().write(options.trace_out, meta)) {
      std::cerr << "perfbench: cannot write " << options.trace_out << "\n";
    }
    for (const auto& [name, us] : spans().self_times_us()) {
      std::cout << "# span self time " << name << ": " << full_digits(us)
                << " us\n";
    }
  }

  std::cout << "{\"workload\":\"" << dbn::obs::json_escape(options.workload)
            << "\",\"correct\":" << (result.correct ? "true" : "false")
            << ",\"attempted\":" << result.attempted
            << ",\"failed\":" << result.failed
            << ",\"failed_frac\":" << full_digits(failed_frac)
            << ",\"host\":\"" << dbn::obs::json_escape(host)
            << "\",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : result.metrics) {
    std::cout << (first ? "" : ",") << "\"" << dbn::obs::json_escape(name)
              << "\":{\"value\":" << full_digits(m.value) << ",\"unit\":\""
              << m.unit << "\"}";
    first = false;
  }
  std::cout << "},\"na\":[";
  for (std::size_t i = 0; i < na.size(); ++i) {
    std::cout << (i == 0 ? "" : ",") << "\"" << na[i] << "\"";
  }
  std::cout << "]}" << std::endl;
  return 0;
}
