// dbn_chaos — failure-scenario fuzzer for the network stack (src/net/),
// built on the chaos engine (src/testkit/chaos.hpp).
//
//   dbn_chaos [--seed N] [--iters N] [--time-budget SEC] [--no-shrink]
//             [--max-failures N] [--failure-dir DIR] [--quiet]
//             [--policy source|greedy|deflect|layer]
//   dbn_chaos --replay <scenario.chaos | directory>
//             [--policy source|greedy|deflect|layer]
//
// Both modes accept --trace-out FILE (simulator send/deliver/drop/fault
// events plus the reliable-transfer attempt stream, as trace/1 NDJSON, or
// Chrome trace_event JSON when FILE ends in ".json") and --metrics-out FILE
// (metrics/1 snapshot of the global registry after the run).
//
// The fuzz loop samples random fault schedules + traffic, runs each
// scenario to quiescence twice (determinism is one of the invariants),
// checks the chaos invariants, and greedily shrinks any violation.
// --failure-dir writes every shrunk violation as a replayable
// failure_<n>.chaos scenario (violations annotated as comments) so CI can
// upload the directory as an artifact.
//
// Exit status: 0 when every scenario holds every invariant, 1 on any
// violation.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "args.hpp"
#include "common/contract.hpp"
#include "obs_flags.hpp"
#include "testkit/chaos.hpp"

namespace {

using namespace dbn;

void usage(std::ostream& out) {
  out << "usage:\n"
         "  dbn_chaos [--seed N] [--iters N] [--time-budget SEC] "
         "[--no-shrink]\n"
         "            [--max-failures N] [--failure-dir DIR] [--quiet]\n"
         "  dbn_chaos --replay <scenario.chaos | directory>\n"
         "both modes accept --trace-out FILE, --metrics-out FILE and\n"
         "--policy source|greedy|deflect|layer (pins the forwarding policy\n"
         "of every fuzzed scenario / overrides it on replay)\n";
}

struct ParsedArgs {
  std::vector<std::string> replays;
  std::string failure_dir;
  std::string trace_out;
  std::string metrics_out;
  bool quiet = false;
  testkit::ChaosFuzzOptions fuzz;
};

// Fills `parsed` from argv; returns the status to exit with, or
// std::nullopt to run.
std::optional<int> parse_args(int argc, char** argv, ParsedArgs& parsed) {
  bool no_shrink = false;
  tools::ArgParser parser("dbn_chaos", 2, usage);
  parser.flag("--seed", parsed.fuzz.seed)
      .flag("--iters", parsed.fuzz.iterations)
      .flag("--time-budget", parsed.fuzz.time_budget_seconds)
      .flag("--no-shrink", no_shrink)
      .flag("--max-failures", parsed.fuzz.max_failures)
      .flag("--failure-dir", parsed.failure_dir)
      .flag("--quiet", parsed.quiet)
      .flag("--policy", parsed.fuzz.policy, testkit::chaos_policy_from_name)
      .flag("--replay", parsed.replays)
      .flag("--trace-out", parsed.trace_out)
      .flag("--metrics-out", parsed.metrics_out);
  const auto status =
      parser.parse(std::vector<std::string_view>(argv + 1, argv + argc));
  parsed.fuzz.shrink = !no_shrink;
  return status;
}

int run_replays(const ParsedArgs& parsed) {
  namespace fs = std::filesystem;
  std::ostream* log = parsed.quiet ? nullptr : &std::cout;
  std::vector<std::string> failures;
  for (const std::string& target : parsed.replays) {
    std::vector<std::string> files;
    if (fs::is_directory(target)) {
      files = testkit::list_chaos_files(target);
      if (files.empty()) {
        std::cerr << "dbn_chaos: no *.chaos files in " << target << "\n";
        return 2;
      }
    } else if (fs::is_regular_file(target)) {
      files.push_back(target);
    } else {
      std::cerr << "dbn_chaos: no such file or directory: " << target << "\n";
      return 2;
    }
    const auto file_failures =
        testkit::replay_chaos_files(files, log, parsed.fuzz.policy);
    failures.insert(failures.end(), file_failures.begin(),
                    file_failures.end());
  }
  if (!failures.empty()) {
    std::cerr << "dbn_chaos: " << failures.size() << " replay violation(s)\n";
    for (const std::string& f : failures) {
      std::cerr << "  " << f << "\n";
    }
    return 1;
  }
  if (log != nullptr) {
    *log << "dbn_chaos: all replayed scenarios hold every invariant\n";
  }
  return 0;
}

// Writes each shrunk violation as a replayable *.chaos file; returns the
// number written (0 also when the directory cannot be created).
std::size_t write_failure_scenarios(const std::string& dir,
                                    const testkit::ChaosFuzzReport& report) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    std::cerr << "dbn_chaos: cannot create --failure-dir " << dir << ": "
              << ec.message() << "\n";
    return 0;
  }
  std::size_t written = 0;
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    const testkit::ChaosFailure& failure = report.failures[i];
    const fs::path path =
        fs::path(dir) / ("failure_" + std::to_string(i) + ".chaos");
    std::ofstream file(path);
    if (!file) {
      std::cerr << "dbn_chaos: cannot write " << path.string() << "\n";
      continue;
    }
    file << "# shrunk chaos reproducer " << i
         << " (replay with: dbn_chaos --replay " << path.filename().string()
         << ")\n# violations:\n";
    std::istringstream details(failure.details);
    for (std::string line; std::getline(details, line);) {
      file << "#   " << line << "\n";
    }
    file << "# original scenario had " << failure.original.transfers.size()
         << " transfer(s), " << failure.original.schedule.size()
         << " fault event(s) on d=" << failure.original.d
         << " k=" << failure.original.k << "\n";
    file << failure.shrunk.to_text();
    ++written;
  }
  return written;
}

int run_fuzz_loop(ParsedArgs& parsed) {
  if (!parsed.quiet) {
    parsed.fuzz.log = &std::cout;
  }
  const testkit::ChaosFuzzReport report = testkit::run_chaos_fuzz(parsed.fuzz);
  if (!parsed.quiet) {
    std::cout << "dbn_chaos: " << report.iterations_run << " scenarios in "
              << report.elapsed_seconds << "s across "
              << report.point_coverage.size() << " (d, k) points\n";
    for (const auto& [point, count] : report.point_coverage) {
      std::cout << "  " << point << ": " << count << " scenarios\n";
    }
  }
  if (!report.ok()) {
    std::cerr << "dbn_chaos: " << report.failures.size()
              << " invariant violation(s); shrunk reproducers:\n";
    for (const auto& failure : report.failures) {
      std::cerr << failure.shrunk.to_text() << failure.details << "\n";
    }
    if (!parsed.failure_dir.empty()) {
      const std::size_t written =
          write_failure_scenarios(parsed.failure_dir, report);
      std::cerr << "dbn_chaos: wrote " << written << " scenario file(s) to "
                << parsed.failure_dir << "\n";
    }
    return 1;
  }
  if (!parsed.quiet) {
    std::cout << "dbn_chaos: zero invariant violations\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    ParsedArgs parsed;
    if (const auto status = parse_args(argc, argv, parsed)) {
      return *status;
    }
    dbn::tools::ObsWriter obs_writer;
    if (!obs_writer.setup(parsed.trace_out, parsed.metrics_out)) {
      return 2;
    }
    if (!parsed.replays.empty()) {
      return run_replays(parsed);
    }
    return run_fuzz_loop(parsed);
  } catch (const dbn::ContractViolation& e) {
    std::cerr << "dbn_chaos: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "dbn_chaos: " << e.what() << "\n";
    return 2;
  }
}
