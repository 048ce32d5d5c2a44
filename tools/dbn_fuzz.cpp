// dbn_fuzz — differential conformance fuzzer for every router in the
// library (src/testkit).
//
//   dbn_fuzz [--seed N] [--iters N] [--time-budget SEC] [--max-bfs N]
//            [--no-shrink] [--max-failures N] [--failure-dir DIR] [--quiet]
//   dbn_fuzz --replay <case-file | corpus-dir | inline-case>
//
// An inline replay case uses ':' separators, e.g. --replay
// undirected:2:4:0110:1001 (the corpus file format with spaces replaced).
//
// --failure-dir writes every shrunk disagreement as a replayable
// failure_<n>.case corpus file (with the conformance report and the
// paste-ready regression test as comments) so CI can upload the directory
// as an artifact.
//
// Exit status: 0 when every oracle agrees on every pair, 1 on any
// disagreement (the shrunk reproducer, its corpus line and a paste-ready
// regression test are printed).
#include <algorithm>
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
#include "testkit/fuzzer.hpp"

namespace {

using namespace dbn;

void usage(std::ostream& out) {
  out << "usage:\n"
         "  dbn_fuzz [--seed N] [--iters N] [--time-budget SEC] "
         "[--max-bfs N]\n"
         "           [--no-shrink] [--max-failures N] [--failure-dir DIR] "
         "[--quiet]\n"
         "  dbn_fuzz --replay <case-file | corpus-dir | inline-case>\n"
         "inline cases use ':' separators, e.g. undirected:2:4:0110:1001\n";
}

struct ParsedArgs {
  std::vector<std::string> replays;
  std::string failure_dir;
  bool quiet = false;
  testkit::FuzzOptions fuzz;
};

// Fills `parsed` from argv; returns the status to exit with, or
// std::nullopt to run.
std::optional<int> parse_args(int argc, char** argv, ParsedArgs& parsed) {
  bool no_shrink = false;
  tools::ArgParser parser("dbn_fuzz", 2, usage);
  parser.flag("--seed", parsed.fuzz.seed)
      .flag("--iters", parsed.fuzz.iterations)
      .flag("--time-budget", parsed.fuzz.time_budget_seconds)
      .flag("--max-bfs", parsed.fuzz.oracle_options.max_bfs_vertices)
      .flag("--no-shrink", no_shrink)
      .flag("--max-failures", parsed.fuzz.max_failures)
      .flag("--failure-dir", parsed.failure_dir)
      .flag("--quiet", parsed.quiet)
      .flag("--replay", parsed.replays);
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
    if (fs::is_directory(target)) {
      const auto files = testkit::list_corpus_files(target);
      if (files.empty()) {
        std::cerr << "dbn_fuzz: no *.case files in " << target << "\n";
        return 2;
      }
      const auto dir_failures = testkit::replay_corpus_files(
          files, parsed.fuzz.oracle_options, log);
      failures.insert(failures.end(), dir_failures.begin(),
                      dir_failures.end());
    } else if (fs::is_regular_file(target)) {
      const auto file_failures = testkit::replay_corpus_files(
          {target}, parsed.fuzz.oracle_options, log);
      failures.insert(failures.end(), file_failures.begin(),
                      file_failures.end());
    } else {
      // Inline case with ':' separators.
      std::string line = target;
      std::replace(line.begin(), line.end(), ':', ' ');
      const auto c = testkit::CorpusCase::parse(line);
      const auto report =
          testkit::replay_case(c, parsed.fuzz.oracle_options);
      if (log != nullptr) {
        *log << report.to_string() << "\n";
      }
      if (!report.ok()) {
        failures.push_back(c.to_line() + "\n" + report.to_string());
      }
    }
  }
  if (!failures.empty()) {
    std::cerr << "dbn_fuzz: " << failures.size() << " replay failure(s)\n";
    for (const std::string& f : failures) {
      std::cerr << f << "\n";
    }
    return 1;
  }
  if (log != nullptr) {
    *log << "dbn_fuzz: all replayed cases conform\n";
  }
  return 0;
}

// Writes each shrunk disagreement as a replayable *.case file; returns the
// number written (0 also when the directory cannot be created).
std::size_t write_failure_cases(const std::string& dir,
                                const testkit::FuzzReport& report) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    std::cerr << "dbn_fuzz: cannot create --failure-dir " << dir << ": "
              << ec.message() << "\n";
    return 0;
  }
  std::size_t written = 0;
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    const testkit::FuzzFailure& failure = report.failures[i];
    const fs::path path =
        fs::path(dir) / ("failure_" + std::to_string(i) + ".case");
    std::ofstream file(path);
    if (!file) {
      std::cerr << "dbn_fuzz: cannot write " << path.string() << "\n";
      continue;
    }
    file << "# shrunk reproducer " << i << " (replay with: dbn_fuzz --replay "
         << path.filename().string() << ")\n"
         << "# original: " << failure.original.to_line() << "\n";
    std::istringstream annotate(failure.report + "\n" + failure.snippet);
    for (std::string line; std::getline(annotate, line);) {
      file << "# " << line << "\n";
    }
    file << failure.shrunk.to_line() << "\n";
    ++written;
  }
  return written;
}

int run_fuzz_loop(ParsedArgs& parsed) {
  if (!parsed.quiet) {
    parsed.fuzz.log = &std::cout;
  }
  const testkit::FuzzReport report = testkit::run_fuzz(parsed.fuzz);
  if (!parsed.quiet) {
    std::cout << "dbn_fuzz: " << report.iterations_run << " iterations in "
              << report.elapsed_seconds << "s across "
              << report.point_coverage.size() << " (network, d, k) points\n";
    for (const auto& [point, count] : report.point_coverage) {
      std::cout << "  " << point << ": " << count << " pairs\n";
    }
  }
  if (!report.ok()) {
    std::cerr << "dbn_fuzz: " << report.failures.size()
              << " disagreement(s); shrunk reproducers:\n";
    for (const auto& failure : report.failures) {
      std::cerr << "  " << failure.shrunk.to_line() << "\n"
                << failure.report << "\n"
                << failure.snippet << "\n";
    }
    if (!parsed.failure_dir.empty()) {
      const std::size_t written =
          write_failure_cases(parsed.failure_dir, report);
      std::cerr << "dbn_fuzz: wrote " << written << " case file(s) to "
                << parsed.failure_dir << "\n";
    }
    return 1;
  }
  if (!parsed.quiet) {
    std::cout << "dbn_fuzz: zero disagreements across all oracles\n";
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
    if (!parsed.replays.empty()) {
      return run_replays(parsed);
    }
    return run_fuzz_loop(parsed);
  } catch (const dbn::ContractViolation& e) {
    std::cerr << "dbn_fuzz: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "dbn_fuzz: " << e.what() << "\n";
    return 2;
  }
}
