// dbn_bench — batch-routing throughput runner with JSON perf reporting.
//
// Times BatchRouteEngine over a (d, k) grid for a sweep of thread counts
// and backends, and emits a normalized JSON document (schema "dbn-bench/1",
// documented in docs/benchmarking.md) that scripts/bench_report.py merges
// into the committed BENCH_<date>.json baselines.
//
//   dbn_bench [--smoke] [--d N] [--k N] [--queries N] [--repeats N]
//             [--threads CSV] [--backends CSV] [--cache N] [--flows N]
//             [--json PATH] [--min-speedup X] [--speedup-threads N]
//             [--trace-out PATH] [--metrics-out PATH] [--quiet]
//
// Backends: alg1-directed | bidi-engine.
// --flows F > 0 cycles F hot pairs through the batch (the cache regime);
// --cache N enables the per-worker memo with N entries in total.
// --smoke selects the CI smoke grid (d=2, k=10, 32768 queries, repeats 3,
// threads 1,2,4,8, backends alg1-directed + bidi-engine) and adds a cached
// bidi-engine sweep.
//
// --min-speedup X gates the uncached bidi-engine speedup over one thread
// at t = min(--speedup-threads (default 8), hardware threads), adding t
// and 1 to the sweep when missing. It fails (exit 3) below
// X * t / --speedup-threads, so a host with fewer cores is held to the
// same per-core bar, and skips only on a 1-thread host, which cannot
// exhibit parallel speedup.
//
// --trace-out PATH runs one extra *traced* pass (capped at 4096 queries so
// the file stays manageable) after the timed sweep — the timed runs stay
// untraced — and exports it as Chrome trace_event JSON when PATH ends in
// ".json" (per-worker lanes in Perfetto), trace/1 NDJSON otherwise.
// --metrics-out PATH snapshots the global metrics registry (batch.* query
// and cache counters accumulated across the whole sweep) as metrics/1.
//
// Exit status 3: failed speedup check.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/contract.hpp"
#include "common/rng.hpp"
#include "common/schema.hpp"
#include "core/batch_route_engine.hpp"
#include "args.hpp"
#include "obs_flags.hpp"

namespace {

using namespace dbn;

struct BenchConfig {
  std::uint32_t d = 2;
  std::size_t k = 10;
  std::size_t queries = 32768;
  std::size_t repeats = 3;
  std::vector<std::size_t> threads = {1, 2, 4, 8};
  std::vector<BatchBackend> backends = {BatchBackend::BidiEngine};
  std::size_t cache_entries = 0;  // explicit --cache run
  std::size_t flows = 0;
  bool smoke = false;
  bool quiet = false;
  std::string json_path;
  std::string trace_out;
  std::string metrics_out;
  double min_speedup = 0.0;
  std::size_t speedup_threads = 8;
};

struct ResultRow {
  std::string name;
  std::string backend;
  std::size_t threads = 1;
  std::size_t cache_entries = 0;
  std::size_t flows = 0;
  std::size_t queries = 0;
  double best_ns_per_query = 0.0;
  double qps = 0.0;
  double speedup_vs_1t = 1.0;
  double cache_hit_rate = 0.0;
};


// The speedup gate's thread count: a host can only show the parallelism
// its hardware threads allow.
std::size_t gate_threads(const BenchConfig& config) {
  return std::min<std::size_t>(
      config.speedup_threads,
      std::max(1u, std::thread::hardware_concurrency()));
}

// A CSV list, empty items skipped, with each item mapped by `parse`;
// std::nullopt if any item does not map.
template <typename T>
std::optional<std::vector<T>> parse_csv(
    std::string_view text, std::optional<T> (*parse)(std::string_view)) {
  std::vector<T> items;
  std::stringstream stream{std::string(text)};
  for (std::string part; std::getline(stream, part, ',');) {
    if (part.empty()) {
      continue;
    }
    const std::optional<T> item = parse(part);
    if (!item) {
      return std::nullopt;
    }
    items.push_back(*item);
  }
  return items;
}

std::optional<BatchBackend> parse_backend(std::string_view name) {
  if (name == "alg1-directed" || name == "alg1") {
    return BatchBackend::Alg1Directed;
  }
  if (name == "bidi-engine" || name == "engine") {
    return BatchBackend::BidiEngine;
  }
  return std::nullopt;
}

std::vector<RouteQuery> make_queries(const BenchConfig& config) {
  Rng rng(config.k * 1000003 + config.d);
  const auto random_word = [&rng, &config] {
    std::vector<Digit> digits(config.k);
    for (auto& digit : digits) {
      digit = static_cast<Digit>(rng.below(config.d));
    }
    return Word(config.d, std::move(digits));
  };
  std::vector<RouteQuery> queries;
  queries.reserve(config.queries);
  if (config.flows > 0) {
    std::vector<RouteQuery> hot;
    hot.reserve(config.flows);
    for (std::size_t i = 0; i < config.flows; ++i) {
      hot.push_back(RouteQuery{random_word(), random_word()});
    }
    for (std::size_t i = 0; i < config.queries; ++i) {
      queries.push_back(hot[i % config.flows]);
    }
  } else {
    for (std::size_t i = 0; i < config.queries; ++i) {
      queries.push_back(RouteQuery{random_word(), random_word()});
    }
  }
  return queries;
}

ResultRow run_one(const BenchConfig& config, BatchBackend backend,
                  std::size_t threads, std::size_t cache_entries,
                  const std::vector<RouteQuery>& queries) {
  BatchRouteEngine engine(
      config.d, config.k,
      BatchRouteOptions{.backend = backend,
                        .threads = threads,
                        .chunk = 256,
                        .cache_entries = cache_entries});
  std::vector<RoutingPath> out;
  engine.route_batch_into(queries, out);  // warmup (and cache fill)
  double best_seconds = -1.0;
  for (std::size_t repeat = 0; repeat < config.repeats; ++repeat) {
    const auto start = std::chrono::steady_clock::now();
    engine.route_batch_into(queries, out);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (best_seconds < 0 || elapsed.count() < best_seconds) {
      best_seconds = elapsed.count();
    }
  }
  ResultRow row;
  row.backend = std::string(batch_backend_name(backend));
  row.name = "batch/" + row.backend +
             (cache_entries > 0 ? "+cache" : "") + "/t" +
             std::to_string(threads);
  row.threads = threads;
  row.cache_entries = cache_entries;
  row.flows = config.flows;
  row.queries = queries.size();
  row.best_ns_per_query =
      best_seconds * 1e9 / static_cast<double>(queries.size());
  row.qps = static_cast<double>(queries.size()) / best_seconds;
  const BatchStats& stats = engine.last_stats();
  row.cache_hit_rate =
      stats.cache_lookups == 0
          ? 0.0
          : static_cast<double>(stats.cache_hits) /
                static_cast<double>(stats.cache_lookups);
  return row;
}

std::string utc_timestamp() {
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
  gmtime_r(&now, &tm_utc);
  char buffer[32];
  std::strftime(buffer, sizeof(buffer), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  return buffer;
}

std::string json_escape_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

void write_json(std::ostream& out, const BenchConfig& config,
                const std::vector<ResultRow>& rows) {
  out << "{\n"
      << "  \"schema\": \"" << dbn::schema::kBench << "\",\n"
      << "  \"generated_by\": \"dbn_bench\",\n"
      << "  \"date_utc\": \"" << utc_timestamp() << "\",\n"
      << "  \"host\": {\"hardware_threads\": "
      << std::thread::hardware_concurrency() << "},\n"
      << "  \"grid\": {\"d\": " << config.d << ", \"k\": " << config.k
      << ", \"queries\": " << config.queries
      << ", \"repeats\": " << config.repeats << "},\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ResultRow& row = rows[i];
    out << "    {\"name\": \"" << row.name << "\", \"backend\": \""
        << row.backend << "\", \"threads\": " << row.threads
        << ", \"cache_entries\": " << row.cache_entries
        << ", \"flows\": " << row.flows << ", \"queries\": " << row.queries
        << ", \"best_ns_per_query\": "
        << json_escape_number(row.best_ns_per_query)
        << ", \"qps\": " << json_escape_number(row.qps)
        << ", \"speedup_vs_1t\": " << json_escape_number(row.speedup_vs_1t)
        << ", \"cache_hit_rate\": " << json_escape_number(row.cache_hit_rate)
        << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

void fill_speedups(std::vector<ResultRow>& rows) {
  for (ResultRow& row : rows) {
    if (row.threads == 1) {
      continue;
    }
    for (const ResultRow& base : rows) {
      if (base.threads == 1 && base.backend == row.backend &&
          base.cache_entries == row.cache_entries) {
        row.speedup_vs_1t = base.best_ns_per_query / row.best_ns_per_query;
        break;
      }
    }
  }
}

void usage(std::ostream& out) {
  out << "usage: dbn_bench [--smoke] [--d N] [--k N] [--queries N]\n"
         "                 [--repeats N] [--threads CSV] [--backends CSV]\n"
         "                 [--cache N] [--flows N] [--json PATH]\n"
         "                 [--min-speedup X] [--speedup-threads N]\n"
         "                 [--trace-out PATH] [--metrics-out PATH] [--quiet]\n"
         "backends: alg1-directed bidi-engine\n";
}

// Fills `config` from argv; returns the status to exit with, or
// std::nullopt to run.
std::optional<int> parse_args(int argc, char** argv, BenchConfig& config) {
  // --smoke gates at 3x unless --min-speedup says otherwise (0 = off).
  std::optional<double> min_speedup;
  tools::ArgParser parser("dbn_bench", 2, usage);
  parser.flag("--smoke", config.smoke)
      .flag("--d", config.d)
      .flag("--k", config.k)
      .flag("--queries", config.queries)
      .flag("--repeats", config.repeats)
      .flag("--threads", config.threads,
            [](std::string_view text) {
              return parse_csv(text, tools::parse_number<std::size_t>);
            })
      .flag("--backends", config.backends,
            [](std::string_view text) {
              return parse_csv(text, parse_backend);
            })
      .flag("--cache", config.cache_entries)
      .flag("--flows", config.flows)
      .flag("--json", config.json_path)
      .flag("--min-speedup", min_speedup)
      .flag("--speedup-threads", config.speedup_threads)
      .flag("--trace-out", config.trace_out)
      .flag("--metrics-out", config.metrics_out)
      .flag("--quiet", config.quiet);
  if (const auto status =
          parser.parse(std::vector<std::string_view>(argv + 1, argv + argc))) {
    return status;
  }
  if (config.smoke) {
    config.d = 2;
    config.k = 10;
    config.queries = 32768;
    config.repeats = 3;
    config.threads = {1, 2, 4, 8};
    config.backends = {BatchBackend::Alg1Directed, BatchBackend::BidiEngine};
  }
  config.min_speedup = min_speedup.value_or(config.smoke ? 3.0 : 0.0);
  if (config.min_speedup > 0.0) {
    for (const std::size_t t : {std::size_t{1}, gate_threads(config)}) {
      if (std::find(config.threads.begin(), config.threads.end(), t) ==
          config.threads.end()) {
        config.threads.push_back(t);
      }
    }
  }
  if (config.d == 0 || config.k == 0) {
    return parser.fail("--d and --k must be at least 1");
  }
  if (config.threads.empty() || config.backends.empty() ||
      config.queries == 0 || config.repeats == 0) {
    return parser.fail("empty sweep");
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    BenchConfig config;
    if (const auto status = parse_args(argc, argv, config)) {
      return *status;
    }
    std::vector<ResultRow> rows;
    {
      BenchConfig uniform = config;
      uniform.flows = 0;
      const std::vector<RouteQuery> queries = make_queries(uniform);
      for (const BatchBackend backend : config.backends) {
        for (const std::size_t threads : config.threads) {
          rows.push_back(run_one(uniform, backend, threads,
                                 config.cache_entries, queries));
          if (!config.quiet) {
            const ResultRow& row = rows.back();
            std::cerr << "dbn_bench: " << row.name << "  "
                      << row.best_ns_per_query << " ns/query  " << row.qps
                      << " qps\n";
          }
        }
      }
    }
    if (config.smoke) {
      // Cached sweep: 64 hot flows through the per-worker memos.
      BenchConfig cached = config;
      cached.flows = 64;
      const std::vector<RouteQuery> queries = make_queries(cached);
      for (const std::size_t threads : config.threads) {
        rows.push_back(
            run_one(cached, BatchBackend::BidiEngine, threads, 4096, queries));
        if (!config.quiet) {
          const ResultRow& row = rows.back();
          std::cerr << "dbn_bench: " << row.name << "  "
                    << row.best_ns_per_query << " ns/query  hit_rate "
                    << row.cache_hit_rate << "\n";
        }
      }
    }
    fill_speedups(rows);
    if (!config.trace_out.empty() || !config.metrics_out.empty()) {
      // Observability pass — after the timed sweep, so timings above are
      // untraced. The traced batch is capped to keep the file manageable.
      dbn::tools::ObsWriter writer;
      if (!writer.setup(config.trace_out, config.metrics_out)) {
        return 2;
      }
      if (!config.trace_out.empty()) {
        BenchConfig traced = config;
        traced.flows = 0;
        std::vector<RouteQuery> queries = make_queries(traced);
        if (queries.size() > 4096) {
          queries.erase(queries.begin() + 4096, queries.end());
        }
        BatchRouteEngine engine(
            config.d, config.k,
            BatchRouteOptions{.backend = config.backends.front(),
                              .threads = config.threads.back(),
                              .chunk = 256,
                              .cache_entries = config.cache_entries});
        std::vector<RoutingPath> out;
        engine.route_batch_into(queries, out);
        if (!config.quiet) {
          std::cerr << "dbn_bench: traced pass (" << queries.size()
                    << " queries, " << config.threads.back()
                    << " threads) -> " << config.trace_out << "\n";
        }
      }
      writer.finish();
    }
    if (!config.json_path.empty()) {
      std::ofstream file(config.json_path);
      if (!file) {
        std::cerr << "dbn_bench: cannot write " << config.json_path << "\n";
        return 2;
      }
      write_json(file, config, rows);
    } else {
      write_json(std::cout, config, rows);
    }
    if (config.min_speedup > 0.0) {
      const std::size_t threads = gate_threads(config);
      if (threads < 2) {
        std::cerr << "dbn_bench: skipping speedup check (host has 1 "
                     "hardware thread)\n";
        return 0;
      }
      const double required = config.min_speedup *
                              static_cast<double>(threads) /
                              static_cast<double>(config.speedup_threads);
      for (const ResultRow& row : rows) {
        if (row.backend == batch_backend_name(BatchBackend::BidiEngine) &&
            row.cache_entries == 0 && row.threads == threads) {
          if (row.speedup_vs_1t < required) {
            std::cerr << "dbn_bench: FAIL speedup " << row.speedup_vs_1t
                      << "x at " << row.threads << " threads < required "
                      << required << "x\n";
            return 3;
          }
          std::cerr << "dbn_bench: speedup check ok (" << row.speedup_vs_1t
                    << "x at " << row.threads << " threads >= " << required
                    << "x)\n";
        }
      }
    }
    return 0;
  } catch (const dbn::ContractViolation& e) {
    std::cerr << "dbn_bench: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "dbn_bench: " << e.what() << "\n";
    return 2;
  }
}
