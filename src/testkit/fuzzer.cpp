#include "testkit/fuzzer.hpp"

#include <chrono>
#include <map>
#include <memory>
#include <sstream>

#include "common/contract.hpp"
#include "testkit/shrinker.hpp"
#include "testkit/word_families.hpp"

namespace dbn::testkit {

namespace {

// One (network, d, k) point of the fuzz schedule.
struct FuzzPoint {
  NetworkFamily family;
  std::uint32_t d;
  std::size_t k;
};

// The schedule mixes the exhaustively BFS-checkable region, degenerate
// parameters (d=1, k=1), the large-k formula-only region (agreement
// between the O(k), O(k^2) and greedy engines, no BFS; past 2^64
// vertices no greedy either) and the Kautz sibling family. Larger-radix
// points keep digits within the corpus alphabet (<= 36).
std::vector<FuzzPoint> fuzz_schedule() {
  std::vector<FuzzPoint> points;
  for (const auto orientation :
       {NetworkFamily::DeBruijnDirected, NetworkFamily::DeBruijnUndirected}) {
    // Degenerate corners.
    points.push_back({orientation, 1, 1});
    points.push_back({orientation, 1, 4});
    points.push_back({orientation, 2, 1});
    points.push_back({orientation, 11, 1});
    // BFS-checkable interior.
    points.push_back({orientation, 2, 2});
    points.push_back({orientation, 2, 4});
    points.push_back({orientation, 2, 6});
    points.push_back({orientation, 2, 8});
    points.push_back({orientation, 3, 3});
    points.push_back({orientation, 3, 5});
    points.push_back({orientation, 4, 4});
    points.push_back({orientation, 5, 3});
    points.push_back({orientation, 7, 2});
    points.push_back({orientation, 11, 3});
    // Formula-only region (d^k too big for BFS): the linear kernels,
    // quadratic scan and greedy walks must still agree with each other.
    points.push_back({orientation, 2, 16});
    // k = 32 is the engine's diagonal pass's last length at every radix
    // it takes; k = 33 is the offset sweep's first.
    points.push_back({orientation, 2, 32});
    points.push_back({orientation, 4, 32});
    points.push_back({orientation, 16, 32});
    points.push_back({orientation, 2, 33});
    points.push_back({orientation, 3, 12});
    points.push_back({orientation, 10, 7});
    // d > 16 keeps the engine's in-place Algorithm 3 scan fuzzed.
    points.push_back({orientation, 20, 6});
    // Past 2^64 vertices (formula oracles only): words on the 128-bit
    // and 4- and 8-limb lanes, across limb boundaries, and d = 2 just
    // past the widest lane (the in-place scan).
    points.push_back({orientation, 2, 65});
    points.push_back({orientation, 2, 130});
    points.push_back({orientation, 2, 257});
    points.push_back({orientation, 2, 513});
    points.push_back({orientation, 4, 100});
    points.push_back({orientation, 16, 40});
  }
  points.push_back({NetworkFamily::Kautz, 1, 3});
  points.push_back({NetworkFamily::Kautz, 2, 2});
  points.push_back({NetworkFamily::Kautz, 2, 4});
  points.push_back({NetworkFamily::Kautz, 3, 3});
  points.push_back({NetworkFamily::Kautz, 4, 3});
  return points;
}

class SetCache {
 public:
  explicit SetCache(const OracleOptions& options) : options_(options) {}

  const OracleSet& get(NetworkFamily family, std::uint32_t d, std::size_t k) {
    const std::tuple<NetworkFamily, std::uint32_t, std::size_t> key{family, d,
                                                                    k};
    auto it = sets_.find(key);
    if (it == sets_.end()) {
      std::unique_ptr<OracleSet> set;
      if (family == NetworkFamily::Kautz) {
        set = std::make_unique<OracleSet>(OracleSet::kautz(d, k, options_));
      } else {
        set = std::make_unique<OracleSet>(OracleSet::debruijn(
            d, k,
            family == NetworkFamily::DeBruijnDirected
                ? Orientation::Directed
                : Orientation::Undirected,
            options_));
      }
      it = sets_.emplace(key, std::move(set)).first;
    }
    return *it->second;
  }

 private:
  OracleOptions options_;
  std::map<std::tuple<NetworkFamily, std::uint32_t, std::size_t>,
           std::unique_ptr<OracleSet>>
      sets_;
};

CorpusCase make_case(NetworkFamily family, std::uint32_t d, const Word& x,
                     const Word& y) {
  CorpusCase c;
  c.family = family;
  c.d = d;
  c.k = x.length();
  for (std::size_t i = 0; i < x.length(); ++i) {
    c.x.push_back(x.digit(i));
  }
  for (std::size_t i = 0; i < y.length(); ++i) {
    c.y.push_back(y.digit(i));
  }
  return c;
}

// The shrinker's predicate: "this pair, at its current length/radix, still
// makes some oracle of the same network family disagree". Pairs that leave
// the predicate's domain (radix shrunk below what the family supports,
// Kautz adjacency broken by an edit) simply do not fail.
FailPredicate conformance_predicate(SetCache& cache, NetworkFamily family) {
  return [&cache, family](const Word& x, const Word& y) {
    const std::uint32_t word_radix = x.radix();
    if (family == NetworkFamily::Kautz && word_radix < 2) {
      return false;
    }
    const std::uint32_t d =
        family == NetworkFamily::Kautz ? word_radix - 1 : word_radix;
    const OracleSet& set = cache.get(family, d, x.length());
    if (!set.is_vertex(x) || !set.is_vertex(y)) {
      return false;
    }
    return !Conformance(set).check(x, y).ok();
  };
}

Word kautz_word_near(const OracleSet& set, Rng& rng, const Word& x,
                     PairFamily pair_family) {
  // Kautz pairs: the equal diagonal, or an independent vertex. Structured
  // de Bruijn pair families do not preserve the adjacent-digits-differ
  // invariant, so the Kautz schedule leans on uniform + equal coverage.
  if (pair_family == PairFamily::Equal) {
    return x;
  }
  return set.random_vertex(rng);
}

}  // namespace

FuzzReport run_fuzz(const FuzzOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&start]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  FuzzReport report;
  SetCache cache(options.oracle_options);
  const std::vector<FuzzPoint> schedule = fuzz_schedule();
  std::map<std::string, std::uint64_t> coverage;
  Rng rng(options.seed);

  for (std::uint64_t iter = 0; iter < options.iterations; ++iter) {
    if (options.time_budget_seconds > 0 &&
        elapsed() > options.time_budget_seconds) {
      if (options.log != nullptr) {
        *options.log << "dbn_fuzz: time budget reached after " << iter
                     << " iterations\n";
      }
      break;
    }
    const FuzzPoint& point = schedule[rng.below(schedule.size())];
    const OracleSet& set = cache.get(point.family, point.d, point.k);

    const WordFamily word_family =
        kAllWordFamilies[rng.below(kAllWordFamilies.size())];
    const PairFamily pair_family =
        kAllPairFamilies[rng.below(kAllPairFamilies.size())];
    Word x = Word::zero(set.radix(), point.k);
    Word y = x;
    if (point.family == NetworkFamily::Kautz) {
      x = set.random_vertex(rng);
      y = kautz_word_near(set, rng, x, pair_family);
    } else {
      std::tie(x, y) =
          sample_pair(rng, point.d, point.k, word_family, pair_family);
    }

    const PairReport pair_report = Conformance(set).check(x, y);
    ++report.iterations_run;
    {
      std::ostringstream key;
      key << family_name(point.family) << " d=" << point.d
          << " k=" << point.k;
      ++coverage[key.str()];
    }
    if (pair_report.ok()) {
      continue;
    }

    FuzzFailure failure;
    failure.original = make_case(point.family, point.d, x, y);
    if (options.shrink) {
      const ShrinkResult shrunk =
          shrink_pair(x, y, conformance_predicate(cache, point.family));
      const std::uint32_t shrunk_d = point.family == NetworkFamily::Kautz
                                         ? shrunk.x.radix() - 1
                                         : shrunk.x.radix();
      failure.shrunk =
          make_case(point.family, shrunk_d, shrunk.x, shrunk.y);
      failure.snippet =
          regression_snippet(shrunk, family_name(point.family));
      failure.report =
          Conformance(cache.get(point.family, shrunk_d, shrunk.x.length()))
              .check(shrunk.x, shrunk.y)
              .to_string();
    } else {
      failure.shrunk = failure.original;
      failure.report = pair_report.to_string();
    }
    if (options.log != nullptr) {
      *options.log << "dbn_fuzz: disagreement at iteration " << iter << " ("
                   << family_name(word_family) << "/"
                   << family_name(pair_family) << " pair)\n"
                   << "  found:  " << failure.original.to_line() << "\n"
                   << "  shrunk: " << failure.shrunk.to_line() << "\n"
                   << failure.report << "\n";
    }
    report.failures.push_back(std::move(failure));
    if (report.failures.size() >= options.max_failures) {
      if (options.log != nullptr) {
        *options.log << "dbn_fuzz: failure budget reached, stopping\n";
      }
      break;
    }
  }

  report.point_coverage.assign(coverage.begin(), coverage.end());
  report.elapsed_seconds = elapsed();
  return report;
}

PairReport replay_case(const CorpusCase& c, const OracleOptions& options) {
  SetCache cache(options);
  const OracleSet& set = cache.get(c.family, c.d, c.k);
  return Conformance(set).check(c.word_x(), c.word_y());
}

std::vector<std::string> replay_corpus_files(
    const std::vector<std::string>& files, const OracleOptions& options,
    std::ostream* log) {
  SetCache cache(options);
  std::vector<std::string> failures;
  for (const std::string& file : files) {
    const std::vector<CorpusCase> cases = load_corpus_file(file);
    std::size_t failing = 0;
    for (const CorpusCase& c : cases) {
      const OracleSet& set = cache.get(c.family, c.d, c.k);
      const PairReport report = Conformance(set).check(c.word_x(), c.word_y());
      if (!report.ok()) {
        ++failing;
        failures.push_back(file + ": " + c.to_line() + "\n" +
                           report.to_string());
      }
    }
    if (log != nullptr) {
      *log << file << ": " << cases.size() << " cases, " << failing
           << " failing\n";
    }
  }
  return failures;
}

}  // namespace dbn::testkit
