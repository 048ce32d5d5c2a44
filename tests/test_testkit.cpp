// The conformance kit testing itself: clean sweeps stay clean, injected
// bugs are caught and shrink to minimal reproducers, word families have
// the structure they advertise, and the corpus line format round-trips.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/contract.hpp"
#include "core/distance.hpp"
#include "testing_util.hpp"
#include "testkit/conformance.hpp"
#include "testkit/corpus.hpp"
#include "testkit/fuzzer.hpp"
#include "testkit/oracle.hpp"
#include "testkit/shrinker.hpp"
#include "testkit/word_families.hpp"

namespace dbn::testkit {
namespace {

std::vector<std::string_view> oracle_names(const OracleSet& set) {
  std::vector<std::string_view> out;
  for (const auto& oracle : set.oracles()) {
    out.push_back(oracle->name());
  }
  return out;
}

bool has_kind(const PairReport& report, FailureKind kind) {
  for (const Failure& f : report.failures) {
    if (f.kind == kind) {
      return true;
    }
  }
  return false;
}

TEST(OracleSets, AllPairsCleanOnSmallNetworks) {
  struct Point {
    NetworkFamily family;
    std::uint32_t d;
    std::size_t k;
  };
  for (const Point& p : {Point{NetworkFamily::DeBruijnDirected, 2, 3},
                         Point{NetworkFamily::DeBruijnUndirected, 2, 3},
                         Point{NetworkFamily::DeBruijnUndirected, 3, 2},
                         Point{NetworkFamily::DeBruijnDirected, 1, 2},
                         Point{NetworkFamily::Kautz, 2, 2}}) {
    const OracleSet set =
        p.family == NetworkFamily::Kautz
            ? OracleSet::kautz(p.d, p.k)
            : OracleSet::debruijn(p.d, p.k,
                                  p.family == NetworkFamily::DeBruijnDirected
                                      ? Orientation::Directed
                                      : Orientation::Undirected);
    ASSERT_TRUE(set.has_bfs_reference());
    EXPECT_GE(set.oracles().size(), 2u);
    const Conformance driver(set);
    DBN_SEEDED_RNG(rng, 4101);
    for (std::uint64_t xi = 0; xi < set.vertex_count(); ++xi) {
      for (std::uint64_t yi = 0; yi < set.vertex_count(); ++yi) {
        const Word x =
            p.family == NetworkFamily::Kautz
                ? set.random_vertex(rng)
                : Word::from_rank(set.radix(), p.k, xi);
        const Word y =
            p.family == NetworkFamily::Kautz
                ? set.random_vertex(rng)
                : Word::from_rank(set.radix(), p.k, yi);
        const PairReport report = driver.check(x, y);
        ASSERT_TRUE(report.ok())
            << family_name(p.family) << " d=" << p.d << " k=" << p.k << "\n"
            << report.to_string();
      }
    }
  }
}

// The default panel, pinned: every production engine sits in it exactly
// once beside the independent oracles it is checked against, so dropping
// or duplicating an engine (or its oracle) has to show up here.
TEST(OracleSets, DefaultPanelHoldsEachEngineOnce) {
  EXPECT_EQ(oracle_names(OracleSet::debruijn(2, 4, Orientation::Undirected)),
            (std::vector<std::string_view>{
                "alg2-mp", "alg4-st", "alg4-sam", "route-engine",
                "batch-engine", "greedy-bi", "bfs-router", "routing-table",
                "layer-table-bi"}));
  EXPECT_EQ(oracle_names(OracleSet::debruijn(2, 4, Orientation::Directed)),
            (std::vector<std::string_view>{"alg1-uni", "batch-alg1",
                                           "greedy-uni", "bfs-router",
                                           "routing-table"}));
}

TEST(OracleSets, PastTwoToTheSixtyFourOnlyFormulaOraclesRemain) {
  // d^k beyond 64 bits: no graph to rank into, so no greedy, BFS, table
  // or layer oracle, and random vertices are drawn digit by digit.
  const OracleSet undirected =
      OracleSet::debruijn(2, 65, Orientation::Undirected);
  EXPECT_EQ(oracle_names(undirected),
            (std::vector<std::string_view>{"alg2-mp", "alg4-st", "alg4-sam",
                                           "route-engine", "batch-engine"}));
  EXPECT_EQ(undirected.vertex_count(), 0u);
  EXPECT_FALSE(undirected.has_bfs_reference());
  const OracleSet directed = OracleSet::debruijn(16, 40, Orientation::Directed);
  EXPECT_EQ(oracle_names(directed),
            (std::vector<std::string_view>{"alg1-uni", "batch-alg1"}));
  DBN_SEEDED_RNG(rng, 0x2e64);
  const Conformance driver(undirected);
  for (int trial = 0; trial < 20; ++trial) {
    const Word x = undirected.random_vertex(rng);
    const Word y = undirected.random_vertex(rng);
    ASSERT_TRUE(undirected.is_vertex(x));
    const PairReport report = driver.check(x, y);
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
  // The largest set that still fits keeps its graph.
  EXPECT_EQ(OracleSet::debruijn(2, 63, Orientation::Directed).vertex_count(),
            std::uint64_t{1} << 63);
}

TEST(OracleSets, LegalHopEnforcesTheMoveRule) {
  const OracleSet directed =
      OracleSet::debruijn(2, 3, Orientation::Directed);
  const OracleSet undirected =
      OracleSet::debruijn(2, 3, Orientation::Undirected);
  const OracleSet kautz = OracleSet::kautz(2, 3);
  const Word x(2, {0, 1, 1});
  EXPECT_TRUE(directed.legal_hop(x, {ShiftType::Left, 0}));
  EXPECT_FALSE(directed.legal_hop(x, {ShiftType::Right, 0}));
  EXPECT_TRUE(undirected.legal_hop(x, {ShiftType::Right, 0}));
  // Kautz: the appended digit must differ from the current last digit.
  const Word kx(3, {0, 1, 2});
  EXPECT_TRUE(kautz.legal_hop(kx, {ShiftType::Left, 0}));
  EXPECT_FALSE(kautz.legal_hop(kx, {ShiftType::Left, 2}));
  EXPECT_FALSE(kautz.legal_hop(kx, {ShiftType::Right, 0}));
  // Wildcards are legal iff some concrete digit is, and resolve legally.
  EXPECT_TRUE(kautz.legal_hop(kx, {ShiftType::Left, kWildcard}));
  const Word applied = kautz.apply_hop(kx, {ShiftType::Left, kWildcard});
  EXPECT_NE(applied.digit(2), kx.digit(2));
}

// A deliberately wrong oracle: answers with the *directed* distance inside
// the undirected set. Conformance must flag every pair where right shifts
// help.
class DirectedImpostorOracle final : public RouteOracle {
 public:
  std::string_view name() const override { return "directed-impostor"; }
  int distance(const Word& x, const Word& y) override {
    return directed_distance(x, y);
  }
};

TEST(Conformance, CatchesAnInjectedDistanceBug) {
  OracleSet set = OracleSet::debruijn(2, 3, Orientation::Undirected);
  set.add_oracle(std::make_unique<DirectedImpostorOracle>());
  const Conformance driver(set);
  // X = (0,1,1), Y = (0,0,1): Y is a right shift of X, so the undirected
  // distance is 1 while the directed one is larger.
  const PairReport bad = driver.check(Word(2, {0, 1, 1}), Word(2, {0, 0, 1}));
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(has_kind(bad, FailureKind::DistanceDisagreement))
      << bad.to_string();
  // On the diagonal both formulas agree, so the impostor passes there.
  EXPECT_TRUE(driver.check(Word(2, {0, 1, 1}), Word(2, {0, 1, 1})).ok());
}

// A wrong-path oracle: claims the right distance but walks to the wrong
// vertex (and, for x == y, emits a length-mismatched loop).
class WrongPathOracle final : public RouteOracle {
 public:
  std::string_view name() const override { return "wrong-path"; }
  int distance(const Word& x, const Word& y) override {
    return undirected_distance(x, y);
  }
  std::optional<RoutingPath> route(const Word& x, const Word& y) override {
    RoutingPath path;
    for (int i = 0; i < undirected_distance(x, y); ++i) {
      path.push({ShiftType::Left, 0});  // always insert 0: usually wrong
    }
    return path;
  }
};

TEST(Conformance, CatchesAnInjectedPathBug) {
  OracleSet set = OracleSet::debruijn(2, 4, Orientation::Undirected);
  set.add_oracle(std::make_unique<WrongPathOracle>());
  const Conformance driver(set);
  const PairReport bad =
      driver.check(Word(2, {0, 0, 0, 0}), Word(2, {1, 1, 1, 1}));
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(has_kind(bad, FailureKind::WrongEndpoint)) << bad.to_string();
}

// An illegal-move oracle for the directed network: right shifts are not
// edges of the directed DG(d,k).
class RightShiftOracle final : public RouteOracle {
 public:
  std::string_view name() const override { return "right-shifter"; }
  int distance(const Word& x, const Word& y) override {
    return directed_distance(x, y);
  }
  std::optional<RoutingPath> route(const Word& x, const Word& y) override {
    RoutingPath path;
    for (int i = 0; i < directed_distance(x, y); ++i) {
      path.push({ShiftType::Right, 0});
    }
    return path;
  }
};

TEST(Conformance, CatchesAnIllegalHopInTheDirectedNetwork) {
  OracleSet set = OracleSet::debruijn(2, 3, Orientation::Directed);
  set.add_oracle(std::make_unique<RightShiftOracle>());
  const PairReport bad =
      Conformance(set).check(Word(2, {0, 1, 0}), Word(2, {1, 1, 1}));
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(has_kind(bad, FailureKind::IllegalHop)) << bad.to_string();
}

// A shape-violating oracle: reaches Y optimally via BFS yet claims to be a
// Theorem 2 formula router. BFS paths in the undirected graph are optimal
// but need not be three-block, so on some pair the shape check must fire.
class ZigzagClaimOracle final : public RouteOracle {
 public:
  std::string_view name() const override { return "zigzag-claimant"; }
  int distance(const Word& x, const Word& y) override {
    return undirected_distance(x, y);
  }
  std::optional<RoutingPath> route(const Word& x, const Word& y) override {
    // L a R b L c R e ... zig-zag of the right length; for the all-pairs
    // sweep below only the specific pair matters.
    RoutingPath path;
    const int dist = undirected_distance(x, y);
    for (int i = 0; i < dist; ++i) {
      path.push({i % 2 == 0 ? ShiftType::Left : ShiftType::Right, kWildcard});
    }
    return path;
  }
  bool emits_three_block() const override { return true; }
};

TEST(Conformance, ShapeCheckRejectsFourRunPaths) {
  OracleSet set = OracleSet::debruijn(2, 6, Orientation::Undirected);
  set.add_oracle(std::make_unique<ZigzagClaimOracle>());
  const Conformance driver(set);
  bool shape_violation_seen = false;
  for (std::uint64_t xi = 0; xi < set.vertex_count() && !shape_violation_seen;
       ++xi) {
    for (std::uint64_t yi = 0; yi < set.vertex_count(); ++yi) {
      const PairReport report = driver.check(Word::from_rank(2, 6, xi),
                                             Word::from_rank(2, 6, yi));
      if (has_kind(report, FailureKind::ShapeViolation)) {
        shape_violation_seen = true;
        break;
      }
    }
  }
  EXPECT_TRUE(shape_violation_seen)
      << "a >= 4-hop zig-zag must violate the three-block shape somewhere";
}

TEST(Shrinker, MinimizesADirectedVsUndirectedDisagreement) {
  // Predicate: the two distance notions disagree. The smallest such pair
  // over any alphabet is k = 2, d = 2 (at k = 1 both formulas coincide).
  const FailPredicate disagree = [](const Word& x, const Word& y) {
    return directed_distance(x, y) != undirected_distance(x, y);
  };
  const Word x0(4, {0, 1, 1, 1, 1, 1});
  const Word y0(4, {0, 0, 1, 1, 1, 1});  // right shift of x0: undirected 1
  ASSERT_TRUE(disagree(x0, y0));
  const ShrinkResult result = shrink_pair(x0, y0, disagree);
  EXPECT_TRUE(disagree(result.x, result.y));
  EXPECT_EQ(result.x.length(), 2u);
  EXPECT_EQ(result.x.radix(), 2u);
  EXPECT_GT(result.reductions, 0);
  EXPECT_GE(result.candidates_tried, result.reductions);
}

TEST(Shrinker, RequiresAFailingStart) {
  const FailPredicate never = [](const Word&, const Word&) { return false; };
  EXPECT_THROW(shrink_pair(Word(2, {0, 1}), Word(2, {1, 0}), never),
               ContractViolation);
}

TEST(Shrinker, SnippetNamesTheRightOracleSet) {
  const ShrinkResult undirected{Word(2, {0, 1}), Word(2, {0, 0}), 3, 10};
  const std::string u = regression_snippet(undirected, "undirected");
  EXPECT_NE(u.find("TEST(ConformanceRegression, Undirected_D2_K2_X01_Y00)"),
            std::string::npos)
      << u;
  EXPECT_NE(u.find("corpus line: \"undirected 2 2 01 00\""), std::string::npos);
  EXPECT_NE(u.find("Orientation::Undirected"), std::string::npos);

  const std::string d = regression_snippet(undirected, "directed");
  EXPECT_NE(d.find("Orientation::Directed"), std::string::npos) << d;

  // Kautz snippets convert the word radix back to the degree, in both the
  // corpus line and the OracleSet factory call.
  const ShrinkResult kautz{Word(3, {0, 1, 0}), Word(3, {2, 1, 2}), 1, 4};
  const std::string s = regression_snippet(kautz, "kautz");
  EXPECT_NE(s.find("corpus line: \"kautz 2 3 010 212\""), std::string::npos)
      << s;
  EXPECT_NE(s.find("OracleSet::kautz(x.radix() - 1"), std::string::npos);
}

TEST(WordFamilies, SamplesHaveTheAdvertisedStructure) {
  DBN_SEEDED_RNG(rng, 4201);
  for (const WordFamily family : kAllWordFamilies) {
    for (const auto& [d, k] : dbn::testing::small_grid()) {
      const Word w = sample_word(rng, d, k, family);
      ASSERT_EQ(w.radix(), d);
      ASSERT_EQ(w.length(), k);
      if (family == WordFamily::AllEqual) {
        for (std::size_t i = 1; i < k; ++i) {
          EXPECT_EQ(w.digit(i), w.digit(0));
        }
      }
      if (family == WordFamily::Alternating) {
        for (std::size_t i = 2; i < k; ++i) {
          EXPECT_EQ(w.digit(i), w.digit(i - 2));
        }
        if (d >= 2 && k >= 2) {
          EXPECT_NE(w.digit(0), w.digit(1));
        }
      }
      if (family == WordFamily::FewDistinct) {
        std::size_t distinct = 0;
        std::vector<bool> seen(d, false);
        for (std::size_t i = 0; i < k; ++i) {
          if (!seen[w.digit(i)]) {
            seen[w.digit(i)] = true;
            ++distinct;
          }
        }
        EXPECT_LE(distinct, 2u);
      }
    }
    // Degenerate corners must not trip any family generator.
    const Word tiny = sample_word(rng, 1, 1, family);
    EXPECT_EQ(tiny, Word::zero(1, 1));
  }
}

TEST(WordFamilies, PairFamiliesRelateTheWordsAsDocumented) {
  DBN_SEEDED_RNG(rng, 4202);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint32_t d = 2 + trial % 3;
    const std::size_t k = 2 + rng.below(8);
    const auto [xe, ye] =
        sample_pair(rng, d, k, WordFamily::Uniform, PairFamily::Equal);
    EXPECT_EQ(xe, ye);
    const auto [xr, yr] =
        sample_pair(rng, d, k, WordFamily::Uniform, PairFamily::Reversal);
    EXPECT_EQ(yr, xr.reversed());
    const auto [xo, yo] =
        sample_pair(rng, d, k, WordFamily::Uniform, PairFamily::Rotation);
    bool is_rotation = false;
    for (std::size_t by = 0; by < k && !is_rotation; ++by) {
      bool all = true;
      for (std::size_t i = 0; i < k; ++i) {
        if (yo.digit(i) != xo.digit((i + by) % k)) {
          all = false;
          break;
        }
      }
      is_rotation = all;
    }
    EXPECT_TRUE(is_rotation)
        << xo.to_string() << " vs " << yo.to_string();
  }
}

TEST(Corpus, ParsesAndSerializesTheLineFormat) {
  const CorpusCase c = CorpusCase::parse("undirected 2 4 0110 1001");
  EXPECT_EQ(c.family, NetworkFamily::DeBruijnUndirected);
  EXPECT_EQ(c.d, 2u);
  EXPECT_EQ(c.k, 4u);
  EXPECT_EQ(c.word_x(), Word(2, {0, 1, 1, 0}));
  EXPECT_EQ(c.word_y(), Word(2, {1, 0, 0, 1}));
  EXPECT_EQ(c.to_line(), "undirected 2 4 0110 1001");

  // Kautz words live on the (d+1)-letter alphabet.
  const CorpusCase kc = CorpusCase::parse("kautz 2 3 010 212");
  EXPECT_EQ(kc.word_radix(), 3u);
  EXPECT_EQ(kc.word_x(), Word(3, {0, 1, 0}));

  // Digits a-z cover radices above 10.
  const CorpusCase big = CorpusCase::parse("directed 11 2 a0 0a");
  EXPECT_EQ(big.word_x(), Word(11, {10, 0}));
  EXPECT_EQ(big.to_line(), "directed 11 2 a0 0a");

  EXPECT_THROW(CorpusCase::parse("bogus 2 2 01 10"), ContractViolation);
  EXPECT_THROW(CorpusCase::parse("undirected 2 2 012 10"), ContractViolation);
  EXPECT_THROW(CorpusCase::parse("undirected 2 2 01 10 extra"),
               ContractViolation);
  EXPECT_THROW(CorpusCase::parse("undirected 2 2 01 13"), ContractViolation);
}

TEST(Fuzzer, SmokeRunIsCleanAndDeterministic) {
  FuzzOptions options;
  options.seed = 7;
  options.iterations = 400;
  // Keep the smoke run snappy: BFS only on the smallest points.
  options.oracle_options.max_bfs_vertices = 1u << 8;
  options.oracle_options.max_table_vertices = 1u << 6;
  const FuzzReport first = run_fuzz(options);
  EXPECT_TRUE(first.ok()) << first.failures.front().report;
  EXPECT_EQ(first.iterations_run, 400u);
  EXPECT_GT(first.point_coverage.size(), 5u);

  const FuzzReport second = run_fuzz(options);
  EXPECT_EQ(second.point_coverage, first.point_coverage);
}

TEST(Fuzzer, ReplayCatchesACorruptedCase) {
  // A healthy case replays clean...
  CorpusCase c = CorpusCase::parse("undirected 2 3 011 001");
  EXPECT_TRUE(replay_case(c).ok());
  // ...and replay honors the oracle gating options.
  OracleOptions no_bfs;
  no_bfs.max_bfs_vertices = 0;
  no_bfs.max_table_vertices = 0;
  EXPECT_TRUE(replay_case(c, no_bfs).ok());
}

}  // namespace
}  // namespace dbn::testkit
