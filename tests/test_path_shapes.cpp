// Theorem 2 witness structure: every path the bi-directional routers emit
// must be the trivial all-left path or decompose into one of the paper's
// three-block forms L^{s-1} R^{k-θ} L^{k-t} / R^{k-s} L^{k-θ} R^{t-1},
// with the claimed overlap block of X actually present in Y.
#include <gtest/gtest.h>

#include "oracle/routers.hpp"
#include "testing_util.hpp"
#include "testkit/conformance.hpp"

namespace dbn {
namespace {

using dbn::testing::DkParam;

class PathShapeGrid : public ::testing::TestWithParam<DkParam> {};

TEST_P(PathShapeGrid, BidirectionalPathsAreThreeBlockAllPairs) {
  const auto [d, k] = GetParam();
  const std::uint64_t n = Word::vertex_count(d, k);
  for (std::uint64_t xr = 0; xr < n; ++xr) {
    const Word x = Word::from_rank(d, k, xr);
    for (std::uint64_t yr = 0; yr < n; ++yr) {
      const Word y = Word::from_rank(d, k, yr);
      for (const auto& [name, path] :
           {std::pair{"alg2-mp", route_bidirectional_mp(x, y)},
            std::pair{"alg4-st", route_bidirectional_suffix_tree(x, y)},
            std::pair{"alg4-sam", route_bidirectional_suffix_automaton(x, y)}}) {
        EXPECT_TRUE(testkit::shape_matches_theorem2(x, y, path))
            << name << " X=" << x.to_string() << " Y=" << y.to_string()
            << " path=" << path.to_string();
        // At most three maximal runs of shift types, by construction.
        EXPECT_LE(testkit::shift_runs(path).runs.size(), 3u)
            << name << " X=" << x.to_string() << " Y=" << y.to_string();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SmallGrid, PathShapeGrid,
                         ::testing::ValuesIn(dbn::testing::small_grid()),
                         ::testing::PrintToStringParamName());

INSTANTIATE_TEST_SUITE_P(DegenerateGrid, PathShapeGrid,
                         ::testing::ValuesIn(dbn::testing::degenerate_grid()),
                         ::testing::PrintToStringParamName());

TEST(PathShapes, RejectsNonTheoremPaths) {
  // A zig-zag L R L R can never be a Theorem 2 witness (four runs).
  const Word x(2, {0, 1, 0, 1});
  RoutingPath zigzag;
  zigzag.push({ShiftType::Left, 0});
  zigzag.push({ShiftType::Right, 0});
  zigzag.push({ShiftType::Left, 0});
  zigzag.push({ShiftType::Right, 0});
  EXPECT_FALSE(testkit::shape_matches_theorem2(x, x, zigzag));
  // An empty path is a witness exactly for X == Y.
  EXPECT_TRUE(testkit::shape_matches_theorem2(x, x, RoutingPath{}));
  EXPECT_FALSE(
      testkit::shape_matches_theorem2(x, Word(2, {1, 1, 1, 1}), RoutingPath{}));
}

TEST(PathShapes, ClassifiesThePaperExampleShapes) {
  // D((0,0,0), (1,1,1)) = 3 uses the trivial path L L L inserting y.
  const Word zeros(2, {0, 0, 0});
  const Word ones(2, {1, 1, 1});
  const RoutingPath trivial = route_bidirectional_mp(zeros, ones);
  ASSERT_EQ(trivial.length(), 3u);
  EXPECT_TRUE(testkit::shape_matches_theorem2(zeros, ones, trivial));
  // A pure right-shift path: Y is X shifted right, X = (0,1,1), Y = (0,0,1).
  const Word x(2, {0, 1, 1});
  const Word y(2, {0, 0, 1});
  const RoutingPath path = route_bidirectional_mp(x, y);
  EXPECT_TRUE(testkit::shape_matches_theorem2(x, y, path));
}

}  // namespace
}  // namespace dbn
