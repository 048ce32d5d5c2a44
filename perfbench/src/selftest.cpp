// The benchmark's self-test: a wrong answer planted anywhere the checks
// look must raise the failure count. Run with `perfbench --self-test`
// (run.py --self-test also checks the printed metric names and units).
#include <iostream>

#include "checks.hpp"
#include "common/rng.hpp"
#include "core/distance.hpp"
#include "core/route_engine.hpp"
#include "workloads.hpp"

namespace perfbench {

int run_selftest() {
  using namespace dbn;
  int missed = 0;
  const auto expect = [&](bool caught, const char* what) {
    std::cout << (caught ? "ok   " : "FAIL ") << what << "\n";
    missed += caught ? 0 : 1;
  };

  // The route and distance checks on engine answers over DG(2,8), with a
  // wrong variant of each.
  BidirectionalRouteEngine engine(8);
  Rng rng(3);
  RoutingPath path;
  int good = 0, extra_hop = 0, detour = 0, off_by_one = 0, wrong_end = 0;
  constexpr int kPairs = 500;
  for (int i = 0; i < kPairs; ++i) {
    const Word x = Word::from_rank(2, 8, rng.below(256));
    const Word y = Word::from_rank(2, 8, rng.below(256));
    const int oracle = undirected_distance(x, y);
    engine.route_into(x, y, WildcardMode::Concrete, path);
    good += check_route(x, y, path.hops(), oracle) == Verdict::Ok &&
            check_distance(static_cast<std::uint64_t>(engine.distance(x, y)),
                           oracle) == Verdict::Ok;
    std::vector<Hop> longer = path.hops();
    longer.push_back(Hop{ShiftType::Left, 0});
    extra_hop += check_route(x, y, longer, oracle) != Verdict::Ok;
    // L(0) then R(x_1) returns to X: a route two hops too long that still
    // lands on Y, so only the shortest-path check can catch it.
    std::vector<Hop> around = {Hop{ShiftType::Left, 0},
                               Hop{ShiftType::Right, x.digit(0)}};
    around.insert(around.end(), path.hops().begin(), path.hops().end());
    detour += check_route(x, y, around, oracle) == Verdict::NotShortest;
    off_by_one += check_distance(static_cast<std::uint64_t>(oracle) + 1,
                                 oracle) == Verdict::WrongDistance;
    if (!path.empty()) {
      std::vector<Hop> flipped = path.hops();
      flipped.back().digit = flipped.back().is_wildcard() ? 1 : 1 - flipped.back().digit;
      wrong_end += check_route(x, y, flipped, oracle) == Verdict::MissesTarget;
    } else {
      ++wrong_end;
    }
  }
  expect(good == kPairs, "engine answers pass the oracle checks");
  expect(extra_hop == kPairs, "one extra hop appended fails");
  expect(detour == kPairs, "a landing route two hops long fails as not shortest");
  expect(off_by_one == kPairs, "a distance off by one fails");
  expect(wrong_end == kPairs, "a route ending on the wrong vertex fails");

  // Repeats of a wrong answer fail with it.
  AnswerStore<RoutingPath> store(2);
  const RoutingPath wrong({Hop{ShiftType::Left, 1}});
  store.record(0, RoutingPath(wrong));
  store.record(0, RoutingPath(wrong));
  store.record(0, RoutingPath(wrong));
  store.record(1, RoutingPath());
  const std::uint64_t failed = store.failures(
      [&](std::size_t i, const RoutingPath& p) {
        return i == 0 && !p.empty() ? Verdict::MissesTarget : Verdict::Ok;
      },
      [](Verdict, std::uint64_t) {});
  expect(failed == 3 && store.answers() == 4,
         "every repeat of a wrong answer counts");

  missed += serve_selftest();
  missed += sim_selftest();
  std::cout << (missed == 0 ? "self-test passed" : "self-test FAILED") << "\n";
  return missed == 0 ? 0 : 1;
}

}  // namespace perfbench
