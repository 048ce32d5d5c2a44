#include "core/path_builder.hpp"

#include "common/contract.hpp"

namespace dbn {

strings::OverlapMin r_side_from_reversed(int k,
                                         const strings::OverlapMin& rev) {
  strings::OverlapMin out;
  out.cost = rev.cost;
  out.s = k + 1 - rev.s;
  out.t = k + 1 - rev.t;
  out.theta = rev.theta;
  return out;
}

BidiPlan make_bidi_plan(int k, const strings::OverlapMin& l_side,
                        const strings::OverlapMin& r_side) {
  DBN_ASSERT(l_side.cost <= k && r_side.cost <= k,
             "Theorem 2 candidates never exceed the diameter");
  BidiPlan plan;
  if (l_side.cost == k && r_side.cost == k) {
    plan.shape = BidiPlan::Shape::Trivial;
    plan.distance = k;
  } else if (l_side.cost <= r_side.cost) {
    plan.shape = BidiPlan::Shape::LeftBlock;
    plan.distance = l_side.cost;
    plan.s = l_side.s;
    plan.t = l_side.t;
    plan.theta = l_side.theta;
  } else {
    plan.shape = BidiPlan::Shape::RightBlock;
    plan.distance = r_side.cost;
    plan.s = r_side.s;
    plan.t = r_side.t;
    plan.theta = r_side.theta;
  }
  // Three-block shape validity (Algorithm 2 lines 6/8/9): the trivial path
  // has length k; a block plan's minimizer must be in range, carry a real
  // overlap (θ >= 1 — otherwise its cost would be >= k and the trivial
  // shape would have won), and reproduce the side cost it was chosen for.
  if (plan.shape == BidiPlan::Shape::Trivial) {
    DBN_ENSURE(plan.distance == k, "trivial path must have length k");
  } else {
    DBN_ENSURE(plan.s >= 1 && plan.s <= k && plan.t >= 1 && plan.t <= k,
               "block-plan minimizer (s, t) out of range");
    DBN_ENSURE(plan.theta >= 1, "block plan requires a non-empty overlap");
    DBN_ENSURE(plan.shape == BidiPlan::Shape::LeftBlock
                   ? plan.theta <= plan.t && plan.theta <= k - plan.s + 1 &&
                         plan.distance == 2 * k - 1 + plan.s - plan.t -
                                              plan.theta
                   : plan.theta <= plan.s && plan.theta <= k - plan.t + 1 &&
                         plan.distance == 2 * k - 1 - plan.s + plan.t -
                                              plan.theta,
               "block plan does not reproduce its side cost");
  }
  DBN_ENSURE(plan.distance >= 0 && plan.distance <= k,
             "planned distance must lie in [0, k]");
  return plan;
}

RoutingPath build_bidi_path(const Word& x, const Word& y, const BidiPlan& plan,
                            WildcardMode mode) {
  RoutingPath path;
  build_bidi_path_into(x, y, plan, mode, path);
  return path;
}

void build_bidi_path_into(const Word& x, const Word& y, const BidiPlan& plan,
                          WildcardMode mode, RoutingPath& path) {
  DBN_REQUIRE(x.radix() == y.radix() && x.length() == y.length(),
              "route endpoints must share radix and length");
  const int k = static_cast<int>(x.length());
  const Digit arbitrary = (mode == WildcardMode::Wildcards) ? kWildcard : 0;
  // y_i in the paper's 1-based indexing.
  const auto yd = [&y](int i) {
    return y.digit(static_cast<std::size_t>(i - 1));
  };

  path.clear();
  switch (plan.shape) {
    case BidiPlan::Shape::Trivial:
      for (int i = 1; i <= k; ++i) {
        path.push({ShiftType::Left, yd(i)});
      }
      break;
    case BidiPlan::Shape::LeftBlock: {
      const int s = plan.s, t = plan.t, theta = plan.theta;
      // L^(s-1) with arbitrary digits,
      for (int i = 0; i < s - 1; ++i) {
        path.push({ShiftType::Left, arbitrary});
      }
      // R inserting y_{t-θ}, y_{t-θ-1}, ..., y_1,
      for (int i = t - theta; i >= 1; --i) {
        path.push({ShiftType::Right, yd(i)});
      }
      // R^(k-t) with arbitrary digits,
      for (int i = 0; i < k - t; ++i) {
        path.push({ShiftType::Right, arbitrary});
      }
      // L inserting y_{t+1}, ..., y_k.
      for (int i = t + 1; i <= k; ++i) {
        path.push({ShiftType::Left, yd(i)});
      }
      break;
    }
    case BidiPlan::Shape::RightBlock: {
      const int s = plan.s, t = plan.t, theta = plan.theta;
      // R^(k-s) with arbitrary digits,
      for (int i = 0; i < k - s; ++i) {
        path.push({ShiftType::Right, arbitrary});
      }
      // L inserting y_{t+θ}, ..., y_k,
      for (int i = t + theta; i <= k; ++i) {
        path.push({ShiftType::Left, yd(i)});
      }
      // L^(t-1) with arbitrary digits,
      for (int i = 0; i < t - 1; ++i) {
        path.push({ShiftType::Left, arbitrary});
      }
      // R inserting y_{t-1}, ..., y_1.
      for (int i = t - 1; i >= 1; --i) {
        path.push({ShiftType::Right, yd(i)});
      }
      break;
    }
  }
  DBN_ASSERT(static_cast<int>(path.length()) == plan.distance,
             "constructed path length must equal the planned distance");
  // The paper's correctness claim for all three shapes: the path reaches y
  // under any wildcard resolution (zero resolver as the spot-check). The
  // replay allocates nothing, so audit builds keep route_into
  // allocation-free.
  DBN_AUDIT(path.reaches(x, y), "constructed path must reach the destination");
}

}  // namespace dbn
