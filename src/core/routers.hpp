// The paper's uni-directional router, Algorithm 1.
//
//  - route_unidirectional: O(k) time/space. Left shifts only.
//
// Bi-directional routes come from BidirectionalRouteEngine
// (core/route_engine.hpp); the paper's other bi-directional routers,
// Algorithm 2 and Algorithm 4, are differential oracles in oracle/routers.hpp.
#pragma once

#include "core/path.hpp"
#include "debruijn/word.hpp"

namespace dbn {

/// Algorithm 1: shortest path in the uni-directional network DN(d,k).
/// The path consists of k - l left shifts inserting y_{l+1}..y_k, where l
/// is the longest suffix of X that is a prefix of Y (equation (2)).
RoutingPath route_unidirectional(const Word& x, const Word& y);

}  // namespace dbn
