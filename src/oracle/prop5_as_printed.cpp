#include "oracle/prop5_as_printed.hpp"

#include <algorithm>
#include <limits>

#include "common/contract.hpp"
#include "oracle/suffix_tree.hpp"

namespace dbn {

strings::OverlapMin l_side_min_prop5_as_printed(strings::SymbolView x,
                                                strings::SymbolView y) {
  DBN_REQUIRE(!x.empty() && x.size() == y.size(),
              "prop5 kernel requires two non-empty words of equal length");
  const int k = static_cast<int>(x.size());
  strings::Symbol max_symbol = 0;
  for (const strings::Symbol c : x) {
    max_symbol = std::max(max_symbol, c);
  }
  for (const strings::Symbol c : y) {
    max_symbol = std::max(max_symbol, c);
  }
  DBN_REQUIRE(max_symbol < std::numeric_limits<strings::Symbol>::max() - 1,
              "symbols too large to append the two endmarkers");
  // S = X ⊥ reverse(Y) ⊤ (paper notation; 1-based positions 1..2k+2).
  std::vector<strings::Symbol> s;
  s.reserve(2 * x.size() + 2);
  s.insert(s.end(), x.begin(), x.end());
  s.push_back(max_symbol + 1);                  // ⊥ at position k+1
  s.insert(s.end(), y.rbegin(), y.rend());      // reverse(Y) at k+2..2k+1
  s.push_back(max_symbol + 2);                  // ⊤ at position 2k+2

  const strings::SuffixTree tree(std::move(s));
  const int n = tree.node_count();
  constexpr int kFar = std::numeric_limits<int>::max() / 4;

  // Line 3.1: p(v) and q(v) by a post-order sweep (children before
  // parents; preorder reversed works since parents precede children).
  std::vector<int> p(static_cast<std::size_t>(n), kFar);
  std::vector<int> q(static_cast<std::size_t>(n), kFar);
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<int> stack = {tree.root()};
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    order.push_back(v);
    for (const auto& [sym, child] : tree.children(v)) {
      (void)sym;
      stack.push_back(child);
    }
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const int v = *it;
    if (tree.is_leaf(v) && v != tree.root()) {
      const int pos = static_cast<int>(tree.suffix_start(v)) + 1;  // 1-based
      p[static_cast<std::size_t>(v)] = pos <= k ? pos : 2 * k + 2;
      q[static_cast<std::size_t>(v)] =
          (pos >= k + 2 && pos <= 2 * k + 1) ? pos - k - 1 : 2 * k + 2;
    } else {
      for (const auto& [sym, child] : tree.children(v)) {
        (void)sym;
        p[static_cast<std::size_t>(v)] = std::min(
            p[static_cast<std::size_t>(v)], p[static_cast<std::size_t>(child)]);
        q[static_cast<std::size_t>(v)] = std::min(
            q[static_cast<std::size_t>(v)], q[static_cast<std::size_t>(child)]);
      }
    }
  }

  // Line 3.2: interior vertex minimizing p+q-D subject to p+q <= 2k.
  int best_value = kFar;
  int best_vertex = tree.root();
  for (int v = 0; v < n; ++v) {
    if (tree.is_leaf(v) && v != tree.root()) {
      continue;  // interior vertices only
    }
    const int pq = p[static_cast<std::size_t>(v)] + q[static_cast<std::size_t>(v)];
    if (pq > 2 * k) {
      continue;
    }
    const int value = pq - tree.string_depth(v);
    if (value < best_value) {
      best_value = value;
      best_vertex = v;
    }
  }
  DBN_ASSERT(best_value < kFar, "the root always satisfies p+q <= 2k");

  // Line 3.3.
  strings::OverlapMin result;
  result.cost = k - 2 + best_value;
  result.s = p[static_cast<std::size_t>(best_vertex)];
  result.t = k + 1 - q[static_cast<std::size_t>(best_vertex)];
  result.theta = tree.string_depth(best_vertex);
  return result;
}

}  // namespace dbn
