#include "oracle/common_substring.hpp"

#include <algorithm>
#include <limits>

#include "common/contract.hpp"
#include "oracle/suffix_tree.hpp"

namespace dbn {

namespace {

using strings::Symbol;
using strings::SymbolView;
using strings::SuffixTree;

/// Builds the text a·sep1·b·sep2 with fresh sentinels above max(a, b).
std::vector<Symbol> joined_text(SymbolView a, SymbolView b) {
  Symbol max_symbol = 0;
  for (const Symbol s : a) {
    max_symbol = std::max(max_symbol, s);
  }
  for (const Symbol s : b) {
    max_symbol = std::max(max_symbol, s);
  }
  DBN_REQUIRE(max_symbol < std::numeric_limits<Symbol>::max() - 1,
              "symbols too large to append sentinels");
  std::vector<Symbol> text;
  text.reserve(a.size() + b.size() + 2);
  text.insert(text.end(), a.begin(), a.end());
  text.push_back(max_symbol + 1);
  text.insert(text.end(), b.begin(), b.end());
  text.push_back(max_symbol + 2);
  return text;
}

struct NodeAggregate {
  std::int64_t min_start_a = std::numeric_limits<std::int64_t>::max();
  std::int64_t max_start_b = -1;
};

/// Post-order DFS computing per-node (min start in a, max start in b) and
/// invoking `visit(node, aggregate)` on every node.
template <typename Visit>
void aggregate_dfs(const SuffixTree& tree, std::size_t a_len, std::size_t b_len,
                   Visit&& visit) {
  const std::size_t b_offset = a_len + 1;  // b starts after sep1
  const int n = tree.node_count();
  std::vector<NodeAggregate> agg(static_cast<std::size_t>(n));
  // Children-first order: reverse of a preorder stack traversal.
  std::vector<int> preorder;
  preorder.reserve(static_cast<std::size_t>(n));
  std::vector<int> stack = {tree.root()};
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    preorder.push_back(v);
    for (const auto& [symbol, child] : tree.children(v)) {
      (void)symbol;
      stack.push_back(child);
    }
  }
  for (auto it = preorder.rbegin(); it != preorder.rend(); ++it) {
    const int v = *it;
    NodeAggregate& a = agg[static_cast<std::size_t>(v)];
    if (tree.is_leaf(v) && v != tree.root()) {
      const std::size_t start = tree.suffix_start(v);
      if (start < a_len) {
        a.min_start_a = static_cast<std::int64_t>(start);
      } else if (start >= b_offset && start < b_offset + b_len) {
        a.max_start_b = static_cast<std::int64_t>(start - b_offset);
      }
      // Suffixes starting at a sentinel contribute nothing.
    } else {
      for (const auto& [symbol, child] : tree.children(v)) {
        (void)symbol;
        const NodeAggregate& c = agg[static_cast<std::size_t>(child)];
        a.min_start_a = std::min(a.min_start_a, c.min_start_a);
        a.max_start_b = std::max(a.max_start_b, c.max_start_b);
      }
    }
    visit(v, a);
  }
}

}  // namespace

strings::OverlapMin min_l_cost_suffix_tree(SymbolView x, SymbolView y) {
  DBN_REQUIRE(!x.empty() && x.size() == y.size(),
              "min_l_cost_suffix_tree requires two non-empty words of equal "
              "length");
  const int k = static_cast<int>(x.size());
  const SuffixTree tree(joined_text(x, y));

  // θ = 0 baseline: min_{i,j}(2k-1+i-j) at (i,j) = (1,k).
  strings::OverlapMin best{k, 1, k, 0};
  aggregate_dfs(tree, x.size(), y.size(),
                [&](int v, const NodeAggregate& a) {
                  const int depth = tree.string_depth(v);
                  if (depth == 0 || tree.is_leaf(v) ||
                      a.min_start_a ==
                          std::numeric_limits<std::int64_t>::max() ||
                      a.max_start_b < 0) {
                    return;  // needs occurrences in both words and θ >= 1
                  }
                  const int cost = static_cast<int>(
                      2 * k + a.min_start_a - a.max_start_b - 2 * depth);
                  if (cost < best.cost) {
                    best.cost = cost;
                    best.s = static_cast<int>(a.min_start_a) + 1;
                    best.t = static_cast<int>(a.max_start_b) + depth;
                    best.theta = depth;
                  }
                });
  DBN_ASSERT(best.cost <= k, "l-side minimum must not exceed the diameter");
  // Same witness contract as the Morris–Pratt scan (route_engine): the
  // minimizer is in range and reproduces its cost; at audit level the
  // result is cross-checked against the O(k^2) Algorithm 3 reference.
  DBN_ENSURE(best.s >= 1 && best.s <= k && best.t >= 1 && best.t <= k &&
                 best.theta >= 0 && best.theta <= best.t &&
                 best.theta <= k - best.s + 1,
             "suffix-tree witness (s, t, theta) out of range");
  DBN_ENSURE(best.cost == 2 * k - 1 + best.s - best.t - best.theta,
             "suffix-tree witness does not reproduce its cost");
  DBN_AUDIT(best.cost == strings::min_l_cost(x, y).cost,
            "suffix-tree minimum must equal the Algorithm 3 scan");
  return best;
}

int longest_common_substring_suffix_tree(SymbolView a, SymbolView b) {
  if (a.empty() || b.empty()) {
    return 0;
  }
  const SuffixTree tree(joined_text(a, b));
  int best = 0;
  aggregate_dfs(tree, a.size(), b.size(),
                [&](int v, const NodeAggregate& agg) {
                  if (tree.is_leaf(v) ||
                      agg.min_start_a ==
                          std::numeric_limits<std::int64_t>::max() ||
                      agg.max_start_b < 0) {
                    return;
                  }
                  best = std::max(best, tree.string_depth(v));
                });
  return best;
}

}  // namespace dbn
