#include "oracle/suffix_array.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/contract.hpp"

namespace dbn::strings {

std::vector<int> suffix_array(SymbolView s) {
  const int n = static_cast<int>(s.size());
  std::vector<int> sa(s.size());
  std::iota(sa.begin(), sa.end(), 0);
  if (n <= 1) {
    return sa;
  }
  // rank[i] = equivalence class of the length-2^h substring at i.
  std::vector<std::int64_t> rank(s.begin(), s.end());
  std::vector<std::int64_t> key(s.size());
  for (int h = 1;; h *= 2) {
    // Sort by (rank[i], rank[i+h]) pairs; -1 past the end.
    const auto pair_key = [&](int i) {
      const std::int64_t second =
          i + h < n ? rank[static_cast<std::size_t>(i + h)] : -1;
      return std::make_pair(rank[static_cast<std::size_t>(i)], second);
    };
    std::sort(sa.begin(), sa.end(),
              [&](int a, int b) { return pair_key(a) < pair_key(b); });
    key[static_cast<std::size_t>(sa[0])] = 0;
    for (std::size_t i = 1; i < sa.size(); ++i) {
      key[static_cast<std::size_t>(sa[i])] =
          key[static_cast<std::size_t>(sa[i - 1])] +
          (pair_key(sa[i - 1]) != pair_key(sa[i]) ? 1 : 0);
    }
    rank = key;
    if (rank[static_cast<std::size_t>(sa.back())] == n - 1) {
      break;  // all suffixes distinguished
    }
  }
  return sa;
}

std::vector<int> lcp_array(SymbolView s, const std::vector<int>& sa) {
  const std::size_t n = s.size();
  DBN_REQUIRE(sa.size() == n, "lcp_array: suffix array size mismatch");
  std::vector<int> rank(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    rank[static_cast<std::size_t>(sa[i])] = static_cast<int>(i);
  }
  std::vector<int> lcp(n, 0);
  int h = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (rank[i] == 0) {
      h = 0;
      continue;
    }
    const std::size_t j =
        static_cast<std::size_t>(sa[static_cast<std::size_t>(rank[i] - 1)]);
    while (i + static_cast<std::size_t>(h) < n &&
           j + static_cast<std::size_t>(h) < n &&
           s[i + static_cast<std::size_t>(h)] ==
               s[j + static_cast<std::size_t>(h)]) {
      ++h;
    }
    lcp[static_cast<std::size_t>(rank[i])] = h;
    if (h > 0) {
      --h;
    }
  }
  return lcp;
}

RmqSparseTable::RmqSparseTable(std::vector<int> values) {
  if (values.empty()) {
    return;
  }
  levels_.push_back(std::move(values));
  for (std::size_t span = 2; span <= levels_[0].size(); span *= 2) {
    const std::vector<int>& prev = levels_.back();
    std::vector<int> next(levels_[0].size() - span + 1);
    for (std::size_t i = 0; i < next.size(); ++i) {
      next[i] = std::min(prev[i], prev[i + span / 2]);
    }
    levels_.push_back(std::move(next));
  }
}

int RmqSparseTable::min_in(std::size_t l, std::size_t r) const {
  DBN_REQUIRE(l <= r && r < size(), "min_in: bad range");
  const std::size_t len = r - l + 1;
  std::size_t level = 0;
  while ((std::size_t{2} << level) <= len) {
    ++level;
  }
  const std::size_t span = std::size_t{1} << level;
  return std::min(levels_[level][l], levels_[level][r + 1 - span]);
}

LcpOracle::LcpOracle(std::vector<Symbol> text)
    : text_(std::move(text)),
      sa_(suffix_array(text_)),
      rank_(text_.size(), 0),
      lcp_(lcp_array(text_, sa_)),
      rmq_(lcp_) {
  DBN_REQUIRE(!text_.empty(), "LcpOracle requires a non-empty text");
  for (std::size_t i = 0; i < sa_.size(); ++i) {
    rank_[static_cast<std::size_t>(sa_[i])] = static_cast<int>(i);
  }
}

int LcpOracle::lcp(std::size_t i, std::size_t j) const {
  DBN_REQUIRE(i < text_.size() && j < text_.size(),
              "LcpOracle::lcp: position out of range");
  if (i == j) {
    return static_cast<int>(text_.size() - i);
  }
  auto [lo, hi] = std::minmax(rank_[i], rank_[j]);
  return rmq_.min_in(static_cast<std::size_t>(lo) + 1,
                     static_cast<std::size_t>(hi));
}

namespace {

constexpr std::int64_t kNoP = std::numeric_limits<std::int64_t>::max();

/// Aggregates of one LCP interval (= suffix-tree node) during the
/// bottom-up sweep.
struct Interval {
  int depth = 0;
  std::int64_t min_p = kNoP;  // min start in x
  std::int64_t max_q = -1;    // max start in y
};

void merge_into(Interval& target, const Interval& from) {
  target.min_p = std::min(target.min_p, from.min_p);
  target.max_q = std::max(target.max_q, from.max_q);
}

}  // namespace

OverlapMin min_l_cost_suffix_array(SymbolView x, SymbolView y) {
  DBN_REQUIRE(!x.empty() && x.size() == y.size(),
              "min_l_cost_suffix_array requires two non-empty words of equal "
              "length");
  const int k = static_cast<int>(x.size());
  // Joined text x·sep1·y·sep2 exactly as the suffix-tree kernel builds it.
  Symbol max_symbol = 0;
  for (const Symbol c : x) {
    max_symbol = std::max(max_symbol, c);
  }
  for (const Symbol c : y) {
    max_symbol = std::max(max_symbol, c);
  }
  DBN_REQUIRE(max_symbol < std::numeric_limits<Symbol>::max() - 1,
              "symbols too large to append sentinels");
  std::vector<Symbol> text;
  text.reserve(2 * x.size() + 2);
  text.insert(text.end(), x.begin(), x.end());
  text.push_back(max_symbol + 1);
  text.insert(text.end(), y.begin(), y.end());
  text.push_back(max_symbol + 2);

  const std::vector<int> sa = suffix_array(text);
  const std::vector<int> lcp = lcp_array(text, sa);
  const std::size_t y_offset = x.size() + 1;

  OverlapMin best{k, 1, k, 0};  // theta = 0 baseline
  const auto consider = [&](const Interval& node) {
    if (node.depth <= 0 || node.min_p == kNoP || node.max_q < 0) {
      return;
    }
    const int cost = static_cast<int>(2 * k + node.min_p - node.max_q -
                                      2 * node.depth);
    if (cost < best.cost) {
      best.cost = cost;
      best.s = static_cast<int>(node.min_p) + 1;
      best.t = static_cast<int>(node.max_q) + node.depth;
      best.theta = node.depth;
    }
  };

  const auto leaf_interval = [&](std::size_t sa_index) {
    // A leaf behaves as an interval of its full suffix length — strictly
    // deeper than any LCP next to it (the final sentinel is unique, so no
    // suffix is a prefix of another) — which makes the close-loop below
    // assign it to the right internal intervals automatically.
    Interval leaf{static_cast<int>(text.size() -
                                   static_cast<std::size_t>(sa[sa_index])),
                  kNoP, -1};
    const std::size_t start = static_cast<std::size_t>(sa[sa_index]);
    if (start < x.size()) {
      leaf.min_p = static_cast<std::int64_t>(start);
    } else if (start >= y_offset && start < y_offset + y.size()) {
      leaf.max_q = static_cast<std::int64_t>(start - y_offset);
    }
    return leaf;
  };

  // Bottom-up LCP-interval enumeration (the stack algorithm that builds a
  // suffix tree from SA+LCP): intervals close when the LCP drops, at which
  // point their aggregates cover exactly their subtree's leaves. Leaf
  // "intervals" are one-sided, so consider() skips them.
  std::vector<Interval> stack;
  stack.push_back(Interval{0, kNoP, -1});  // root sentinel
  stack.push_back(leaf_interval(0));
  for (std::size_t i = 1; i < sa.size(); ++i) {
    const int h = lcp[i];
    Interval carry{h, kNoP, -1};
    while (stack.back().depth > h) {
      const Interval closed = stack.back();
      stack.pop_back();
      DBN_ASSERT(!stack.empty(), "depth-0 sentinel never pops here");
      consider(closed);
      // The closed interval's aggregates flow to its parent: the next
      // stack entry if that also closes this round, else the fresh
      // interval at depth h.
      if (stack.back().depth > h) {
        merge_into(stack.back(), closed);
      } else {
        merge_into(carry, closed);
      }
    }
    if (stack.back().depth == h) {
      merge_into(stack.back(), carry);
    } else {
      stack.push_back(carry);
    }
    stack.push_back(leaf_interval(i));
  }
  while (!stack.empty()) {
    const Interval closed = stack.back();
    stack.pop_back();
    consider(closed);
    if (!stack.empty()) {
      merge_into(stack.back(), closed);
    }
  }
  DBN_ASSERT(best.cost <= k, "l-side minimum must not exceed the diameter");
  return best;
}

}  // namespace dbn::strings
