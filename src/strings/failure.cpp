#include "strings/failure.hpp"

#include <algorithm>

#include "common/contract.hpp"
#include "strings/packed.hpp"

namespace dbn::strings {

std::vector<int> border_array(SymbolView pattern) {
  const std::size_t n = pattern.size();
  std::vector<int> border(n, 0);
  int q = 0;  // length of the border being extended
  for (std::size_t i = 1; i < n; ++i) {
    while (q > 0 && pattern[static_cast<std::size_t>(q)] != pattern[i]) {
      q = border[static_cast<std::size_t>(q) - 1];
    }
    if (pattern[static_cast<std::size_t>(q)] == pattern[i]) {
      ++q;
    }
    border[i] = q;
  }
  // Failure-function bounds: border[i] is the length of a *proper* border
  // of pattern[0..i], so 0 <= border[i] <= i, and successive entries grow
  // by at most one (each step extends a border by a single symbol).
  DBN_AUDIT(
      [&] {
        for (std::size_t i = 0; i < n; ++i) {
          if (border[i] < 0 || border[i] > static_cast<int>(i)) {
            return false;
          }
          if (i > 0 && border[i] > border[i - 1] + 1) {
            return false;
          }
        }
        return true;
      }(),
      "border array violates the proper-border bounds");
  return border;
}

int suffix_prefix_overlap(SymbolView x, SymbolView y) {
  if (x.empty() || y.empty()) {
    return 0;
  }
  // Word-parallel fast path: when both words fit one packed lane the
  // overlap is a handful of shift-and-compare lane ops and, unlike the
  // Morris–Pratt automaton below, needs no failure-function allocation.
  // Differentially pinned against the scalar path by test_packed_kernels.
  PackedBuf px;
  PackedBuf py;
  if (try_pack_pair(x, y, px, py)) {
    const int overlap = suffix_prefix_overlap_packed(px, py);
    DBN_ENSURE(
        overlap >= 0 &&
            overlap <= static_cast<int>(std::min(x.size(), y.size())),
        "suffix/prefix overlap must fit in both words");
    return overlap;
  }
  const std::vector<int> border = border_array(y);
  int q = 0;  // invariant: longest prefix of y that is a suffix of the
              // processed part of x
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (q == static_cast<int>(y.size())) {
      q = border[static_cast<std::size_t>(q) - 1];
    }
    while (q > 0 && y[static_cast<std::size_t>(q)] != x[i]) {
      q = border[static_cast<std::size_t>(q) - 1];
    }
    if (y[static_cast<std::size_t>(q)] == x[i]) {
      ++q;
    }
  }
  DBN_ENSURE(q >= 0 && q <= static_cast<int>(std::min(x.size(), y.size())),
             "suffix/prefix overlap must fit in both words");
  return q;
}

}  // namespace dbn::strings
