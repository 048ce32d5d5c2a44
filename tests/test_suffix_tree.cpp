#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/contract.hpp"
#include "common/rng.hpp"
#include "oracle/suffix_tree.hpp"
#include "testing_util.hpp"

namespace dbn::strings {
namespace {

using dbn::testing::random_symbols;

std::vector<Symbol> with_endmarker(std::vector<Symbol> s) {
  Symbol max_symbol = 0;
  for (const Symbol c : s) {
    max_symbol = std::max(max_symbol, c);
  }
  s.push_back(max_symbol + 1);
  return s;
}

/// Suffix array by brute force (sort suffixes lexicographically).
std::vector<std::size_t> naive_suffix_array(const std::vector<Symbol>& text) {
  std::vector<std::size_t> idx(text.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return std::lexicographical_compare(text.begin() + static_cast<long>(a),
                                        text.end(),
                                        text.begin() + static_cast<long>(b),
                                        text.end());
  });
  return idx;
}

TEST(SuffixTree, BananaStructure) {
  const auto text = with_endmarker(to_symbols("banana"));
  const SuffixTree tree(text);
  // banana$ has 7 suffixes -> 7 leaves; internal nodes: root, "a", "na",
  // "ana"? Compact tree of banana$ has 4 internal nodes including root.
  int leaves = 0, internal = 0;
  for (int v = 0; v < tree.node_count(); ++v) {
    (tree.is_leaf(v) ? leaves : internal)++;
  }
  EXPECT_EQ(leaves, 7);
  EXPECT_EQ(internal, 4);
  EXPECT_TRUE(tree.contains(to_symbols("ana")));
  EXPECT_TRUE(tree.contains(to_symbols("banana")));
  EXPECT_TRUE(tree.contains(to_symbols("nan")));
  EXPECT_FALSE(tree.contains(to_symbols("nab")));
  EXPECT_FALSE(tree.contains(to_symbols("bananab")));
}

TEST(SuffixTree, SuffixArrayMatchesBruteForce) {
  Rng rng(808);
  for (int trial = 0; trial < 150; ++trial) {
    const std::uint32_t alphabet = 2 + trial % 4;
    const auto text =
        with_endmarker(random_symbols(rng, 1 + rng.below(60), alphabet));
    const SuffixTree tree(text);
    EXPECT_EQ(tree.suffix_array(), naive_suffix_array(text))
        << "trial " << trial;
  }
}

TEST(SuffixTree, UkkonenMatchesNaiveBuilder) {
  Rng rng(909);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint32_t alphabet = 2 + trial % 3;
    const auto text =
        with_endmarker(random_symbols(rng, 1 + rng.below(50), alphabet));
    const SuffixTree fast(text);
    const SuffixTree slow = SuffixTree::build_naive(text);
    EXPECT_EQ(fast.signature(), slow.signature()) << "trial " << trial;
    EXPECT_EQ(fast.node_count(), slow.node_count());
  }
}

TEST(SuffixTree, NodeCountIsLinear) {
  // A tree over n symbols has n leaves and at most n-1 internal nodes
  // (every internal node except possibly the root has >= 2 children).
  Rng rng(111);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 2 + rng.below(200);
    const auto text = with_endmarker(random_symbols(rng, n, 2));
    const SuffixTree tree(text);
    EXPECT_LE(tree.node_count(), static_cast<int>(2 * text.size()));
  }
}

TEST(SuffixTree, EveryInternalNodeHasAtLeastTwoChildren) {
  Rng rng(222);
  for (int trial = 0; trial < 50; ++trial) {
    const auto text =
        with_endmarker(random_symbols(rng, 1 + rng.below(80), 3));
    const SuffixTree tree(text);
    for (int v = 0; v < tree.node_count(); ++v) {
      if (!tree.is_leaf(v) && v != tree.root()) {
        EXPECT_GE(tree.children(v).size(), 2u) << "node " << v;
      }
    }
  }
}

TEST(SuffixTree, DepthsAndParentsConsistent) {
  Rng rng(333);
  const auto text = with_endmarker(random_symbols(rng, 64, 2));
  const SuffixTree tree(text);
  EXPECT_EQ(tree.string_depth(tree.root()), 0);
  EXPECT_EQ(tree.parent(tree.root()), -1);
  for (int v = 1; v < tree.node_count(); ++v) {
    const int p = tree.parent(v);
    ASSERT_GE(p, 0);
    EXPECT_EQ(tree.string_depth(v),
              tree.string_depth(p) +
                  static_cast<int>(tree.edge_end(v) - tree.edge_begin(v)));
  }
}

TEST(SuffixTree, LeafDepthsEqualSuffixLengths) {
  Rng rng(444);
  const auto text = with_endmarker(random_symbols(rng, 40, 2));
  const SuffixTree tree(text);
  std::vector<bool> seen(text.size(), false);
  for (int v = 1; v < tree.node_count(); ++v) {
    if (!tree.is_leaf(v)) {
      continue;
    }
    const std::size_t start = tree.suffix_start(v);
    ASSERT_LT(start, text.size());
    EXPECT_FALSE(seen[start]) << "duplicate leaf for suffix " << start;
    seen[start] = true;
    EXPECT_EQ(static_cast<std::size_t>(tree.string_depth(v)),
              text.size() - start);
  }
  for (std::size_t i = 0; i < text.size(); ++i) {
    EXPECT_TRUE(seen[i]) << "missing leaf for suffix " << i;
  }
}

TEST(SuffixTree, ContainsAgreesWithDirectSearchOnAllSubstrings) {
  Rng rng(555);
  const auto base = random_symbols(rng, 24, 2);
  const auto text = with_endmarker(base);
  const SuffixTree tree(text);
  // Every substring of the text must be found.
  for (std::size_t i = 0; i < base.size(); ++i) {
    for (std::size_t len = 1; i + len <= base.size(); ++len) {
      std::vector<Symbol> sub(base.begin() + static_cast<long>(i),
                              base.begin() + static_cast<long>(i + len));
      EXPECT_TRUE(tree.contains(sub));
    }
  }
  // Random probes agree with a direct scan.
  for (int probe = 0; probe < 200; ++probe) {
    const auto pat = random_symbols(rng, 1 + rng.below(6), 2);
    const bool expected =
        std::search(text.begin(), text.end(), pat.begin(), pat.end()) !=
        text.end();
    EXPECT_EQ(tree.contains(pat), expected);
  }
}

TEST(SuffixTree, RejectsInvalidTexts) {
  EXPECT_THROW(SuffixTree(std::vector<Symbol>{}), ContractViolation);
  // Last symbol must be unique.
  EXPECT_THROW(SuffixTree(to_symbols("aba")), ContractViolation);
  EXPECT_NO_THROW(SuffixTree(to_symbols("ab")));
}

TEST(SuffixTree, SingleSymbolText) {
  const SuffixTree tree(to_symbols("z"));
  EXPECT_EQ(tree.node_count(), 2);  // root + one leaf
  EXPECT_TRUE(tree.contains(to_symbols("z")));
  EXPECT_FALSE(tree.contains(to_symbols("y")));
}

}  // namespace
}  // namespace dbn::strings
