// The paper's distance functions (Section 2).
#pragma once

#include <cstdint>

#include "debruijn/word.hpp"

namespace dbn {

/// Property 1: D(X,Y) = k - max{ s : x_{k-s+1}..x_k = y_1..y_s } in the
/// directed DG(d,k). O(k) time via the Morris–Pratt failure function.
int directed_distance(const Word& x, const Word& y);

/// Theorem 2: the undirected distance, computed with the O(k^2) matching
/// scan (Algorithms 2/3).
int undirected_distance_quadratic(const Word& x, const Word& y);

/// Theorem 2: the undirected distance in O(k). Uses the suffix-automaton
/// engine (the fastest of the library's linear kernels, EXPERIMENTS.md A1);
/// identical results to the Algorithm 4 suffix-tree form, which is kept as
/// a differential oracle (oracle/common_substring.hpp, oracle/routers.hpp).
int undirected_distance(const Word& x, const Word& y);

/// Equation (5) as printed in the paper:
/// delta(d,k) = k - (1 - alpha^k) * alpha / (1 - alpha), alpha = 1/d.
///
/// Reproduction note (EXPERIMENTS.md, experiment E5): the paper derives
/// this from P(D <= k-s) = alpha^s, which implicitly assumes the overlap
/// events "suffix_s(X) == prefix_s(Y)" are nested in s. They are not (the
/// maximal overlap l can exceed s while the length-s overlap fails, e.g.
/// X = Y = (0,1)), so equation (5) is an upper bound that is exact only
/// for k = 1. The exact average is directed_average_distance_exact; the
/// measured gap saturates near 0.62 for d = 2 and shrinks with d
/// (bench_eq5_directed_avg tabulates it).
double directed_average_distance_closed_form(std::uint32_t radix,
                                             std::size_t k);

/// Exact histogram of the directed distance over all ordered pairs
/// (index = distance, 0..k), computed without BFS in O(N k^2):
/// for each source X, the set of Y with overlap >= s is a union of prefix
/// cylinders C_{s'} = { Y : Y starts with the length-s' suffix of X },
/// s' >= s; two cylinders are either nested or disjoint, so the union size
/// is the sum of d^(k-s') over the cylinders not nested in an earlier one,
/// decided by the self-overlap (border) structure of X.
std::vector<std::uint64_t> directed_distance_histogram_exact(
    std::uint32_t radix, std::size_t k);

/// Exact average directed distance over all ordered pairs (self-pairs
/// included), from directed_distance_histogram_exact.
double directed_average_distance_exact(std::uint32_t radix, std::size_t k);

}  // namespace dbn
