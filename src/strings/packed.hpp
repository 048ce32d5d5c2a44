// Bit-packed word buffers and the two Theorem 2 side-minimum kernels
// behind the routing hot paths.
//
// Layout: a PackedBuf stores up to 128 bits of digits in one unsigned
// 128-bit lane. Digit cell i occupies bits [i*width, (i+1)*width), with
// cell 0 (the paper's x_1) in the least significant bits. The cell width
// is 1 bit for alphabets up to 2, 2 bits up to 4 and 4 bits up to 16, so
// a word fits one lane iff width * length <= 128. Algorithm 1
// (failure.cpp) runs suffix_prefix_overlap_packed on it when a pair packs.
//
// The side minima come from one of two kernels, chosen from (d, k) alone
// by the route engine:
//   - side_minima_diagonal, for k <= 32 and d <= 16: one pass over the
//     2k - 1 diagonals of the equality matrix x_i == y_j, one 64-bit row
//     per digit of x;
//   - side_minima_seeded, for every other word: a block that can beat the
//     incumbent covers its diagonal's central cells (its seed), so the
//     kernel tests every diagonal's seed at once with word-wide XORs and
//     measures only the few diagonals that pass, after the diagonals with
//     |c| <= 1, which settle near pairs by themselves.
// Both keep one witness rule, stated once at SideMinima and pinned by
// oracle/side_minima_reference.hpp (tests/test_packed_kernels.cpp).
#pragma once

#include <cstddef>
#include <cstdint>

#include "strings/matching.hpp"
#include "strings/symbol.hpp"

namespace dbn::strings {

/// Bits in one PackedBuf lane.
inline constexpr std::uint32_t kLaneBits = 128;

/// One packed word: digits in a single 128-bit lane, low cells first.
/// Invariant: every bit above cell size-1 is zero, and every cell value is
/// below 2^width (callers pack through try_pack, which enforces both).
struct PackedBuf {
  __uint128_t bits = 0;      // cell i at [i*width, (i+1)*width)
  std::uint32_t width = 0;   // bits per digit cell: 1, 2 or 4
  std::uint32_t size = 0;    // number of digit cells

  /// Digit in cell i (i < size).
  std::uint32_t get(std::size_t i) const;

  friend bool operator==(const PackedBuf& a, const PackedBuf& b) = default;
};

/// Cell width needed for digits in [0, alphabet): 1, 2, 4, or 0 when the
/// alphabet does not pack (> 16).
std::uint32_t packed_width(std::uint64_t alphabet);

/// Whether a word of `size` digits over [0, alphabet) packs into one
/// PackedBuf lane.
bool packable(std::uint64_t alphabet, std::size_t size);

/// Packs `word` at an explicit cell width; false when width is 0, a digit
/// does not fit, or the word overflows the lane. Never throws: this is the
/// dispatch predicate for symbol views with no known alphabet.
bool try_pack(SymbolView word, std::uint32_t width, PackedBuf& out);

/// Packs two words at one common width (per-cell comparisons require equal
/// widths); false when either word fails to pack.
bool try_pack_pair(SymbolView x, SymbolView y, PackedBuf& px, PackedBuf& py);

/// Longest suffix of x that is a prefix of y — packed counterpart of
/// suffix_prefix_overlap (Property 1 / Algorithm 1). Requires equal
/// widths. O(min(|x|, |y|)) single-lane compares, no allocation.
int suffix_prefix_overlap_packed(const PackedBuf& x, const PackedBuf& y);

/// Longest words and largest alphabet side_minima_diagonal takes: the
/// 2k - 1 diagonals of a k <= 32 word pair fit one 64-bit column word, and
/// a digit mask per letter of an alphabet up to 16 stays on the stack.
inline constexpr std::size_t kDiagonalPassMaxK = 32;
inline constexpr std::uint64_t kDiagonalPassMaxAlphabet = 16;

/// Whether side_minima_diagonal takes words of `size` digits over
/// [0, alphabet): 1 <= size <= 32 and alphabet <= 16.
bool diagonal_pass_fits(std::uint64_t alphabet, std::size_t size);

/// Both Theorem 2 side minima, each a cost with a witness under
/// min_l_cost's contract. `r_side` is in (X, Y) coordinates, as
/// core/path_builder.hpp's r_side_from_reversed maps it: the block
/// x_{s-θ+1..s} == y_{t..t+θ-1} at cost 2k - 1 - s + t - θ.
///
/// The witness rule. A block x[p..p+θ-1] == y[p+c..p+c+θ-1] (0-based, on
/// diagonal c) costs 2k - c - 2θ on the l-side and 2k + c - 2θ on the
/// r-side. Each side keeps the minimum of (cost, -θ) over every diagonal's
/// longest run: the lowest cost and, on a cost tie, the longer block,
/// which is the one on the smaller |c|. Below cost k that names exactly
/// one block, the only run of its length on its diagonal (2θ exceeds the
/// diagonal's k - |c| cells, so two such runs would not fit). At cost k
/// the side keeps the θ = 0 baseline: (s, t) = (1, k) on the l-side and
/// (k, 1) on the r-side. strings::min_l_cost, the Algorithm 3 scan, breaks
/// a cost tie by the lowest x start instead, so on a tie its witness may
/// name another block of the same cost.
struct SideMinima {
  OverlapMin l_side;
  OverlapMin r_side;
};

/// Both side minima from one pass over the diagonals of the equality
/// matrix x_i == y_j, for words where diagonal_pass_fits.
///
/// Row i holds y's digit mask for x_i shifted so that diagonal c lands in
/// column c + k - 1; ANDing neighbouring rows θ - 1 times leaves, in row p,
/// the diagonals with a run of θ starting at x_p. Each θ step is one AND
/// and one OR per row, and the OR of the rows is the set of diagonals that
/// still have a run of θ: its highest column is the l-side's best block of
/// that length and its lowest the r-side's. The pass stops when no
/// diagonal survives, so it runs longest-common-run + 1 steps.
SideMinima side_minima_diagonal(SymbolView x, SymbolView y,
                                std::uint64_t alphabet);

/// Both side minima, under the same witness rule, for any two words of
/// equal length k >= 1 over [0, alphabet).
///
/// A block on diagonal c (n = k - |c| cells) that costs at most T on its
/// cheaper side has 2θ - n >= k - T, so it covers the diagonal's k - T
/// central cells, its seed (the middle cell at least: only a run longer
/// than n/2 can cost less than k), and reaches past the seed on one side.
/// The kernel measures the diagonals with |c| <= 1 first, where near pairs
/// settle; then it tests the seeds of all other diagonals at once, one
/// parity of c at a time, as XORs of 56-bit windows of x and of reversed y
/// (1, 2 or 4 bits per digit for d <= 16, digits past it), and measures
/// the run through the middle cell of each diagonal that passes and can
/// still improve a side (|c| below that side's cost, or 3|c| at most the
/// other's): a few in a hundred for random words. The packed words live
/// on the stack up to 2,048 bits a word, past that in per-thread scratch
/// that grows on first use and never shrinks, so no call allocates once
/// its thread is warmed.
SideMinima side_minima_seeded(SymbolView x, SymbolView y,
                              std::uint64_t alphabet);

}  // namespace dbn::strings
