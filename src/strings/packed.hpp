// Bit-packed word buffers and the word-parallel (SWAR) matching kernels
// behind the routing hot paths.
//
// Layout: a PackedBuf stores up to 128 bits of digits in one unsigned
// 128-bit lane. Digit cell i occupies bits [i*width, (i+1)*width), with
// cell 0 (the paper's x_1) in the least significant bits. The cell width
// is 1 bit for alphabets up to 2, 2 bits up to 4 and 4 bits up to 16, so
// a word fits one lane iff width * length <= 128 — every de Bruijn vertex
// with d = 2, k <= 128; d <= 4, k <= 64 and d <= 16, k <= 32. A WideBuf
// lays the same cells over 64-bit limbs, up to 512 bits (d = 2 up to
// k = 512, d <= 4 up to k = 256, d <= 16 up to k = 128); only the
// Theorem 2 side sweep runs on it. Larger alphabets or longer words fall
// back to the scalar kernels (the callers in failure.cpp /
// route_engine.cpp dispatch on try_pack / packable).
//
// The kernels all reduce to one primitive: a per-cell equality mask
// between two buffers at a digit offset, computed branch-free by XOR
// (at widths 2 and 4 OR-folding each cell onto its low bit) and masking
// to the window. A run of equal cells is then measured by mask-and-shift
// folds: m &= m >> (step * width) keeps the cells that start a longer
// run. On lanes wider than 64 bits, doubling steps decide in O(log need)
// lane ops whether any run reaches the length `need` that could beat the
// sweep's incumbent, and only then the one-cell fold finds the exact
// longest run; a 64-bit lane folds one cell at a time. For words up to
// k = 32 the route engine skips the sweep: side_minima_diagonal scores
// both sides in one pass over the diagonals of the x_i == y_j matrix, one
// 64-bit row per digit of x. Every kernel here has a scalar reference in
// oracle/naive.hpp or strings/matching.hpp; the packed-vs-scalar
// differential battery (tests/test_packed_kernels.cpp, test_kernel_fuzz)
// pins the equivalence.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "strings/matching.hpp"
#include "strings/symbol.hpp"

namespace dbn::strings {

/// Bits in one PackedBuf lane, and in the widest (multi-limb) lane.
inline constexpr std::uint32_t kLaneBits = 128;
inline constexpr std::uint32_t kWideLaneBits = 512;

/// One packed word: digits in a single 128-bit lane, low cells first.
/// Invariant: every bit above cell size-1 is zero, and every cell value is
/// below 2^width (callers pack through pack_word / try_pack, which enforce
/// both).
struct PackedBuf {
  __uint128_t bits = 0;      // cell i at [i*width, (i+1)*width)
  std::uint32_t width = 0;   // bits per digit cell: 1, 2 or 4
  std::uint32_t size = 0;    // number of digit cells

  /// Digit in cell i (i < size).
  std::uint32_t get(std::size_t i) const;
  /// Overwrites cell i (i < size, v < 2^width).
  void set(std::size_t i, std::uint32_t v);

  friend bool operator==(const PackedBuf& a, const PackedBuf& b) = default;
};

/// Cell width needed for digits in [0, alphabet): 1, 2, 4, or 0 when the
/// alphabet does not pack (> 16).
std::uint32_t packed_width(std::uint64_t alphabet);

/// Whether a word of `size` digits over [0, alphabet) packs into
/// `lane_bits` bits: by default the widest lane (a WideBuf), with
/// kLaneBits one PackedBuf.
bool packable(std::uint64_t alphabet, std::size_t size,
              std::uint32_t lane_bits = kWideLaneBits);

/// Packs `word` (digits < alphabet) at the width packed_width(alphabet).
/// Requires packable(alphabet, word.size(), kLaneBits).
PackedBuf pack_word(SymbolView word, std::uint64_t alphabet);

/// The lane with its digit cells in reverse order — equal to packing the
/// reversed word, but computed from the already-packed lane in O(log)
/// swap/shift steps instead of another O(k) digit loop. This is how the
/// route engine derives its r-side lanes from the forward packs.
PackedBuf reverse_cells(const PackedBuf& p);

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

/// The l-side Theorem 2 minimum — packed counterpart of min_l_cost.
///
/// Works on the offset reformulation of the minimand: a cell run
/// x[p..p+θ-1] == y[p+c..p+c+θ-1] (0-based, offset c = start(y) - start(x))
/// is exactly a witness l_{i,j} >= θ at (i, j) = (p+1, p+c+θ) with cost
///     2k - 1 + i - j - θ  =  2k - c - 2θ,
/// so  D1 = min(k, min_c (2k - c - 2·maxrun(c)))
/// with the θ = 0 baseline k attained at (i, j) = (1, k). The sweep visits
/// offsets in increasing |c| and prunes with the exact lower bounds
/// cost(c) >= c (c >= 0, run <= k - c) and cost(c) >= 3|c| (c < 0).
/// Within an offset it only tests whether some run reaches the length
/// that would beat the incumbent, (2k - c - best)/2 + 1 cells (with
/// 2k + |c| for c < 0), and measures the exact longest run and its lowest
/// start only when one does. Same result contract as strings::min_l_cost:
/// a minimal cost plus a valid (s, t, theta) witness. Requires equal
/// widths and sizes, size >= 1.
OverlapMin min_l_cost_packed(const PackedBuf& x, const PackedBuf& y);

/// No external incumbent: min_l_cost_packed_bounded degenerates to the
/// full sweep (every real cost is below this).
inline constexpr int kNoSweepBound = 1 << 30;

/// The same sweep pruned against an external incumbent `bound` (e.g. the
/// other side's minimum): offsets that provably cannot yield a cost below
/// min(bound, incumbent) are skipped. The returned witness is always
/// valid and its cost is the exact side minimum whenever that minimum is
/// below `bound`; otherwise the cost is merely some upper bound >= the
/// true minimum (and >= `bound`), which is all a caller taking
/// min(bound, result) needs.
OverlapMin min_l_cost_packed_bounded(const PackedBuf& x, const PackedBuf& y,
                                     int bound);

/// One packed word of up to kWideLaneBits bits: PackedBuf's cell layout
/// and invariant laid over 64-bit limbs, limb 0 lowest. A cell never
/// straddles two limbs (every width divides 64).
struct WideBuf {
  std::array<std::uint64_t, kWideLaneBits / 64> limbs{};
  std::uint32_t width = 0;  // bits per digit cell: 1, 2 or 4
  std::uint32_t size = 0;   // number of digit cells
};

/// Packs `word` — or its reversal, for the r-side reduction — into a
/// WideBuf. Requires packable(alphabet, word.size()).
WideBuf pack_wide(SymbolView word, std::uint64_t alphabet,
                  bool reversed = false);

/// min_l_cost_packed_bounded for a WideBuf pair: the same offset sweep,
/// pruning bounds and witness contract, run on a lane of 4 limbs when the
/// words fit 256 bits and of 8 limbs otherwise. Requires equal widths and
/// sizes, size >= 1.
OverlapMin min_l_cost_wide(const WideBuf& x, const WideBuf& y,
                           int bound = kNoSweepBound);

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
struct SideMinima {
  OverlapMin l_side;
  OverlapMin r_side;
};

/// Both side minima from one pass over the diagonals of the equality
/// matrix x_i == y_j, for words where diagonal_pass_fits.
///
/// A block x[p..p+θ-1] == y[q..q+θ-1] on diagonal c = q - p costs
/// 2k - c - 2θ on the l-side and 2k + c - 2θ on the r-side. Row i holds
/// y's digit mask for x_i shifted so that diagonal c lands in column
/// c + k - 1; ANDing neighbouring rows θ - 1 times leaves, in row p, the
/// diagonals with a run of θ starting at x_p. Each θ step is one AND and
/// one OR per row, and the OR of the rows is the set of diagonals that
/// still have a run of θ: its highest column is the l-side's best block of
/// that length and its lowest the r-side's. The pass stops when no
/// diagonal survives, so it runs longest-common-run + 1 steps. Among equal
/// costs the later θ wins, which is the smaller |c|. Below cost k the
/// diagonal holds one run of that length (2θ exceeds its k - |c| cells),
/// so the block is unique. That is the witness min_l_cost_packed returns
/// on (x, y) and on the reversed words, so a route planned from these
/// minima is the offset sweep's. Every candidate is a real block, so
/// each side's cost lies between its true minimum and its minimum over
/// the blocks on its own sign of c (c >= 0 for l, c <= 0 for r). Where the
/// two differ, the true minimum sits on a block whose other-side cost is
/// 2|c| lower, and the plan takes the other side either way.
SideMinima side_minima_diagonal(SymbolView x, SymbolView y,
                                std::uint64_t alphabet);

}  // namespace dbn::strings
