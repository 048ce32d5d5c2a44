#include "strings/packed.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "common/contract.hpp"

namespace dbn::strings {

namespace {

// Whether `width` is a packed cell width: 1 bit for alphabets up to 2, 2
// bits up to 4, 4 bits up to 16.
constexpr bool valid_width(std::uint32_t width) {
  return width == 1 || width == 2 || width == 4;
}

// Per-cell low-bit pattern of a 64-bit limb: one set bit at the bottom of
// every cell of the given width (every bit at width 1).
constexpr std::uint64_t cell_lsb(std::uint32_t width) {
  if (width == 1) {
    return ~std::uint64_t{0};
  }
  return width == 2 ? 0x5555555555555555ull : 0x1111111111111111ull;
}

// The kernels below are templated on the lane type: a 128-bit lane covers
// every PackedBuf word, but when the word fits 64 bits (e.g. the whole of
// DG(2, k <= 64)) every shift/XOR/mask in the sweep is a single-register
// op instead of a carried pair, which roughly halves the kernel cost on
// the words the routing benchmarks actually use. Dispatch is one
// comparison per call (width * size <= 64). Past 128 bits the side sweep
// runs on Limbs, a fixed array of 64-bit limbs.

// A lane of N 64-bit limbs, limb 0 lowest. It supplies exactly the
// operations the sweep uses — bitwise logic, a right shift that carries
// bits down across limbs, a zero test and a trailing-zero count — so the
// sweep instantiates on it unchanged. Every limb index is a compile-time
// constant, which lets the compiler keep the lane in registers: the
// pragmas unroll each limb loop fully (without them the k = 128 sweep ran
// about 2x slower).
template <std::size_t N>
struct Limbs {
  std::array<std::uint64_t, N> l{};

  friend Limbs operator^(Limbs a, const Limbs& b) {
#pragma GCC unroll 8
    for (std::size_t i = 0; i < N; ++i) {
      a.l[i] ^= b.l[i];
    }
    return a;
  }
  friend Limbs operator&(Limbs a, const Limbs& b) {
    a &= b;
    return a;
  }
  friend Limbs operator~(Limbs a) {
#pragma GCC unroll 8
    for (std::size_t i = 0; i < N; ++i) {
      a.l[i] = ~a.l[i];
    }
    return a;
  }
  Limbs& operator|=(const Limbs& b) {
#pragma GCC unroll 8
    for (std::size_t i = 0; i < N; ++i) {
      l[i] |= b.l[i];
    }
    return *this;
  }
  Limbs& operator&=(const Limbs& b) {
#pragma GCC unroll 8
    for (std::size_t i = 0; i < N; ++i) {
      l[i] &= b.l[i];
    }
    return *this;
  }

  // Shift right by s < 64 * N bits: move whole limbs down by s / 64, one
  // power-of-two step per set bit, then funnel-shift by r = s % 64, each
  // limb taking its carry from the limb above. The carry is shifted in two
  // steps so no shift count reaches 64, which also makes it vanish at
  // r = 0.
  friend Limbs operator>>(Limbs a, std::uint32_t s) {
#pragma GCC unroll 4
    for (std::size_t step = 1; step < N; step *= 2) {
      if (((s / 64) & step) != 0) {
#pragma GCC unroll 8
        for (std::size_t i = 0; i < N; ++i) {
          a.l[i] = i + step < N ? a.l[i + step] : 0;
        }
      }
    }
    const std::uint32_t r = s % 64;
#pragma GCC unroll 8
    for (std::size_t i = 0; i + 1 < N; ++i) {
      a.l[i] = (a.l[i] >> r) | ((a.l[i + 1] << 1) << (63 - r));
    }
    a.l[N - 1] >>= r;
    return a;
  }
};

template <typename Lane>
constexpr bool kIsLimbs = false;
template <std::size_t N>
constexpr bool kIsLimbs<Limbs<N>> = true;

template <typename Lane>
constexpr Lane lane_splat(std::uint64_t half) {
  if constexpr (kIsLimbs<Lane>) {
    Lane out;
    out.l.fill(half);
    return out;
  } else if constexpr (sizeof(Lane) == 8) {
    return half;
  } else {
    return (static_cast<Lane>(half) << 64) | half;
  }
}

// The low `bits` bits set (bits <= bit width of Lane).
template <typename Lane>
Lane low_mask_t(std::uint32_t bits) {
  if constexpr (kIsLimbs<Lane>) {
    Lane out;
#pragma GCC unroll 8
    for (std::size_t i = 0; i < out.l.size(); ++i) {
      const auto lo = static_cast<std::uint32_t>(64 * i);
      if (bits >= lo + 64) {
        out.l[i] = ~std::uint64_t{0};
      } else if (bits > lo) {
        out.l[i] = (std::uint64_t{1} << (bits - lo)) - 1;
      }
    }
    return out;
  } else {
    if (bits >= sizeof(Lane) * 8) {
      return ~static_cast<Lane>(0);
    }
    return (static_cast<Lane>(1) << bits) - 1;
  }
}

__uint128_t low_mask(std::uint32_t bits) {
  return low_mask_t<__uint128_t>(bits);
}

// Whether any bit of the lane is set.
template <typename Lane>
bool lane_any(const Lane& v) {
  if constexpr (kIsLimbs<Lane>) {
    std::uint64_t any = 0;
#pragma GCC unroll 8
    for (const std::uint64_t limb : v.l) {
      any |= limb;
    }
    return any != 0;
  } else {
    return v != 0;
  }
}

// Index of the lowest set bit; v must be non-zero.
template <typename Lane>
int lane_ctz(Lane v) {
  if constexpr (kIsLimbs<Lane>) {
#pragma GCC unroll 8
    for (std::size_t i = 0; i + 1 < v.l.size(); ++i) {
      if (v.l[i] != 0) {
        return static_cast<int>(64 * i) + std::countr_zero(v.l[i]);
      }
    }
    return static_cast<int>(64 * (v.l.size() - 1)) +
           std::countr_zero(v.l.back());
  } else if constexpr (sizeof(Lane) == 8) {
    return std::countr_zero(v);
  } else {
    const auto lo = static_cast<std::uint64_t>(v);
    if (lo != 0) {
      return std::countr_zero(lo);
    }
    return 64 + std::countr_zero(static_cast<std::uint64_t>(v >> 64));
  }
}

int countr_zero128(__uint128_t v) { return lane_ctz(v); }

// Per-cell equality mask: bit i*width is set iff cell i of a equals cell i
// of b, for the cells under `window` (a low mask of whole cells);
// everything above is cleared.
template <typename Lane>
Lane eq_mask_t(const Lane a, const Lane b, std::uint32_t width,
               const Lane window) {
  Lane t = a ^ b;
  if (width == 1) {
    // One bit per cell: equal digits are equal bits.
    return ~t & window;
  }
  // OR-fold each cell's difference bits onto the cell's low bit, then
  // invert: a zero cell (equal digits) becomes a set low bit.
  if (width == 4) {
    t |= t >> 2;
  }
  t |= t >> 1;
  return ~t & lane_splat<Lane>(cell_lsb(width)) & window;
}

// eq_mask_t over the first `cells` cells of one 128-bit lane.
__uint128_t eq_mask(const __uint128_t a, const __uint128_t b,
                    std::uint32_t width, std::uint32_t cells) {
  return eq_mask_t(a, b, width, low_mask(width * cells));
}

// A run of consecutive set cells in an equality mask: its length and the
// index of its first cell.
struct Run {
  int length = 0;
  int start = 0;
};

// The longest run of an equality mask if it reaches `need` cells (need >=
// 1), with the first cell of its lowest occurrence; {0, 0} when every run
// is shorter. A mask in which each set cell starts a run of `have` cells,
// folded as m &= m >> step*width with step <= have, keeps exactly the
// cells that start a run of have + step. On lanes wider than 64 bits,
// doubling steps (1, 2, 4, ..., capped at need) first settle whether any
// run reaches need in O(log need) lane ops, so an offset that cannot beat
// the incumbent costs a few folds. A 64-bit lane skips them: its runs are
// short and each fold is one instruction, and there the doubling steps
// measured slower than folding to the end. The one-cell fold then finds
// the exact longest run, and its last non-empty mask marks the starts of
// the longest runs.
template <typename Lane>
Run run_reaching(Lane m, std::uint32_t width, int need) {
  int have = 1;
  if constexpr (sizeof(Lane) > 8) {
    while (have < need && lane_any(m)) {
      const int step = std::min(have, need - have);
      m &= m >> (static_cast<std::uint32_t>(step) * width);
      have += step;
    }
  }
  if (!lane_any(m)) {
    return {};
  }
  Lane last = m;
  for (m &= m >> width; lane_any(m); m &= m >> width) {
    last = m;
    ++have;
  }
  if (have < need) {
    return {};
  }
  return Run{have, lane_ctz(last) / static_cast<int>(width)};
}

// Number of leading (lowest-index) consecutive set cells of an equality
// mask covering `cells` cells.
int leading_matches(__uint128_t mask, std::uint32_t width,
                    std::uint32_t cells) {
  const __uint128_t holes = ~mask & lane_splat<__uint128_t>(cell_lsb(width)) &
                            low_mask(width * cells);
  if (holes == 0) {
    return static_cast<int>(cells);
  }
  return countr_zero128(holes) / static_cast<int>(width);
}

// The l-side offset sweep (see min_l_cost_packed's header comment for the
// derivation). `bound` is an external incumbent: offsets whose cost lower
// bound reaches min(best, bound) are skipped, so the result is the exact
// minimum whenever that minimum is below `bound`. The cell width is a
// template argument, and the shifted word and its window move down one
// cell per offset, so every per-offset shift is by a constant.
template <std::uint32_t Width, typename Lane>
OverlapMin side_sweep(const Lane xbits, const Lane ybits, const int k,
                      const int bound) {
  const Lane full = low_mask_t<Lane>(Width * static_cast<std::uint32_t>(k));
  // θ = 0 baseline: cost 2k-1+i-j is minimal at (i, j) = (1, k), value k.
  OverlapMin best{k, 1, k, 0};
  // c >= 0: y shifted down by c cells, window k-c; a run starting at mask
  // cell p is the block x[p..p+θ-1] == y[p+c..p+c+θ-1], i.e. the witness
  // (s, t, θ) = (p+1, p+c+θ, θ) of cost 2k - c - 2θ. Runs are bounded by
  // the window, so cost(c) >= 2k - c - 2(k-c) = c: once c reaches the
  // incumbent the rest of the sweep cannot improve it. Within an offset,
  // the cost drops below the incumbent only for θ > (2k - c - best)/2, so
  // the run test is bounded by that need.
  Lane shifted = ybits;
  Lane window = full;
  for (int c = 0; c < k && c < best.cost && c < bound; ++c) {
    const Run run = run_reaching(eq_mask_t(xbits, shifted, Width, window),
                                 Width, (2 * k - c - best.cost) / 2 + 1);
    if (run.length != 0) {
      best = OverlapMin{2 * k - c - 2 * run.length, run.start + 1,
                        run.start + c + run.length, run.length};
    }
    shifted = shifted >> Width;
    window = window >> Width;
  }
  // c < 0 (shift x down by a = -c): mask cell p is the block
  // x[p+a..p+a+θ-1] == y[p..p+θ-1], witness (p+a+1, p+θ, θ) of cost
  // 2k + a - 2θ >= 2k + a - 2(k-a) = 3a.
  shifted = xbits;
  window = full;
  for (int a = 1; a < k && 3 * a < best.cost && 3 * a < bound; ++a) {
    shifted = shifted >> Width;
    window = window >> Width;
    const Run run = run_reaching(eq_mask_t(shifted, ybits, Width, window),
                                 Width, (2 * k + a - best.cost) / 2 + 1);
    if (run.length != 0) {
      best = OverlapMin{2 * k + a - 2 * run.length, run.start + a + 1,
                        run.start + run.length, run.length};
    }
  }
  return best;
}

// side_sweep at a run-time cell width.
template <typename Lane>
OverlapMin sweep(const Lane xbits, const Lane ybits, const int k,
                 const std::uint32_t width, const int bound) {
  switch (width) {
    case 1:
      return side_sweep<1>(xbits, ybits, k, bound);
    case 2:
      return side_sweep<2>(xbits, ybits, k, bound);
    default:
      return side_sweep<4>(xbits, ybits, k, bound);
  }
}

// The low N limbs of a wide word as a sweep lane.
template <std::size_t N>
Limbs<N> low_limbs(const WideBuf& w) {
  Limbs<N> out;
  std::copy_n(w.limbs.begin(), N, out.l.begin());
  return out;
}

// Digit in cell i of a packed word.
std::uint32_t cell(const PackedBuf& p, int i) {
  return p.get(static_cast<std::size_t>(i));
}
std::uint32_t cell(const WideBuf& w, int i) {
  const std::size_t bit = static_cast<std::size_t>(i) * w.width;
  return static_cast<std::uint32_t>(w.limbs[bit / 64] >> (bit % 64)) &
         ((1u << w.width) - 1);
}

// The witness contract every l-side kernel shares with the scalar ones:
// (s, t, theta) in range, reproducing the cost, and (audit level) naming a
// block that really matches.
template <typename Buf>
void ensure_witness(const OverlapMin& best, const Buf& x, const Buf& y) {
  const int k = static_cast<int>(x.size);
  DBN_ASSERT(best.cost <= k, "l-side minimum must not exceed the diameter");
  DBN_ENSURE(best.s >= 1 && best.s <= k && best.t >= 1 && best.t <= k &&
                 best.theta >= 0 && best.theta <= best.t &&
                 best.theta <= k - best.s + 1,
             "packed l-side witness (s, t, theta) out of range");
  DBN_ENSURE(best.cost == 2 * k - 1 + best.s - best.t - best.theta,
             "packed l-side witness does not reproduce its cost");
  DBN_AUDIT(
      [&] {
        for (int m = 0; m < best.theta; ++m) {
          if (cell(x, best.s - 1 + m) != cell(y, best.t - best.theta + m)) {
            return false;
          }
        }
        return true;
      }(),
      "packed l-side witness block does not match");
}

// A word as ensure_witness reads it: the digits of a SymbolView, front to
// back or, for an r-side witness (an l-side witness of the reversed words,
// core/path_builder.hpp), back to front.
struct DigitView {
  SymbolView digits;
  std::uint32_t size;
  bool reversed;
};
std::uint32_t cell(const DigitView& w, int i) {
  return w.digits[static_cast<std::size_t>(
      w.reversed ? static_cast<int>(w.size) - 1 - i : i)];
}

std::uint64_t byteswap64(std::uint64_t v) { return __builtin_bswap64(v); }

void check_pair(const PackedBuf& x, const PackedBuf& y) {
  DBN_REQUIRE(x.width == y.width && valid_width(x.width),
              "packed kernels need two buffers of one common width");
}

}  // namespace

std::uint32_t PackedBuf::get(std::size_t i) const {
  DBN_REQUIRE(i < size, "PackedBuf::get out of range");
  return static_cast<std::uint32_t>(bits >> (i * width)) &
         ((1u << width) - 1);
}

void PackedBuf::set(std::size_t i, std::uint32_t v) {
  DBN_REQUIRE(i < size, "PackedBuf::set out of range");
  DBN_REQUIRE(v < (1u << width), "PackedBuf::set digit exceeds the width");
  const std::uint32_t shift = static_cast<std::uint32_t>(i) * width;
  bits &= ~(static_cast<__uint128_t>((1u << width) - 1) << shift);
  bits |= static_cast<__uint128_t>(v) << shift;
}

std::uint32_t packed_width(std::uint64_t alphabet) {
  if (alphabet <= 2) {
    return 1;
  }
  if (alphabet <= 4) {
    return 2;
  }
  if (alphabet <= 16) {
    return 4;
  }
  return 0;
}

bool packable(std::uint64_t alphabet, std::size_t size,
              std::uint32_t lane_bits) {
  const std::uint32_t width = packed_width(alphabet);
  return width != 0 && width * size <= lane_bits;
}

PackedBuf pack_word(SymbolView word, std::uint64_t alphabet) {
  DBN_REQUIRE(packable(alphabet, word.size(), kLaneBits),
              "pack_word requires a packable (alphabet, length)");
  PackedBuf out;
  out.width = packed_width(alphabet);
  out.size = static_cast<std::uint32_t>(word.size());
  if (out.width * out.size <= 64) {
    // Accumulate in one register when the word fits 64 bits — the hot
    // shape for the routing benchmarks (all of DG(2, k <= 64) and
    // DG(d <= 4, k <= 32)).
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < word.size(); ++i) {
      DBN_REQUIRE(word[i] < alphabet, "pack_word digit exceeds the alphabet");
      acc |= static_cast<std::uint64_t>(word[i]) << (i * out.width);
    }
    out.bits = acc;
    return out;
  }
  for (std::size_t i = 0; i < word.size(); ++i) {
    DBN_REQUIRE(word[i] < alphabet, "pack_word digit exceeds the alphabet");
    out.bits |= static_cast<__uint128_t>(word[i]) << (i * out.width);
  }
  return out;
}

PackedBuf pack_reversed(SymbolView word, std::uint64_t alphabet) {
  DBN_REQUIRE(packable(alphabet, word.size(), kLaneBits),
              "pack_reversed requires a packable (alphabet, length)");
  PackedBuf out;
  out.width = packed_width(alphabet);
  out.size = static_cast<std::uint32_t>(word.size());
  for (std::size_t i = 0; i < word.size(); ++i) {
    const Symbol digit = word[word.size() - 1 - i];
    DBN_REQUIRE(digit < alphabet, "pack_reversed digit exceeds the alphabet");
    out.bits |= static_cast<__uint128_t>(digit) << (i * out.width);
  }
  return out;
}

PackedBuf reverse_cells(const PackedBuf& p) {
  DBN_REQUIRE(valid_width(p.width), "reverse_cells needs a packed buffer");
  // Butterfly reversal: swap the lane halves, then bytes within halves,
  // then nibbles within bytes, then (at widths 2 and 1) bit pairs within
  // nibbles, then (at width 1) single bits within pairs. That reverses all
  // lane cells, leaving the word's cells in the high end of the lane; the
  // final shift re-aligns cell 0 to the bottom.
  const auto hi = static_cast<std::uint64_t>(p.bits >> 64);
  const auto lo = static_cast<std::uint64_t>(p.bits);
  std::uint64_t a = byteswap64(lo);
  std::uint64_t b = byteswap64(hi);
  a = ((a & 0xF0F0F0F0F0F0F0F0ull) >> 4) | ((a & 0x0F0F0F0F0F0F0F0Full) << 4);
  b = ((b & 0xF0F0F0F0F0F0F0F0ull) >> 4) | ((b & 0x0F0F0F0F0F0F0F0Full) << 4);
  if (p.width <= 2) {
    a = ((a & 0xCCCCCCCCCCCCCCCCull) >> 2) |
        ((a & 0x3333333333333333ull) << 2);
    b = ((b & 0xCCCCCCCCCCCCCCCCull) >> 2) |
        ((b & 0x3333333333333333ull) << 2);
  }
  if (p.width == 1) {
    a = ((a & 0xAAAAAAAAAAAAAAAAull) >> 1) |
        ((a & 0x5555555555555555ull) << 1);
    b = ((b & 0xAAAAAAAAAAAAAAAAull) >> 1) |
        ((b & 0x5555555555555555ull) << 1);
  }
  const __uint128_t reversed = (static_cast<__uint128_t>(a) << 64) | b;
  PackedBuf out;
  out.width = p.width;
  out.size = p.size;
  out.bits = p.size == 0 ? 0 : reversed >> (kLaneBits - p.size * p.width);
  return out;
}

bool try_pack(SymbolView word, std::uint32_t width, PackedBuf& out) {
  if (!valid_width(width) || width * word.size() > kLaneBits) {
    return false;
  }
  out = PackedBuf{};
  out.width = width;
  out.size = static_cast<std::uint32_t>(word.size());
  for (std::size_t i = 0; i < word.size(); ++i) {
    if (word[i] >= (1u << width)) {
      return false;
    }
    out.bits |= static_cast<__uint128_t>(word[i]) << (i * width);
  }
  return true;
}

bool try_pack_pair(SymbolView x, SymbolView y, PackedBuf& px, PackedBuf& py) {
  Symbol top = 0;
  for (const Symbol c : x) {
    top = std::max(top, c);
  }
  for (const Symbol c : y) {
    top = std::max(top, c);
  }
  if (top >= 16) {
    return false;
  }
  const std::uint32_t width = packed_width(static_cast<std::uint64_t>(top) + 1);
  return try_pack(x, width, px) && try_pack(y, width, py);
}

std::vector<Symbol> unpack(const PackedBuf& p) {
  std::vector<Symbol> out(p.size);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = p.get(i);
  }
  return out;
}

int suffix_prefix_overlap_packed(const PackedBuf& x, const PackedBuf& y) {
  check_pair(x, y);
  const std::uint32_t width = x.width;
  // Longest s first: the suffix of x of length s is the whole lane shifted
  // down (the invariant keeps the bits above cell size-1 zero), and the
  // prefix of y of length s is a low mask.
  for (std::uint32_t s = std::min(x.size, y.size); s >= 1; --s) {
    if ((x.bits >> ((x.size - s) * width)) ==
        (y.bits & low_mask(s * width))) {
      return static_cast<int>(s);
    }
  }
  return 0;
}

OverlapMin min_l_cost_packed(const PackedBuf& x, const PackedBuf& y) {
  return min_l_cost_packed_bounded(x, y, kNoSweepBound);
}

OverlapMin min_l_cost_packed_bounded(const PackedBuf& x, const PackedBuf& y,
                                     int bound) {
  check_pair(x, y);
  DBN_REQUIRE(x.size >= 1 && x.size == y.size,
              "min_l_cost_packed requires two non-empty words of equal "
              "length");
  const int k = static_cast<int>(x.size);
  const std::uint32_t width = x.width;
  const OverlapMin best =
      x.size * width <= 64
          ? sweep(static_cast<std::uint64_t>(x.bits),
                  static_cast<std::uint64_t>(y.bits), k, width, bound)
          : sweep(x.bits, y.bits, k, width, bound);
  ensure_witness(best, x, y);
  return best;
}

WideBuf pack_wide(SymbolView word, std::uint64_t alphabet, bool reversed) {
  DBN_REQUIRE(packable(alphabet, word.size()),
              "pack_wide requires a packable (alphabet, length)");
  WideBuf out;
  out.width = packed_width(alphabet);
  out.size = static_cast<std::uint32_t>(word.size());
  for (std::size_t i = 0; i < word.size(); ++i) {
    const Symbol digit = reversed ? word[word.size() - 1 - i] : word[i];
    DBN_REQUIRE(digit < alphabet, "pack_wide digit exceeds the alphabet");
    const std::size_t bit = i * out.width;
    out.limbs[bit / 64] |= static_cast<std::uint64_t>(digit) << (bit % 64);
  }
  return out;
}

OverlapMin min_l_cost_wide(const WideBuf& x, const WideBuf& y, int bound) {
  DBN_REQUIRE(x.width == y.width && valid_width(x.width),
              "packed kernels need two buffers of one common width");
  DBN_REQUIRE(x.size >= 1 && x.size == y.size &&
                  x.size * x.width <= kWideLaneBits,
              "min_l_cost_wide requires two non-empty words of equal "
              "length that fit the lane");
  const int k = static_cast<int>(x.size);
  const std::uint32_t width = x.width;
  const OverlapMin best =
      x.size * width <= 256
          ? sweep(low_limbs<4>(x), low_limbs<4>(y), k, width, bound)
          : sweep(low_limbs<8>(x), low_limbs<8>(y), k, width, bound);
  ensure_witness(best, x, y);
  return best;
}

bool diagonal_pass_fits(std::uint64_t alphabet, std::size_t size) {
  return alphabet >= 1 && alphabet <= kDiagonalPassMaxAlphabet &&
         size >= 1 && size <= kDiagonalPassMaxK;
}

SideMinima side_minima_diagonal(SymbolView x, SymbolView y,
                                std::uint64_t alphabet) {
  DBN_REQUIRE(x.size() == y.size() && diagonal_pass_fits(alphabet, x.size()),
              "side_minima_diagonal requires two words of equal length "
              "k <= 32 over an alphabet of at most 16");
  const int k = static_cast<int>(x.size());
  // Bit j of ymask[a] is set iff y_j == a.
  std::array<std::uint32_t, kDiagonalPassMaxAlphabet> ymask{};
  for (int j = 0; j < k; ++j) {
    const Symbol xd = x[static_cast<std::size_t>(j)];
    const Symbol yd = y[static_cast<std::size_t>(j)];
    DBN_REQUIRE(xd < alphabet && yd < alphabet,
                "side_minima_diagonal digit exceeds the alphabet");
    ymask[yd] |= std::uint32_t{1} << j;
  }
  // Row i: bit c + k - 1 is set iff x_i == y_{i+c}. `alive` is the OR of
  // the rows: the diagonals with a run of the current length θ.
  std::array<std::uint64_t, kDiagonalPassMaxK> rows;
  std::uint64_t alive = 0;
  for (int i = 0; i < k; ++i) {
    const std::uint64_t row = ymask[x[static_cast<std::size_t>(i)]];
    rows[static_cast<std::size_t>(i)] = row << (k - 1 - i);
    alive |= rows[static_cast<std::size_t>(i)];
  }
  // At run length θ the highest surviving column h is diagonal
  // c = h - (k - 1), the l-side's cheapest block of that length,
  // 2k - c - 2θ; the lowest column is the r-side's, 2k + c - 2θ. Each side
  // keeps one key, 64 cost + 63 - θ, so a later θ takes ties (it is the
  // smaller |c|) and the update is a single min. θ = 0 is the baseline k.
  constexpr int kThetaBits = 6;
  constexpr int kThetaMask = (1 << kThetaBits) - 1;
  int l_key = (k << kThetaBits) | kThetaMask;
  int r_key = l_key;
  for (int theta = 1; alive != 0; ++theta) {
    const int l = 3 * k - 1 - (63 - std::countl_zero(alive)) - 2 * theta;
    const int r = k + 1 + std::countr_zero(alive) - 2 * theta;
    l_key = std::min(l_key, (l << kThetaBits) | (kThetaMask - theta));
    r_key = std::min(r_key, (r << kThetaBits) | (kThetaMask - theta));
    // Row p keeps the diagonals whose run from x_p reaches θ + 1; only the
    // first k - θ rows can still hold one. Unrolled by four, the loop pays
    // one exit prediction per four rows: BM_EnginePeriodic/32 read
    // 0.59-0.71 us, against 0.75-0.88 us rolled (shared 4-thread x86-64).
    alive = 0;
#pragma GCC unroll 4
    for (int i = 0; i + theta < k; ++i) {
      rows[static_cast<std::size_t>(i)] &=
          rows[static_cast<std::size_t>(i + 1)];
      alive |= rows[static_cast<std::size_t>(i)];
    }
  }
  // A side's block is the longest run of its diagonal, where bit i is set
  // iff x_i == y_{i+c}. Below cost k that run is the diagonal's only one
  // of its length: either side's cost is at least 2k - |c| - 2θ, so 2θ
  // exceeds the diagonal's k - |c| cells, and two such runs and the
  // mismatch between them would not fit.
  const auto block_start = [&](int c, int theta) {
    std::uint64_t diagonal = 0;
    for (int i = std::max(0, -c); i < std::min(k, k - c); ++i) {
      diagonal |= std::uint64_t{x[static_cast<std::size_t>(i)] ==
                                y[static_cast<std::size_t>(i + c)]}
                  << i;
    }
    return run_reaching(diagonal, 1, theta).start;
  };
  SideMinima out{OverlapMin{k, 1, k, 0}, OverlapMin{k, k, 1, 0}};
  if (const int cost = l_key >> kThetaBits; cost < k) {
    // Block x[p..p+θ-1] == y[p+c..p+c+θ-1], cost 2k - c - 2θ.
    const int theta = kThetaMask - (l_key & kThetaMask);
    const int c = 2 * k - 2 * theta - cost;
    const int p = block_start(c, theta);
    out.l_side = OverlapMin{cost, p + 1, p + c + theta, theta};
  }
  if (const int cost = r_key >> kThetaBits; cost < k) {
    // The same block shape at cost 2k + c - 2θ, named by its last x digit
    // and its first y digit.
    const int theta = kThetaMask - (r_key & kThetaMask);
    const int c = cost + 2 * theta - 2 * k;
    const int p = block_start(c, theta);
    out.r_side = OverlapMin{cost, p + theta, p + c + 1, theta};
  }
  const auto size = static_cast<std::uint32_t>(k);
  ensure_witness(out.l_side, DigitView{x, size, false},
                 DigitView{y, size, false});
  ensure_witness(OverlapMin{out.r_side.cost, k + 1 - out.r_side.s,
                            k + 1 - out.r_side.t, out.r_side.theta},
                 DigitView{x, size, true}, DigitView{y, size, true});
  return out;
}

int longest_common_substring_packed(const PackedBuf& a, const PackedBuf& b) {
  check_pair(a, b);
  const std::uint32_t width = a.width;
  int best = 0;
  // Every common substring occurrence lives at one alignment offset; the
  // window length bounds the best run, so each sweep stops as soon as the
  // remaining windows are no longer than the incumbent.
  for (std::uint32_t c = 0; c < b.size; ++c) {
    const std::uint32_t window = std::min(a.size, b.size - c);
    if (static_cast<int>(window) <= best) {
      break;
    }
    const __uint128_t mask =
        eq_mask(a.bits, b.bits >> (c * width), width, window);
    best = std::max(best, run_reaching(mask, width, best + 1).length);
  }
  for (std::uint32_t c = 1; c < a.size; ++c) {
    const std::uint32_t window = std::min(a.size - c, b.size);
    if (static_cast<int>(window) <= best) {
      break;
    }
    const __uint128_t mask =
        eq_mask(a.bits >> (c * width), b.bits, width, window);
    best = std::max(best, run_reaching(mask, width, best + 1).length);
  }
  return best;
}

void border_array_packed(const PackedBuf& p, std::vector<int>& out) {
  const std::size_t n = p.size;
  out.assign(n, 0);
  if (n <= 1) {
    return;
  }
  DBN_REQUIRE(valid_width(p.width),
              "border_array_packed needs a packed buffer");
  // lead[c] = number of leading cells where p matches p shifted by c. The
  // prefix p[0..i] has a border of length s = i+1-c exactly when
  // lead[c] >= s, so border[i] is i+1-c for the smallest feasible c.
  // n <= 128 cells bounds the quadratic fill at ~8k word ops.
  std::vector<int> lead(n, 0);
  for (std::uint32_t c = 1; c < n; ++c) {
    const __uint128_t mask =
        eq_mask(p.bits, p.bits >> (c * p.width), p.width,
                static_cast<std::uint32_t>(n) - c);
    lead[c] = leading_matches(mask, p.width,
                              static_cast<std::uint32_t>(n) - c);
  }
  for (std::size_t i = 1; i < n; ++i) {
    for (std::size_t c = 1; c <= i; ++c) {
      if (lead[c] >= static_cast<int>(i + 1 - c)) {
        out[i] = static_cast<int>(i + 1 - c);
        break;
      }
    }
  }
}

void find_all_packed(const PackedBuf& text, const PackedBuf& pattern,
                     std::vector<std::size_t>& out) {
  out.clear();
  if (pattern.size == 0) {
    for (std::size_t i = 0; i <= text.size; ++i) {
      out.push_back(i);
    }
    return;
  }
  if (pattern.size > text.size) {
    return;
  }
  check_pair(text, pattern);
  const __uint128_t want = pattern.bits;
  const __uint128_t window = low_mask(pattern.size * pattern.width);
  for (std::uint32_t start = 0; start <= text.size - pattern.size; ++start) {
    if (((text.bits >> (start * text.width)) & window) == want) {
      out.push_back(start);
    }
  }
}

}  // namespace dbn::strings
