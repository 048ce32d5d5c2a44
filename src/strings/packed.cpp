#include "strings/packed.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/contract.hpp"

namespace dbn::strings {

namespace {

// Whether `width` is a packed cell width: 1 bit for alphabets up to 2, 2
// bits up to 4, 4 bits up to 16.
constexpr bool valid_width(std::uint32_t width) {
  return width == 1 || width == 2 || width == 4;
}

// Per-cell low-bit pattern of a 64-bit word: one set bit at the bottom of
// every cell of the given width (every bit at width 1).
constexpr std::uint64_t cell_lsb(std::uint32_t width) {
  if (width == 1) {
    return ~std::uint64_t{0};
  }
  return width == 2 ? 0x5555555555555555ull : 0x1111111111111111ull;
}

// A word as ensure_witness reads it: the digits of a SymbolView, front to
// back or, for an r-side witness (an l-side witness of the reversed words,
// core/path_builder.hpp), back to front.
struct DigitView {
  SymbolView digits;
  bool reversed;

  Symbol operator[](int i) const {
    const int k = static_cast<int>(digits.size());
    return digits[static_cast<std::size_t>(reversed ? k - 1 - i : i)];
  }
};

// The witness contract both kernels share with the scalar min_l_cost:
// (s, t, theta) in range, reproducing the cost, and (audit level) naming a
// block that really matches.
void ensure_witness(const OverlapMin& best, const DigitView& x,
                    const DigitView& y) {
  const int k = static_cast<int>(x.digits.size());
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
          if (x[best.s - 1 + m] != y[best.t - best.theta + m]) {
            return false;
          }
        }
        return true;
      }(),
      "packed l-side witness block does not match");
}

// A side's minimum as one integer: the cost in the high half and
// 2^32 - 1 - θ in the low, so the smaller key is the lower cost and, on a
// cost tie, the longer block — the witness rule's order as a single min.
constexpr std::uint64_t side_key(int cost, int theta) {
  return (static_cast<std::uint64_t>(cost) << 32) |
         (0xFFFFFFFFu - static_cast<std::uint32_t>(theta));
}
constexpr int key_cost(std::uint64_t key) {
  return static_cast<int>(key >> 32);
}
constexpr int key_theta(std::uint64_t key) {
  return static_cast<int>(0xFFFFFFFFu - static_cast<std::uint32_t>(key));
}

// The diagonal c of a side's block from its key: 2k - 2θ - cost on the
// l-side (cost 2k - c - 2θ); the r-side's (cost 2k + c - 2θ) is its
// negation.
int l_diagonal(int k, std::uint64_t key) {
  return 2 * k - 2 * key_theta(key) - key_cost(key);
}

// A side's minimum as a kernel ends with it: its key, and the x index its
// block starts at (unused at cost k, where the side keeps the baseline).
struct SideBest {
  std::uint64_t key;
  int start;
};

// Both sides' witnesses, checked as every kernel's.
SideMinima witnesses(SymbolView x, SymbolView y, const SideBest& l,
                     const SideBest& r) {
  const int k = static_cast<int>(x.size());
  SideMinima out{OverlapMin{k, 1, k, 0}, OverlapMin{k, k, 1, 0}};
  if (const int cost = key_cost(l.key); cost < k) {
    // Named by its first x digit and its last y digit.
    const int theta = key_theta(l.key);
    const int c = l_diagonal(k, l.key);
    out.l_side = OverlapMin{cost, l.start + 1, l.start + c + theta, theta};
  }
  if (const int cost = key_cost(r.key); cost < k) {
    // Named by its last x digit and its first y digit.
    const int theta = key_theta(r.key);
    const int c = -l_diagonal(k, r.key);
    out.r_side = OverlapMin{cost, r.start + theta, r.start + c + 1, theta};
  }
  ensure_witness(out.l_side, DigitView{x, false}, DigitView{y, false});
  ensure_witness(OverlapMin{out.r_side.cost, k + 1 - out.r_side.s,
                            k + 1 - out.r_side.t, out.r_side.theta},
                 DigitView{x, true}, DigitView{y, true});
  return out;
}

// A run of equal cells on a diagonal: its length and its first x index.
struct Run {
  int theta = 0;
  int start = 0;
};

// Diagonal c of a k-digit pair: x indices [first, first + n), n = k - |c|,
// and its middle cell first + n/2. A run longer than n/2 covers the middle
// cell, and only such a run can cost less than k on either side.
struct Diagonal {
  int first;
  int n;
  int mid;

  Diagonal(int k, int c)
      : first(std::max(0, -c)), n(k - std::abs(c)), mid(first + n / 2) {}
};

// The run x_i == y_{i+c} through the middle cell of diagonal c, digit by
// digit; θ = 0 when the middle cells differ.
Run middle_run(SymbolView x, SymbolView y, int c) {
  const Diagonal diag(static_cast<int>(x.size()), c);
  const auto eq = [&](int i) {
    return x[static_cast<std::size_t>(i)] == y[static_cast<std::size_t>(i + c)];
  };
  if (!eq(diag.mid)) {
    return Run{0, diag.mid};
  }
  int lo = diag.mid;
  int hi = diag.mid + 1;
  while (lo > diag.first && eq(lo - 1)) {
    --lo;
  }
  while (hi < diag.first + diag.n && eq(hi)) {
    ++hi;
  }
  return Run{hi - lo, lo};
}

// The seed of length h of diagonal c (h of the parity of its n cells): its
// h central cells, x indices i0 .. i0 + h - 1 with i0 = (k - h - c) / 2.
// Cell e of the diagonal, counted from i0, pairs x_{i0+e} with
// y_{k-h-i0+e}. A block that costs at most T on its cheaper side has
// θ >= (n + h) / 2 with h = k - T (one at least), so it covers the seed,
// and the `reach` cells on one side of it or the other for any reach up to
// (n - h + 2) / 4: a run that misses a cell left of the seed ends at least
// (n + h) / 2 - reach cells past it.

// Longest seed and reach tested: shorter ones only let more diagonals
// through. A reach step passes a random diagonal with odds about 2/d, so
// packed pairs test up to kMaxReach / W of them, unpacked digits one.
constexpr int kMaxSeed = 16;
constexpr int kMaxReach = 8;

// The reach of the diagonals of one parity, as nested ranges of seed
// starts: a diagonal with i0 in [lo[r], hi[r]] has n >= h + 4r - 2 cells,
// so it is tested at reach r or more (at most `max`).
struct Reach {
  int max = 0;
  std::array<int, kMaxReach + 2> lo{};
  std::array<int, kMaxReach + 2> hi{};

  Reach(int k, int h, int cap) {
    // |c| = |k - h - 2 i0| <= k - h - 4r + 2
    for (int r = 1; r <= cap && 4 * r <= k - h + 2; ++r) {
      max = r;
      lo[static_cast<std::size_t>(r)] = 2 * r - 1;
      hi[static_cast<std::size_t>(r)] = k - h - 2 * r + 1;
    }
    lo[static_cast<std::size_t>(max) + 1] = 1;  // an empty range
    hi[static_cast<std::size_t>(max) + 1] = 0;
  }
};

// A pair of words over an alphabet past 16, read digit by digit.
struct DigitPair {
  static constexpr int kWidth = 1;   // bits per diagonal in a seeds() mask
  static constexpr int kCells = 64;  // diagonals per seeds() mask
  static constexpr int kReach = 1;

  SymbolView x;
  SymbolView y;

  void pack_reversed_y() {}  // seeds() reads y directly

  Run middle_run(int c) const { return strings::middle_run(x, y, c); }

  // Whether cells [from, from + len) of the diagonal with seed start i0
  // all match.
  bool cells_match(int i0, int h, int from, int len) const {
    const int k = static_cast<int>(x.size());
    for (int e = from; e < from + len; ++e) {
      if (x[static_cast<std::size_t>(i0 + e)] !=
          y[static_cast<std::size_t>(k - h - i0 + e)]) {
        return false;
      }
    }
    return true;
  }

  // Bit b set iff the diagonal with seed start i0 = i + b (b < count)
  // passes: its seed matches, and so do the reach cells left of it or the
  // reach cells right of it.
  std::uint64_t seeds(int i, int count, int h, const Reach& reach) const {
    std::uint64_t out = 0;
    for (int b = 0; b < count; ++b) {
      const int i0 = i + b;
      if (!cells_match(i0, h, 0, h)) {
        continue;
      }
      // kReach is 1: a diagonal is tested at reach 1 or 0.
      const int r = reach.lo[1] <= i0 && i0 <= reach.hi[1] ? 1 : 0;
      const bool pass = r == 0 || cells_match(i0, h, -r, r) ||
                        cells_match(i0, h, h, r);
      out |= std::uint64_t{pass} << b;
    }
    return out;
  }
};

// Packed words for the seeded kernel: cell i at bit kPadBits + i*W of a
// zero-padded array, so a window may start up to 64 bits below cell 0 and
// reach 256 bits past the last cell (a seed test reads up to kMaxSeed +
// kMaxReach cells past a diagonal's seed start).
constexpr std::size_t kPadBits = 64;

std::size_t padded_words(std::size_t k, std::uint32_t width) {
  return (k * width + 63) / 64 + 5;
}

// Bits of a window: an unaligned 64-bit load from the byte holding the
// first bit, shifted down by its place in that byte, holds 57 or more.
constexpr int kWindowBits = 56;
constexpr std::uint64_t kWindowMask = (std::uint64_t{1} << kWindowBits) - 1;
static_assert(std::endian::native == std::endian::little,
              "byte windows read packed words low byte first");

// Packs `word`, or its reversal, into a padded array, whole words with
// constant shifts.
template <std::uint32_t W, bool Reversed>
void pack_padded(SymbolView word, std::uint64_t alphabet, std::uint64_t* out) {
  constexpr std::size_t kCells = 64 / W;
  const std::size_t k = word.size();
  const auto digit = [&](std::size_t i) {
    return word[Reversed ? k - 1 - i : i];
  };
  // The OR of the digits is below a power-of-two alphabet exactly when
  // every digit is, and costs one cycle a digit where a running max costs
  // two; other alphabets check each digit when it is not.
  Symbol any = 0;
  std::size_t base = 0;
  for (; base + kCells <= k; base += kCells) {
    std::uint64_t acc = 0;
#pragma GCC unroll 64
    for (std::size_t i = 0; i < kCells; ++i) {
      any |= digit(base + i);
      acc |= static_cast<std::uint64_t>(digit(base + i)) << (i * W);
    }
    out[kPadBits / 64 + base / kCells] = acc;
  }
  std::uint64_t acc = 0;
  for (std::size_t i = 0; base + i < k; ++i) {
    any |= digit(base + i);
    acc |= static_cast<std::uint64_t>(digit(base + i)) << (i * W);
  }
  out[kPadBits / 64 + base / kCells] = acc;
  if (any >= alphabet) {
    DBN_REQUIRE(std::all_of(word.begin(), word.end(),
                            [&](Symbol d) { return d < alphabet; }),
                "side_minima_seeded digit exceeds the alphabet");
  }
}

// The window of a padded word from bit `bit` up (kWindowBits valid bits).
std::uint64_t bits_at(const std::uint64_t* w, std::size_t bit) {
  std::uint64_t v;
  std::memcpy(&v, reinterpret_cast<const unsigned char*>(w) + bit / 8,
              sizeof v);
  return v >> (bit % 8);
}

// One set bit, the cell's lowest, per cell where two windows differ.
template <std::uint32_t W>
std::uint64_t differing_cells(std::uint64_t a, std::uint64_t b) {
  std::uint64_t t = a ^ b;
  if constexpr (W == 4) {
    t |= t >> 2;
  }
  if constexpr (W >= 2) {
    t |= t >> 1;
    t &= cell_lsb(W);
  }
  return t;
}

// A pair of words packed at W bits per digit, with y also packed reversed
// (yr_j = y_{k-1-j}), so a seed's cells sit in one x window and one yr
// window: x_{i0+t} against yr_{i0+h-1-t}.
template <std::uint32_t W>
struct PackedPair {
  static constexpr int kWidth = static_cast<int>(W);
  static constexpr int kCells = kWindowBits / kWidth;  // cells in a window
  static constexpr int kReach = kMaxReach / kWidth;

  int k;
  const std::uint64_t* x;
  const std::uint64_t* y;
  std::uint64_t* yr;
  SymbolView y_digits;

  // Packs yr, which only seeds() reads: a pair the near band settles never
  // needs it.
  void pack_reversed_y() { pack_padded<W, true>(y_digits, 1u << W, yr); }

  // The window of a padded word from cell i (i may reach 56 bits below
  // cell 0).
  static std::uint64_t window(const std::uint64_t* w, int i) {
    return bits_at(w, static_cast<std::size_t>(static_cast<int>(kPadBits) +
                                               i * kWidth));
  }

  // Differing cells of the windows of x from cell i and y from cell j;
  // bits past kWindowBits are unspecified.
  std::uint64_t diff(int i, int j) const {
    return differing_cells<W>(window(x, i), window(y, j));
  }

  // Equal cells x_{i+t} == y_{j+t} (or, Down, x_{i-1-t} == y_{j-1-t}) for
  // t = 0, 1, ..., at most `limit`, a window at a time.
  template <bool Down>
  int equal_cells(int i, int j, int limit) const {
    for (int t = 0; t < limit; t += kCells) {
      const std::uint64_t d =
          Down ? diff(i - t - kCells, j - t - kCells) << (64 - kWindowBits)
               : diff(i + t, j + t) & kWindowMask;
      if (d != 0) {
        return std::min(limit, t + (Down ? std::countl_zero(d)
                                         : std::countr_zero(d)) /
                                       kWidth);
      }
    }
    return limit;
  }

  // middle_run on the packed words: one window with the middle cell at its
  // centre, a trailing-zero count above it and a leading-zero count below;
  // a half window of equal cells continues window by window.
  Run middle_run(int c) const {
    constexpr int kHalf = kCells / 2;
    constexpr int kMid = kWindowBits / 2;  // the middle cell's bit
    const Diagonal diag(k, c);
    const int above = diag.first + diag.n - diag.mid;  // middle included
    const int below = diag.mid - diag.first;
    const std::uint64_t d = diff(diag.mid - kHalf, diag.mid + c - kHalf);
    // The sentinel bits cap both counts at a half window and keep their
    // arguments non-zero.
    int up = std::countr_zero((d >> kMid) | (std::uint64_t{1} << kMid)) /
             kWidth;
    int down = std::countl_zero((d << (64 - kMid)) |
                                (std::uint64_t{1} << (63 - kMid))) /
               kWidth;
    if ((up >= kHalf) & (above > kHalf)) [[unlikely]] {
      up = kHalf + equal_cells<false>(diag.mid + kHalf,
                                      diag.mid + c + kHalf, above - kHalf);
    }
    if ((down >= kHalf) & (below > kHalf)) [[unlikely]] {
      down = kHalf + equal_cells<true>(diag.mid - kHalf,
                                       diag.mid + c - kHalf, below - kHalf);
    }
    up = std::min(up, above);
    down = up == 0 ? 0 : std::min(down, below);
    return Run{up + down, diag.mid - down};
  }

  // Cell b (bit b*W) set iff cells [from, from + len) of the diagonal with
  // seed start i0 = i + b all match.
  std::uint64_t cells_match(int i, int h, int from, int len) const {
    std::uint64_t differ = 0;
    for (int e = from; e < from + len; ++e) {
      differ |= differing_cells<W>(window(x, i + e), window(yr, i + h - 1 - e));
    }
    return ~differ & cell_lsb(W) & kWindowMask;
  }

  // The cells of the window from seed start i whose seed start lies in
  // [lo, hi].
  static std::uint64_t lanes(int i, int lo, int hi) {
    const auto below = [&](int b) {
      return b <= 0 ? std::uint64_t{0}
                    : (std::uint64_t{1} << (std::min(b, kCells) * kWidth)) - 1;
    };
    return below(hi - i + 1) & ~below(lo - i) & cell_lsb(W);
  }

  // DigitPair::seeds for a window of diagonals at once: the seed, then the
  // probes one cell further out on each side per reach step, each diagonal
  // judged at its own reach.
  std::uint64_t seeds(int i, int count, int h, const Reach& reach) const {
    const std::uint64_t seed =
        cells_match(i, h, 0, h) & lanes(i, i, i + count - 1);
    std::uint64_t pass = seed & ~lanes(i, reach.lo[1], reach.hi[1]);
    std::uint64_t left = seed;
    std::uint64_t right = seed;
    for (int r = 1; r <= reach.max; ++r) {
      const auto at = static_cast<std::size_t>(r);
      left &= cells_match(i, h, -r, 1);
      right &= cells_match(i, h, h + r - 1, 1);
      std::uint64_t judged = lanes(i, reach.lo[at], reach.hi[at]);
      if (r < reach.max) {
        judged &= ~lanes(i, reach.lo[at + 1], reach.hi[at + 1]);
      }
      pass |= judged & (left | right);
    }
    return pass;
  }
};

// Diagonals measured first, in increasing |c| up to this: a near pair (a
// short route) settles its side minima there and the call ends.
constexpr int kNearBand = 1;

// The seeded kernel over a pair read through `pair`: the near band, then
// the seeds of every other diagonal that can still improve a side, each
// diagonal that passes measured through its middle cell.
template <typename Pair>
SideMinima seeded(SymbolView x, SymbolView y, Pair pair) {
  const int k = static_cast<int>(x.size());
  std::uint64_t l_key = side_key(k, 0);
  std::uint64_t r_key = l_key;
  int l_start = 0;  // the x index each side's block starts at
  int r_start = 0;
  // A block on diagonal c costs at least |c| on the side its sign favours
  // (l for c >= 0) and 3|c| on the other. It can improve the first only
  // below that side's cost: at |c| equal to it, the incumbent is a block on
  // a smaller |c|, which is longer. It can improve the second up to and
  // including that side's cost. Both bounds grow with |c|.
  const auto can_improve = [&](int c) {
    const int a = std::abs(c);
    const int l = key_cost(l_key);
    const int r = key_cost(r_key);
    return c >= 0 ? a < l || 3 * a <= r : a < r || 3 * a <= l;
  };
  const auto visit = [&](int c) {
    if (!can_improve(c)) {
      return;
    }
    // A run of at most n/2 cells costs at least k on both sides, which
    // never displaces a block below k; witnesses() keeps the baseline at k.
    const Run run = pair.middle_run(c);
    const std::uint64_t l = side_key(2 * k - c - 2 * run.theta, run.theta);
    const std::uint64_t r = side_key(2 * k + c - 2 * run.theta, run.theta);
    l_start = l < l_key ? run.start : l_start;
    r_start = r < r_key ? run.start : r_start;
    l_key = std::min(l_key, l);
    r_key = std::min(r_key, r);
  };
  const auto finish = [&] {
    return witnesses(x, y, SideBest{l_key, l_start}, SideBest{r_key, r_start});
  };
  for (int a = 0; a <= kNearBand; ++a) {
    visit(a);
    if (a > 0) {
      visit(-a);
    }
  }
  if (const int a = kNearBand + 1;
      a >= k || (!can_improve(a) && !can_improve(-a))) {
    return finish();  // nor can any farther diagonal
  }
  // Every other diagonal that can still improve a side, one parity of c
  // at a time (a seed shares the parity of its diagonal's n cells), as
  // windows of seed starts, from the corner c > 0 to the corner c < 0.
  pair.pack_reversed_y();
  for (int parity = 0; parity < 2; ++parity) {
    const int top = std::max(key_cost(l_key), key_cost(r_key));
    int h = std::max(1, k - top);
    h += (h + k + parity) % 2;
    while (h > kMaxSeed) {
      h -= 2;
    }
    // No diagonal with |c| >= top can improve a side, and none with
    // n < h holds the seed.
    int span = std::min({k - 1, top - 1, k - h});
    span -= (span + parity) % 2;
    if (span <= kNearBand) {
      continue;
    }
    const Reach reach(k, h, Pair::kReach);
    const int i_lo = (k - h - span) / 2;
    const int i_hi = (k - h + span) / 2;
    for (int i = i_lo; i <= i_hi; i += Pair::kCells) {
      const int count = std::min(Pair::kCells, i_hi - i + 1);
      for (std::uint64_t pass = pair.seeds(i, count, h, reach); pass != 0;
           pass &= pass - 1) {
        const int c =
            k - h - 2 * (i + std::countr_zero(pass) / Pair::kWidth);
        if (std::abs(c) > kNearBand) {
          visit(c);
        }
      }
    }
  }
  return finish();
}

template <std::uint32_t W>
SideMinima seeded_packed(SymbolView x, SymbolView y,
                         std::uint64_t alphabet) {
  // x, y and reversed y on the stack up to 2,048 bits a word (k = 512 at
  // four bits per digit); past that in per-thread scratch that grows to
  // the longest pair seen and never shrinks.
  std::array<std::uint64_t, 3 * (2048 / 64 + 5)> stack;
  thread_local std::vector<std::uint64_t> heap;
  const std::size_t words = padded_words(x.size(), W);
  if (3 * words > stack.size() && heap.size() < 3 * words) {
    heap.resize(3 * words);
  }
  std::uint64_t* const base =
      3 * words <= stack.size() ? stack.data() : heap.data();
  std::fill_n(base, 3 * words, 0);
  pack_padded<W, false>(x, alphabet, base);
  pack_padded<W, false>(y, alphabet, base + words);
  return seeded(x, y,
                PackedPair<W>{static_cast<int>(x.size()), base, base + words,
                              base + 2 * words, y});
}

}  // namespace

std::uint32_t PackedBuf::get(std::size_t i) const {
  DBN_REQUIRE(i < size, "PackedBuf::get out of range");
  return static_cast<std::uint32_t>(bits >> (i * width)) &
         ((1u << width) - 1);
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

bool packable(std::uint64_t alphabet, std::size_t size) {
  const std::uint32_t width = packed_width(alphabet);
  return width != 0 && width * size <= kLaneBits;
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

int suffix_prefix_overlap_packed(const PackedBuf& x, const PackedBuf& y) {
  DBN_REQUIRE(x.width == y.width && valid_width(x.width),
              "packed kernels need two buffers of one common width");
  const std::uint32_t width = x.width;
  // Longest s first: the suffix of x of length s is the whole lane shifted
  // down (the invariant keeps the bits above cell size-1 zero), and the
  // prefix of y of length s is a low mask.
  for (std::uint32_t s = std::min(x.size, y.size); s >= 1; --s) {
    const __uint128_t prefix = s * width >= kLaneBits
                                   ? ~static_cast<__uint128_t>(0)
                                   : (static_cast<__uint128_t>(1) << (s * width)) - 1;
    if ((x.bits >> ((x.size - s) * width)) == (y.bits & prefix)) {
      return static_cast<int>(s);
    }
  }
  return 0;
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
  // keeps a side_key, so a later θ takes ties (it is the smaller |c|) and
  // the update is a single min. θ = 0 is the baseline k.
  std::uint64_t l_key = side_key(k, 0);
  std::uint64_t r_key = l_key;
  for (int theta = 1; alive != 0; ++theta) {
    const int l = 3 * k - 1 - (63 - std::countl_zero(alive)) - 2 * theta;
    const int r = k + 1 + std::countr_zero(alive) - 2 * theta;
    l_key = std::min(l_key, side_key(l, theta));
    r_key = std::min(r_key, side_key(r, theta));
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
  // Below cost k a side's block is the run through its diagonal's middle
  // cell (side_minima_seeded's lemma).
  const auto best = [&](std::uint64_t key, int sign) {
    return SideBest{key, key_cost(key) < k
                             ? middle_run(x, y, sign * l_diagonal(k, key)).start
                             : 0};
  };
  return witnesses(x, y, best(l_key, 1), best(r_key, -1));
}

SideMinima side_minima_seeded(SymbolView x, SymbolView y,
                              std::uint64_t alphabet) {
  DBN_REQUIRE(!x.empty() && x.size() == y.size() && alphabet >= 1,
              "side_minima_seeded requires two non-empty words of equal "
              "length");
  switch (packed_width(alphabet)) {
    case 1:
      return seeded_packed<1>(x, y, alphabet);
    case 2:
      return seeded_packed<2>(x, y, alphabet);
    case 4:
      return seeded_packed<4>(x, y, alphabet);
    default:
      DBN_REQUIRE(*std::max_element(x.begin(), x.end()) < alphabet &&
                      *std::max_element(y.begin(), y.end()) < alphabet,
                  "side_minima_seeded digit exceeds the alphabet");
      return seeded(x, y, DigitPair{x, y});
  }
}

}  // namespace dbn::strings
