// The vertex type of DG(d,k): a d-ary word X = (x_1, ..., x_k).
//
// Index conventions: the paper writes X = (x_1, ..., x_k) with x_1 the
// leftmost digit; Word stores digits 0-based with digit(0) == x_1. The two
// shift operations are the paper's
//   X^-(a) = (x_2, ..., x_k, a)   — left shift, append a        (type L)
//   X^+(a) = (a, x_1, ..., x_{k-1}) — right shift, prepend a    (type R)
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "strings/symbol.hpp"

namespace dbn {

using Digit = strings::Symbol;  // d-ary digit in [0, radix)

/// Immutable-style d-ary word of fixed length k over digits [0, radix).
/// Value type: cheap to copy for the k's this library targets, hashable,
/// totally ordered (lexicographic).
class Word {
 public:
  /// Constructs from explicit digits; every digit must be < radix.
  Word(std::uint32_t radix, std::vector<Digit> digits);

  /// The all-zero word of length k.
  static Word zero(std::uint32_t radix, std::size_t k);

  /// The word whose digits are the base-`radix` representation of `rank`
  /// (most significant digit first, zero padded to length k).
  /// Requires rank < radix^k (and radix^k to fit in 64 bits).
  static Word from_rank(std::uint32_t radix, std::size_t k, std::uint64_t rank);

  /// radix^k, checked to fit in 64 bits (throws ContractViolation if not).
  static std::uint64_t vertex_count(std::uint32_t radix, std::size_t k);

  std::uint32_t radix() const { return radix_; }
  std::size_t length() const { return digits_.size(); }

  /// x_{i+1} in the paper's 1-based notation; i in [0, k).
  Digit digit(std::size_t i) const;

  /// The integer whose base-radix digits are this word (x_1 most
  /// significant). Inverse of from_rank.
  std::uint64_t rank() const;

  /// X^-(a): drop the first digit, append a (type-L neighbor).
  Word left_shift(Digit a) const;

  /// X^+(a): prepend a, drop the last digit (type-R neighbor).
  Word right_shift(Digit a) const;

  /// In-place variants for hot paths (simulator, enumeration).
  void left_shift_inplace(Digit a);
  void right_shift_inplace(Digit a);

  /// Overwrites the digits with `digits`, one byte each, keeping the radix
  /// and the storage (no allocation once the word has held that many).
  /// Returns false, leaving the all-zero word of that length, when a byte
  /// is not a digit (>= radix): validation of untrusted bytes, such as the
  /// serve wire's, not a contract.
  bool try_assign(std::span<const std::uint8_t> digits);

  /// The reversal (x_k, ..., x_1) — used by the r-side reductions.
  Word reversed() const;

  /// Digits as a symbol view for the strings substrate.
  strings::SymbolView symbols() const { return digits_; }

  /// "(x1,x2,...,xk)" — matches the paper's tuples, e.g. "(0,1,1)".
  std::string to_string() const;

  friend bool operator==(const Word& a, const Word& b) = default;
  friend auto operator<=>(const Word& a, const Word& b) = default;

 private:
  std::uint32_t radix_;
  std::vector<Digit> digits_;
};

}  // namespace dbn

template <>
struct std::hash<dbn::Word> {
  std::size_t operator()(const dbn::Word& w) const noexcept {
    std::size_t h = 0xcbf29ce484222325ull ^ w.radix();
    for (std::size_t i = 0; i < w.length(); ++i) {
      h ^= w.digit(i);
      h *= 0x100000001b3ull;
    }
    return h;
  }
};
