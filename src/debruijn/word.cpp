#include "debruijn/word.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/contract.hpp"

namespace dbn {

Word::Word(std::uint32_t radix, std::vector<Digit> digits)
    : radix_(radix), digits_(std::move(digits)) {
  DBN_REQUIRE(radix_ >= 1, "Word requires radix d >= 1");
  DBN_REQUIRE(!digits_.empty(), "Word requires length k >= 1");
  for (const Digit x : digits_) {
    DBN_REQUIRE(x < radix_, "Word digit out of range [0, d)");
  }
}

Word Word::zero(std::uint32_t radix, std::size_t k) {
  DBN_REQUIRE(k >= 1, "Word requires length k >= 1");
  return Word(radix, std::vector<Digit>(k, 0));
}

std::uint64_t Word::vertex_count(std::uint32_t radix, std::size_t k) {
  DBN_REQUIRE(radix >= 1 && k >= 1, "vertex_count requires d >= 1, k >= 1");
  std::uint64_t n = 1;
  for (std::size_t i = 0; i < k; ++i) {
    DBN_REQUIRE(n <= std::numeric_limits<std::uint64_t>::max() / radix,
                "d^k does not fit in 64 bits");
    n *= radix;
  }
  return n;
}

Word Word::from_rank(std::uint32_t radix, std::size_t k, std::uint64_t rank) {
  const std::uint64_t n = vertex_count(radix, k);
  DBN_REQUIRE(rank < n, "from_rank: rank out of range [0, d^k)");
  std::vector<Digit> digits(k, 0);
  for (std::size_t i = k; i-- > 0;) {
    digits[i] = static_cast<Digit>(rank % radix);
    rank /= radix;
  }
  return Word(radix, std::move(digits));
}

Digit Word::digit(std::size_t i) const {
  DBN_REQUIRE(i < digits_.size(), "Word::digit index out of range");
  return digits_[i];
}

std::uint64_t Word::rank() const {
  std::uint64_t r = 0;
  for (const Digit x : digits_) {
    r = r * radix_ + x;
  }
  return r;
}

Word Word::left_shift(Digit a) const {
  Word out = *this;
  out.left_shift_inplace(a);
  return out;
}

Word Word::right_shift(Digit a) const {
  Word out = *this;
  out.right_shift_inplace(a);
  return out;
}

void Word::left_shift_inplace(Digit a) {
  DBN_REQUIRE(a < radix_, "left_shift digit out of range [0, d)");
  std::rotate(digits_.begin(), digits_.begin() + 1, digits_.end());
  digits_.back() = a;
}

void Word::right_shift_inplace(Digit a) {
  DBN_REQUIRE(a < radix_, "right_shift digit out of range [0, d)");
  std::rotate(digits_.begin(), digits_.end() - 1, digits_.end());
  digits_.front() = a;
}

bool Word::try_assign(std::span<const std::uint8_t> digits) {
  DBN_REQUIRE(!digits.empty(), "Word requires length k >= 1");
  digits_.resize(digits.size());
  bool in_range = true;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    in_range &= digits[i] < radix_;
    digits_[i] = digits[i];
  }
  if (!in_range) {
    std::fill(digits_.begin(), digits_.end(), Digit{0});
  }
  return in_range;
}

Word Word::reversed() const {
  return Word(radix_, std::vector<Digit>(digits_.rbegin(), digits_.rend()));
}

std::string Word::to_string() const {
  std::ostringstream os;
  os << "(";
  for (std::size_t i = 0; i < digits_.size(); ++i) {
    os << (i == 0 ? "" : ",") << digits_[i];
  }
  os << ")";
  return os.str();
}

}  // namespace dbn
