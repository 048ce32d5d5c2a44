#include "oracle/lyndon.hpp"

#include "common/contract.hpp"
#include "strings/failure.hpp"

namespace dbn::strings {

std::vector<std::pair<std::size_t, std::size_t>> lyndon_factorization(
    SymbolView s) {
  std::vector<std::pair<std::size_t, std::size_t>> factors;
  std::size_t i = 0;
  while (i < s.size()) {
    // Duval: grow the candidate (i..j) comparing against position k.
    std::size_t j = i + 1;
    std::size_t k = i;
    while (j < s.size() && s[k] <= s[j]) {
      k = (s[k] < s[j]) ? i : k + 1;
      ++j;
    }
    // Emit the Lyndon word of length j-k as many times as it repeats.
    const std::size_t len = j - k;
    while (i <= k) {
      factors.emplace_back(i, len);
      i += len;
    }
  }
  return factors;
}

bool is_lyndon(SymbolView s) {
  if (s.empty()) {
    return false;
  }
  const auto factors = lyndon_factorization(s);
  return factors.size() == 1 && factors[0].second == s.size();
}

std::size_t least_rotation(SymbolView s) {
  DBN_REQUIRE(!s.empty(), "least_rotation requires a non-empty word");
  // Booth's algorithm over the doubled word, O(n) with the failure-style
  // candidate elimination.
  const std::size_t n = s.size();
  const auto at = [&](std::size_t i) { return s[i % n]; };
  std::size_t i = 0, j = 1;
  std::size_t offset = 0;
  while (i < n && j < n && offset < n) {
    const Symbol a = at(i + offset);
    const Symbol b = at(j + offset);
    if (a == b) {
      ++offset;
      continue;
    }
    if (a > b) {
      i = std::max(i + offset + 1, j);
      j = i + 1;
    } else {
      j = j + offset + 1;
      if (j <= i) {
        j = i + 1;
      }
    }
    offset = 0;
  }
  return std::min(i, j);
}

std::uint64_t necklace_count(std::uint32_t radix, std::size_t n) {
  DBN_REQUIRE(radix >= 2 && n >= 1, "necklace_count requires d >= 2, n >= 1");
  const auto phi = [](std::uint64_t m) {
    std::uint64_t result = m;
    for (std::uint64_t p = 2; p * p <= m; ++p) {
      if (m % p == 0) {
        while (m % p == 0) {
          m /= p;
        }
        result -= result / p;
      }
    }
    if (m > 1) {
      result -= result / m;
    }
    return result;
  };
  std::uint64_t total = 0;
  for (std::uint64_t e = 1; e <= n; ++e) {
    if (n % e != 0) {
      continue;
    }
    std::uint64_t power = 1;
    for (std::uint64_t i = 0; i < e; ++i) {
      DBN_REQUIRE(power <= UINT64_MAX / radix, "necklace count overflows");
      power *= radix;
    }
    total += phi(static_cast<std::uint64_t>(n) / e) * power;
  }
  return total / n;
}

bool is_primitive(SymbolView s) {
  if (s.empty()) {
    return false;
  }
  // s is a proper power iff its smallest period (n - border) divides n
  // with quotient > 1.
  const std::vector<int> border = border_array(s);
  const std::size_t period =
      s.size() - static_cast<std::size_t>(border.back());
  return period == s.size() || s.size() % period != 0;
}

}  // namespace dbn::strings
