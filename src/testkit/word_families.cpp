#include "testkit/word_families.hpp"

#include <algorithm>

#include "common/contract.hpp"
#include "oracle/lyndon.hpp"

namespace dbn::testkit {

namespace {

std::vector<Digit> uniform_digits(Rng& rng, std::uint32_t d, std::size_t k) {
  std::vector<Digit> digits(k);
  for (auto& x : digits) {
    x = static_cast<Digit>(rng.below(d));
  }
  return digits;
}

std::vector<Digit> periodic_digits(Rng& rng, std::uint32_t d, std::size_t k) {
  const std::size_t period = 1 + rng.below(std::max<std::size_t>(1, k / 2));
  const std::vector<Digit> block = uniform_digits(rng, d, period);
  std::vector<Digit> digits(k);
  for (std::size_t i = 0; i < k; ++i) {
    digits[i] = block[i % period];
  }
  return digits;
}

std::vector<Digit> rotated(std::vector<Digit> digits, std::size_t by) {
  std::rotate(digits.begin(),
              digits.begin() + static_cast<std::ptrdiff_t>(by % digits.size()),
              digits.end());
  return digits;
}

}  // namespace

std::string_view family_name(WordFamily family) {
  switch (family) {
    case WordFamily::Uniform:
      return "uniform";
    case WordFamily::AllEqual:
      return "all-equal";
    case WordFamily::Alternating:
      return "alternating";
    case WordFamily::Periodic:
      return "periodic";
    case WordFamily::Lyndon:
      return "lyndon";
    case WordFamily::SelfOverlap:
      return "self-overlap";
    case WordFamily::FewDistinct:
      return "few-distinct";
  }
  DBN_ASSERT(false, "unknown word family");
  return "";
}

std::string_view family_name(PairFamily family) {
  switch (family) {
    case PairFamily::Independent:
      return "independent";
    case PairFamily::Equal:
      return "equal";
    case PairFamily::Rotation:
      return "rotation";
    case PairFamily::PlantedSuffix:
      return "planted-suffix";
    case PairFamily::PlantedCore:
      return "planted-core";
    case PairFamily::Reversal:
      return "reversal";
  }
  DBN_ASSERT(false, "unknown pair family");
  return "";
}

Word sample_word(Rng& rng, std::uint32_t d, std::size_t k, WordFamily family) {
  DBN_REQUIRE(d >= 1 && k >= 1, "sample_word requires d >= 1, k >= 1");
  switch (family) {
    case WordFamily::Uniform:
      return Word(d, uniform_digits(rng, d, k));
    case WordFamily::AllEqual:
      return Word(d, std::vector<Digit>(k, static_cast<Digit>(rng.below(d))));
    case WordFamily::Alternating: {
      const Digit a = static_cast<Digit>(rng.below(d));
      const Digit b = d >= 2 ? static_cast<Digit>((a + 1 + rng.below(d - 1)) % d)
                             : a;
      std::vector<Digit> digits(k);
      for (std::size_t i = 0; i < k; ++i) {
        digits[i] = i % 2 == 0 ? a : b;
      }
      return Word(d, std::move(digits));
    }
    case WordFamily::Periodic:
      return Word(d, periodic_digits(rng, d, k));
    case WordFamily::Lyndon: {
      // The least rotation of a primitive word is Lyndon; retry a few times
      // for primitivity (overwhelmingly likely unless d^k is tiny), then
      // settle for the least rotation — still a canonical boundary word.
      for (int attempt = 0; attempt < 4; ++attempt) {
        std::vector<Digit> digits = uniform_digits(rng, d, k);
        digits = rotated(digits, strings::least_rotation(digits));
        if (strings::is_primitive(digits) || attempt == 3) {
          return Word(d, std::move(digits));
        }
      }
      DBN_ASSERT(false, "unreachable");
      return Word::zero(d, k);
    }
    case WordFamily::SelfOverlap: {
      // A short seed tiled across the word, then one interior digit
      // corrupted: rich border structure with a late failure-function
      // mismatch, the access pattern Algorithm 3 is most sensitive to.
      std::vector<Digit> digits = periodic_digits(rng, d, k);
      if (k >= 3 && d >= 2) {
        const std::size_t pos = 1 + rng.below(k - 2);
        digits[pos] =
            static_cast<Digit>((digits[pos] + 1 + rng.below(d - 1)) % d);
      }
      return Word(d, std::move(digits));
    }
    case WordFamily::FewDistinct: {
      const Digit a = static_cast<Digit>(rng.below(d));
      const Digit b = static_cast<Digit>(rng.below(d));
      std::vector<Digit> digits(k);
      for (auto& x : digits) {
        x = rng.chance(0.5) ? a : b;
      }
      return Word(d, std::move(digits));
    }
  }
  DBN_ASSERT(false, "unknown word family");
  return Word::zero(d, k);
}

std::pair<Word, Word> sample_pair(Rng& rng, std::uint32_t d, std::size_t k,
                                  WordFamily word_family,
                                  PairFamily pair_family) {
  const Word x = sample_word(rng, d, k, word_family);
  switch (pair_family) {
    case PairFamily::Independent:
      return {x, sample_word(rng, d, k, word_family)};
    case PairFamily::Equal:
      return {x, x};
    case PairFamily::Rotation: {
      std::vector<Digit> digits(k);
      for (std::size_t i = 0; i < k; ++i) {
        digits[i] = x.digit(i);
      }
      return {x, Word(d, rotated(std::move(digits), 1 + rng.below(k)))};
    }
    case PairFamily::PlantedSuffix: {
      // Y = (length-l suffix of X) + fresh digits: overlap exactly >= l,
      // the Property 1 and Algorithm 1 hot path.
      const std::size_t l = rng.below(k + 1);
      std::vector<Digit> digits(k);
      for (std::size_t i = 0; i < l; ++i) {
        digits[i] = x.digit(k - l + i);
      }
      for (std::size_t i = l; i < k; ++i) {
        digits[i] = static_cast<Digit>(rng.below(d));
      }
      return {x, Word(d, std::move(digits))};
    }
    case PairFamily::PlantedCore: {
      // A shared interior block at independent offsets: drives the
      // non-trivial minimizers of the Theorem 2 double minimum.
      const std::size_t len = 1 + rng.below(k);
      const std::size_t xo = rng.below(k - len + 1);
      const std::size_t yo = rng.below(k - len + 1);
      std::vector<Digit> xd(k), yd(k);
      for (std::size_t i = 0; i < k; ++i) {
        xd[i] = x.digit(i);
        yd[i] = static_cast<Digit>(rng.below(d));
      }
      for (std::size_t i = 0; i < len; ++i) {
        yd[yo + i] = xd[xo + i];
      }
      return {Word(d, std::move(xd)), Word(d, std::move(yd))};
    }
    case PairFamily::Reversal:
      return {x, x.reversed()};
  }
  DBN_ASSERT(false, "unknown pair family");
  return {x, x};
}

}  // namespace dbn::testkit
