#include "core/path.hpp"

#include <sstream>

#include "common/contract.hpp"

namespace dbn {

WildcardResolver zero_resolver() {
  return [](std::size_t, ShiftType, const Word&) -> Digit { return 0; };
}

const Hop& RoutingPath::hop(std::size_t i) const {
  DBN_REQUIRE(i < hops_.size(), "RoutingPath::hop index out of range");
  return hops_[i];
}

bool RoutingPath::has_wildcards() const {
  for (const Hop& h : hops_) {
    if (h.is_wildcard()) {
      return true;
    }
  }
  return false;
}

Word RoutingPath::apply(const Word& source,
                        const WildcardResolver& resolver) const {
  Word at = source;
  for (std::size_t i = 0; i < hops_.size(); ++i) {
    const Hop& h = hops_[i];
    Digit digit = h.digit;
    if (h.is_wildcard()) {
      DBN_REQUIRE(resolver != nullptr,
                  "RoutingPath::apply: wildcard hop without a resolver");
      digit = resolver(i, h.type, at);
    }
    if (h.type == ShiftType::Left) {
      at.left_shift_inplace(digit);
    } else {
      at.right_shift_inplace(digit);
    }
  }
  return at;
}

bool RoutingPath::reaches(const Word& source, const Word& target) const {
  const std::size_t k = source.length();
  if (target.radix() != source.radix() || target.length() != k) {
    return false;
  }
  for (const Hop& h : hops_) {
    if (!h.is_wildcard() && h.digit >= source.radix()) {
      return false;
    }
  }
  for (std::size_t p = 0; p < k; ++p) {
    // Walk back from the last hop: a left shift moved cell i+1 to i and
    // wrote cell k-1, a right shift moved cell i-1 to i and wrote cell 0.
    std::size_t at = p;
    auto h = hops_.rbegin();
    for (; h != hops_.rend(); ++h) {
      const bool left = h->type == ShiftType::Left;
      if (at == (left ? k - 1 : 0)) {
        break;
      }
      at = left ? at + 1 : at - 1;
    }
    const Digit digit = h == hops_.rend() ? source.digit(at)
                        : h->is_wildcard() ? 0
                                           : h->digit;
    if (digit != target.digit(p)) {
      return false;
    }
  }
  return true;
}

std::string RoutingPath::to_string() const {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < hops_.size(); ++i) {
    os << (i == 0 ? "" : ",") << "("
       << (hops_[i].type == ShiftType::Left ? 0 : 1) << ",";
    if (hops_[i].is_wildcard()) {
      os << "*";
    } else {
      os << hops_[i].digit;
    }
    os << ")";
  }
  os << "}";
  return os.str();
}

}  // namespace dbn
