// Routing paths in the form the paper's Section 3.1 defines: a sequence of
// pairs (a_i, b_i) where a_i selects the neighbor type (0 = type-L, left
// shift; 1 = type-R, right shift) and b_i the inserted digit. The special
// digit "*" (kWildcard) marks a hop whose digit any forwarding site may
// choose freely — the paper's traffic-balancing remark.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "debruijn/word.hpp"

namespace dbn {

/// The paper's a_i field: which shift the hop performs.
enum class ShiftType : std::uint8_t {
  Left = 0,   // X -> X^-(b): drop head, append b
  Right = 1,  // X -> X^+(b): prepend b, drop tail
};

/// The paper's "*" symbol: the forwarding site picks the digit.
inline constexpr Digit kWildcard = 0xFFFFFFFFu;

/// One element (a, b) of the routing-path field.
struct Hop {
  ShiftType type = ShiftType::Left;
  Digit digit = 0;

  bool is_wildcard() const { return digit == kWildcard; }
  friend bool operator==(const Hop& a, const Hop& b) = default;
};

/// Chooses a digit for a wildcard hop. Receives the index of the hop within
/// the path, its shift type, and the word currently holding the message.
using WildcardResolver =
    std::function<Digit(std::size_t hop_index, ShiftType type, const Word& at)>;

/// Resolver that substitutes 0 for every wildcard.
WildcardResolver zero_resolver();

/// An ordered list of hops from a source towards a destination.
class RoutingPath {
 public:
  RoutingPath() = default;
  explicit RoutingPath(std::vector<Hop> hops) : hops_(std::move(hops)) {}

  std::size_t length() const { return hops_.size(); }
  bool empty() const { return hops_.empty(); }
  const Hop& hop(std::size_t i) const;
  const std::vector<Hop>& hops() const { return hops_; }
  void push(Hop hop) { hops_.push_back(hop); }
  /// Removes all hops but keeps the storage (route_into reuses it).
  void clear() { hops_.clear(); }

  bool has_wildcards() const;

  /// Walks the path from `source`, resolving wildcards with `resolver`
  /// (must be non-null if the path has wildcards; defaults to zeros).
  /// Returns the word reached. Throws if a concrete digit is out of range
  /// for the word's radix.
  Word apply(const Word& source,
             const WildcardResolver& resolver = zero_resolver()) const;

  /// Whether apply(source) — every wildcard resolved to 0 — equals
  /// `target`, checked without building the intermediate words: each
  /// digit of the result is traced back to the hop that last wrote it, or
  /// to the source digit it started as. O(k · length), no allocation, so
  /// the allocation-free engines can audit their own paths. False, where
  /// apply would throw, when a concrete digit is out of range.
  bool reaches(const Word& source, const Word& target) const;

  /// "{(0,1),(1,*),...}" in the paper's notation.
  std::string to_string() const;

  friend bool operator==(const RoutingPath& a, const RoutingPath& b) = default;

 private:
  std::vector<Hop> hops_;
};

}  // namespace dbn
