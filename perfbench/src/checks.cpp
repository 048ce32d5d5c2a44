#include "checks.hpp"

namespace perfbench {

using dbn::Digit;
using dbn::Hop;
using dbn::ShiftType;
using dbn::Word;
using dbn::serve::RequestType;

const char* verdict_name(Verdict verdict) {
  switch (verdict) {
    case Verdict::Ok:
      return "ok";
    case Verdict::NotOk:
      return "not_ok_status";
    case Verdict::Undecodable:
      return "undecodable";
    case Verdict::WrongType:
      return "wrong_type";
    case Verdict::MissesTarget:
      return "misses_target";
    case Verdict::NotShortest:
      return "not_shortest";
    case Verdict::WrongDistance:
      return "wrong_distance";
  }
  return "?";
}

bool lands_on(const Word& x, const Word& y, const std::vector<Hop>& hops) {
  // A ring buffer of the k digits: a left shift overwrites the head and
  // advances it, a right shift steps the head back and overwrites it. O(1)
  // per hop, so replaying k = 128 routes costs no more than reading them.
  const std::size_t k = x.length();
  if (y.length() != k || y.radix() != x.radix()) {
    return false;
  }
  std::vector<Digit> ring(k);
  for (std::size_t i = 0; i < k; ++i) {
    ring[i] = x.digit(i);
  }
  std::size_t head = 0;
  for (const Hop& hop : hops) {
    const Digit digit = hop.is_wildcard() ? 0 : hop.digit;
    if (digit >= x.radix()) {
      return false;
    }
    if (hop.type == ShiftType::Left) {
      ring[head] = digit;
      head = head + 1 == k ? 0 : head + 1;
    } else {
      head = head == 0 ? k - 1 : head - 1;
      ring[head] = digit;
    }
  }
  for (std::size_t i = 0; i < k; ++i) {
    if (ring[(head + i) % k] != y.digit(i)) {
      return false;
    }
  }
  return true;
}

Verdict check_route(const Word& x, const Word& y, const std::vector<Hop>& hops,
                    int oracle) {
  if (!lands_on(x, y, hops)) {
    return Verdict::MissesTarget;
  }
  return static_cast<int>(hops.size()) == oracle ? Verdict::Ok
                                                 : Verdict::NotShortest;
}

Verdict check_distance(std::uint64_t distance, int oracle) {
  return distance == static_cast<std::uint64_t>(oracle) ? Verdict::Ok
                                                        : Verdict::WrongDistance;
}

Verdict check_response(std::string_view payload, RequestType type,
                       const Word& x, const Word& y, int oracle) {
  const dbn::serve::DecodedResponse decoded =
      dbn::serve::decode_response(payload);
  if (decoded.error != dbn::serve::DecodeError::None) {
    return Verdict::Undecodable;
  }
  const dbn::serve::Response& r = decoded.response;
  if (r.status != dbn::serve::Status::Ok) {
    return Verdict::NotOk;
  }
  if (r.type != type) {
    return Verdict::WrongType;
  }
  return type == RequestType::Route ? check_route(x, y, r.hops, oracle)
                                    : check_distance(r.distance, oracle);
}

}  // namespace perfbench
