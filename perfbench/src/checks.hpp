// Answer checking shared by the serve and batch workloads (and planted
// wrong answers in the self-test).
//
// The oracle is the library's suffix-automaton undirected_distance — a
// Theorem-2 kernel independent of the packed/Morris–Pratt engine that
// answers requests. A Route answer must replay from X onto Y in exactly
// the oracle distance; a Distance answer must equal it. Checks run after
// the timed window: during it, each workload only files its answers in an
// AnswerStore, which keeps the first answer per distinct input and counts
// byte-identical repeats, so every answer is checked without holding them
// all.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "core/path.hpp"
#include "debruijn/word.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

enum class Verdict {
  Ok,
  NotOk,          // a non-Ok status (overloaded, draining, bad request, ...)
  Undecodable,    // the response frame did not decode
  WrongType,      // answered a different request type
  MissesTarget,   // the route does not end on Y
  NotShortest,    // the route ends on Y but is longer than the distance
  WrongDistance,  // a Distance answer differs from the oracle
};

const char* verdict_name(Verdict verdict);

/// Replays `hops` from x (wildcards resolve to digit 0) and reports whether
/// the walk ends on y.
bool lands_on(const dbn::Word& x, const dbn::Word& y,
              const std::vector<dbn::Hop>& hops);

Verdict check_route(const dbn::Word& x, const dbn::Word& y,
                    const std::vector<dbn::Hop>& hops, int oracle);

Verdict check_distance(std::uint64_t distance, int oracle);

/// Checks one serve/1 response payload answering (type, x, y).
Verdict check_response(std::string_view payload, dbn::serve::RequestType type,
                       const dbn::Word& x, const dbn::Word& y, int oracle);

/// First answer per distinct input, plus a count of identical repeats and
/// every differing answer, so a post-window pass can check them all.
template <typename Answer>
class AnswerStore {
 public:
  explicit AnswerStore(std::size_t inputs)
      : first_(inputs), copies_(inputs, 0) {}

  void record(std::size_t input, Answer&& answer) {
    if (copies_[input] == 0) {
      first_[input] = std::move(answer);
      copies_[input] = 1;
    } else if (first_[input] == answer) {
      ++copies_[input];
    } else {
      extra_.emplace_back(input, std::move(answer));
    }
  }

  /// Answers recorded so far.
  std::uint64_t answers() const {
    std::uint64_t n = extra_.size();
    for (const std::uint64_t c : copies_) {
      n += c;
    }
    return n;
  }

  /// Calls visit(input, answer, copies) once per distinct recorded answer.
  template <typename Visit>
  void for_each(Visit&& visit) const {
    for (std::size_t i = 0; i < first_.size(); ++i) {
      if (copies_[i] != 0) {
        visit(i, first_[i], copies_[i]);
      }
    }
    for (const auto& [input, answer] : extra_) {
      visit(input, answer, std::uint64_t{1});
    }
  }

  /// Runs `check(input, answer) -> Verdict` once per distinct answer and
  /// returns how many recorded answers failed (repeats of a failing answer
  /// fail too). `tally(verdict, count)` sees every failure.
  template <typename Check, typename Tally>
  std::uint64_t failures(Check&& check, Tally&& tally) const {
    std::uint64_t failed = 0;
    for_each([&](std::size_t input, const Answer& answer, std::uint64_t n) {
      const Verdict v = check(input, answer);
      if (v != Verdict::Ok) {
        failed += n;
        tally(v, n);
      }
    });
    return failed;
  }

  /// The first answer recorded for `input`, or nullptr.
  const Answer* first(std::size_t input) const {
    return copies_[input] == 0 ? nullptr : &first_[input];
  }

 private:
  std::vector<Answer> first_;
  std::vector<std::uint64_t> copies_;
  std::vector<std::pair<std::size_t, Answer>> extra_;
};

}  // namespace perfbench
