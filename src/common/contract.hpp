// Leveled contract checking for the debruijn-routing library.
//
// Public API entry points validate their preconditions with DBN_REQUIRE and
// throw dbn::ContractViolation on failure; internal invariants use
// DBN_ASSERT; postconditions use DBN_ENSURE; expensive re-verification of
// algorithmic invariants (re-deriving a Theorem 2 witness, re-walking a
// path) uses DBN_AUDIT.
//
// Which checks are compiled in is selected per translation unit by
// DBN_CONTRACT_LEVEL:
//
//   level 0 (release)  every macro compiles to nothing — conditions are
//                      *not evaluated* (guarded by sizeof, so the
//                      expressions still have to parse and name-lookup).
//   level 1 (default)  DBN_REQUIRE / DBN_ENSURE / DBN_ASSERT are active;
//                      DBN_AUDIT compiles away. The checks on hot routing
//                      paths are O(1) compares; the BM_UntracedRoute
//                      overhead gate in CI proves they stay in the noise.
//   level 2 (audit)    everything is active, including O(k)-and-worse
//                      re-verification. Sanitizer builds (DBN_SAN=... in
//                      CMake) default to this level so fuzzing and TSan
//                      stress runs double-check the algorithmic invariants
//                      they exercise.
//
// The level may be set on the command line (-DDBN_CONTRACT_LEVEL=2, which
// is what CMake's DBN_CONTRACT_LEVEL cache option does) or by a test TU
// before including this header (tests/test_contract_*.cpp pin levels 0 and
// 2 to cover all three configurations in one build).
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>

#ifndef DBN_CONTRACT_LEVEL
#define DBN_CONTRACT_LEVEL 1
#endif

#if DBN_CONTRACT_LEVEL < 0 || DBN_CONTRACT_LEVEL > 2
#error "DBN_CONTRACT_LEVEL must be 0 (release), 1 (default) or 2 (audit)"
#endif

namespace dbn {

/// Thrown when a documented precondition of a public API is violated.
class ContractViolation : public std::logic_error {
 public:
  explicit ContractViolation(const std::string& what) : std::logic_error(what) {}
};

/// The contract level the current translation unit was compiled at.
/// Internal linkage: translation units that pin different levels each keep
/// their own copy, where an inline function would be one definition with
/// several bodies and the linker would keep whichever it met first.
static constexpr int contract_level() { return DBN_CONTRACT_LEVEL; }

namespace detail {

[[noreturn]] inline void contract_failure(const char* kind, const char* expr,
                                          const std::string& msg,
                                          const std::source_location loc) {
  std::string full = std::string(kind) + " failure: (" + expr + ") at " +
                     loc.file_name() + ":" + std::to_string(loc.line()) +
                     " in " + loc.function_name();
  if (!msg.empty()) {
    full += ": " + msg;
  }
  throw ContractViolation(full);
}

}  // namespace detail

}  // namespace dbn

// Active form: evaluate and throw on failure.
#define DBN_CONTRACT_CHECK_(kind, cond, msg)                              \
  do {                                                                    \
    if (!(cond)) {                                                        \
      ::dbn::detail::contract_failure(kind, #cond, (msg),                 \
                                      ::std::source_location::current()); \
    }                                                                     \
  } while (false)

// Disabled form: the condition and message are parsed (so they cannot rot)
// but never evaluated — sizeof is an unevaluated context.
#define DBN_CONTRACT_IGNORE_(cond, msg)                 \
  do {                                                  \
    static_cast<void>(sizeof((cond) ? 1 : 0));          \
    static_cast<void>(sizeof(msg));                     \
  } while (false)

#if DBN_CONTRACT_LEVEL >= 1

/// Precondition check on a public API: throws dbn::ContractViolation with
/// location info. Active at levels 1 and 2.
#define DBN_REQUIRE(cond, msg) DBN_CONTRACT_CHECK_("precondition", cond, msg)

/// Postcondition check: what a function promises about its own result.
/// Active at levels 1 and 2.
#define DBN_ENSURE(cond, msg) DBN_CONTRACT_CHECK_("postcondition", cond, msg)

/// Internal invariant check: same mechanics, different label so failures are
/// attributable to library bugs rather than caller errors. Active at levels
/// 1 and 2.
#define DBN_ASSERT(cond, msg) DBN_CONTRACT_CHECK_("invariant", cond, msg)

#else  // DBN_CONTRACT_LEVEL == 0

#define DBN_REQUIRE(cond, msg) DBN_CONTRACT_IGNORE_(cond, msg)
#define DBN_ENSURE(cond, msg) DBN_CONTRACT_IGNORE_(cond, msg)
#define DBN_ASSERT(cond, msg) DBN_CONTRACT_IGNORE_(cond, msg)

#endif

#if DBN_CONTRACT_LEVEL >= 2

/// Expensive invariant re-verification (O(k) and worse): only compiled in
/// at audit level, which sanitizer and stress builds enable by default.
#define DBN_AUDIT(cond, msg) DBN_CONTRACT_CHECK_("audit", cond, msg)

/// True when DBN_AUDIT is active — use to guard setup code (witness
/// recomputation buffers etc.) that only audit checks consume.
#define DBN_AUDIT_ENABLED 1

#else

#define DBN_AUDIT(cond, msg) DBN_CONTRACT_IGNORE_(cond, msg)
#define DBN_AUDIT_ENABLED 0

#endif
