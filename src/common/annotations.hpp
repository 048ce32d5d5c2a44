// Clang Thread Safety Analysis annotations (DBN_* spelling).
//
// These macros let the compiler prove, on every clang build, that each
// field marked DBN_GUARDED_BY(m) is only touched while `m` is held and
// that every DBN_ACQUIRE/DBN_RELEASE pair balances. They expand to
// clang's capability attributes under `-Wthread-safety` and to nothing
// everywhere else (gcc, MSVC), so annotated headers stay portable.
//
// The analysis only understands types that are themselves declared as
// capabilities; std::mutex is not annotated in libstdc++, so guarded
// state must hang off dbn::Mutex (common/mutex.hpp), the repo's
// capability-annotated wrapper. CI's static-analysis job compiles with
// `-Wthread-safety -Wthread-safety-beta -Werror`, and
// tests/compile_fail/ proves the analysis actually rejects a
// guarded-field-without-lock TU and a double-acquire TU. See
// docs/static_analysis.md ("Thread safety analysis") for the macro
// table and how to read the diagnostics.
#pragma once

#if defined(__clang__) && (!defined(SWIG))
#define DBN_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define DBN_THREAD_ANNOTATION(x)  // no-op off clang
#endif

/// Declares a class to be a capability (lockable) type. The string names
/// the capability kind in diagnostics ("mutex").
#define DBN_CAPABILITY(x) DBN_THREAD_ANNOTATION(capability(x))

/// Declares an RAII class whose constructor acquires and destructor
/// releases a capability (std::lock_guard shape).
#define DBN_SCOPED_CAPABILITY DBN_THREAD_ANNOTATION(scoped_lockable)

/// Field annotation: reads and writes require holding `x`.
#define DBN_GUARDED_BY(x) DBN_THREAD_ANNOTATION(guarded_by(x))

/// Pointer-field annotation: the pointee (not the pointer) is protected
/// by `x`.
#define DBN_PT_GUARDED_BY(x) DBN_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function annotation: the caller must hold the listed capabilities on
/// entry (they stay held on exit).
#define DBN_REQUIRES(...) \
  DBN_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function annotation: the caller must NOT hold the listed capabilities
/// (the function acquires them itself; catches self-deadlock).
#define DBN_EXCLUDES(...) DBN_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function annotation: acquires the listed capabilities (held on exit).
#define DBN_ACQUIRE(...) \
  DBN_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function annotation: releases the listed capabilities (held on entry).
#define DBN_RELEASE(...) \
  DBN_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function annotation: acquires the capability iff the function returns
/// the given value (e.g. DBN_TRY_ACQUIRE(true) on try_lock()).
#define DBN_TRY_ACQUIRE(...) \
  DBN_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Function annotation: the returned reference/pointer designates the
/// capability `x` (lets accessors participate in the analysis).
#define DBN_RETURN_CAPABILITY(x) DBN_THREAD_ANNOTATION(lock_returned(x))

/// Lock-ordering declarations (deadlock detection under
/// -Wthread-safety-beta).
#define DBN_ACQUIRED_BEFORE(...) \
  DBN_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define DBN_ACQUIRED_AFTER(...) \
  DBN_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/// Escape hatch: turns the analysis off for one function. Every use MUST
/// explain why the unchecked access is safe, and dbn_lint's tsa-exemption
/// rule requires a `dbn-lint: allow(tsa-exemption)` on the same line. The
/// rules for acceptable uses live in docs/static_analysis.md.
#define DBN_NO_THREAD_SAFETY_ANALYSIS \
  DBN_THREAD_ANNOTATION(no_thread_safety_analysis)
