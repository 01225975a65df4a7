#ifndef MAYBMS_BASE_DCHECK_H_
#define MAYBMS_BASE_DCHECK_H_

// MAYBMS_DCHECK(cond, msg): debug-build invariant trap.
//
// In Debug builds a failed condition prints the condition, the message,
// and the source location to stderr and aborts — turning an invariant
// violation (e.g. mutating a shared COW table, or writing to a shared
// Database inside a parallel region) into an immediate, attributable
// crash instead of silent corruption of sibling worlds. In Release builds
// the macro compiles to nothing: the condition expression is NOT
// evaluated, so traps may use debug-only state without a release-build
// cost.
//
// "Debug" means MAYBMS_DEBUG_INVARIANTS is 1. maybms_core exports that
// macro as a PUBLIC compile definition derived from its OWN build type
// (CMakeLists.txt), so every consumer agrees with the library on it —
// and on the layout of Table and Database, whose debug-only members it
// keys — whatever the consumer's own NDEBUG. A translation unit built
// outside the CMake target falls back to its own NDEBUG.
//
// The Debug-build death-test suite (tests/invariant_traps_test.cc) proves
// the engine's traps fire; the ASan/UBSan/TSan CI jobs build Debug and so
// run the whole test suite with every trap armed.

#ifndef MAYBMS_DEBUG_INVARIANTS
#ifdef NDEBUG
#define MAYBMS_DEBUG_INVARIANTS 0
#else
#define MAYBMS_DEBUG_INVARIANTS 1
#endif
#endif

#if MAYBMS_DEBUG_INVARIANTS

#include <cstdio>
#include <cstdlib>

namespace maybms::base {

[[noreturn]] inline void DcheckFail(const char* file, int line,
                                    const char* condition,
                                    const char* message) {
  std::fprintf(stderr, "MAYBMS_DCHECK failed at %s:%d: (%s) — %s\n", file,
               line, condition, message);
  std::fflush(stderr);
  std::abort();
}

}  // namespace maybms::base

#define MAYBMS_DCHECK(cond, msg)                                    \
  do {                                                              \
    if (!(cond)) {                                                  \
      ::maybms::base::DcheckFail(__FILE__, __LINE__, #cond, (msg)); \
    }                                                               \
  } while (false)

#else  // MAYBMS_DEBUG_INVARIANTS

#define MAYBMS_DCHECK(cond, msg) \
  do {                           \
  } while (false)

#endif  // MAYBMS_DEBUG_INVARIANTS

#endif  // MAYBMS_BASE_DCHECK_H_
