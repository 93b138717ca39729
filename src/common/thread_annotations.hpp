// Clang thread-safety-analysis macros plus the hot-path markers the
// static-analysis tooling keys on (DESIGN.md §12).
//
// The GRED_* thread-safety macros expand to Clang's capability
// attributes under Clang and to nothing elsewhere, so GCC builds are
// unaffected while Clang builds (-Wthread-safety, enabled by the
// top-level CMakeLists for Clang) verify the lock discipline at
// compile time. libstdc++'s std::mutex carries no capability
// annotations, so the analysis only sees locks taken through the
// annotated wrappers in common/mutex.hpp — the lint.threadsafety gate
// (tools/threadsafety_check.py) enforces that library code uses them.
//
// GRED_HOT_PATH / GRED_COLD_PATH are consumed by tools/hotpath_check.py:
// a GRED_HOT_PATH function is a verification root whose whole
// transitive call closure must be allocation-, lock-, and block-free;
// a GRED_COLD_PATH function is a deliberate, documented exit from the
// hot path (plan rebuild, failure-status construction, storage
// mutation) at which the closure walk prunes. Cold functions are
// forced out of line so the pruning boundary exists in the compiler's
// emitted call graph, and must carry a `// cold:` justification
// comment (enforced by tools/lint.py).
#pragma once

#if defined(__clang__) && (!defined(SWIG))
#define GRED_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define GRED_THREAD_ANNOTATION(x)  // no-op off Clang
#endif

/// Marks a type as a lockable capability ("mutex" by convention).
#define GRED_CAPABILITY(x) GRED_THREAD_ANNOTATION(capability(x))

/// Marks an RAII type that acquires on construction, releases on
/// destruction (MutexLock).
#define GRED_SCOPED_CAPABILITY GRED_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only while holding `x`.
#define GRED_GUARDED_BY(x) GRED_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose pointee is protected by `x` (the pointer
/// itself may be read freely).
#define GRED_PT_GUARDED_BY(x) GRED_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function that may only be called while holding the listed
/// capabilities (private helpers called under the owner's lock).
#define GRED_REQUIRES(...) \
  GRED_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function that must NOT be called while holding the listed
/// capabilities (public entry points that lock internally).
#define GRED_EXCLUDES(...) GRED_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function that acquires the capability and holds it on return.
#define GRED_ACQUIRE(...) \
  GRED_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function that releases a held capability.
#define GRED_RELEASE(...) \
  GRED_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function that tries to acquire; `b` is the success return value.
#define GRED_TRY_ACQUIRE(b, ...) \
  GRED_THREAD_ANNOTATION(try_acquire_capability(b, __VA_ARGS__))

/// Asserts (at runtime, by contract) that the capability is held.
#define GRED_ASSERT_CAPABILITY(x) \
  GRED_THREAD_ANNOTATION(assert_capability(x))

/// Function returning a reference to the capability guarding its
/// result.
#define GRED_RETURN_CAPABILITY(x) GRED_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch. Every use must carry a comment justifying why the
/// analysis cannot see the invariant (tools/lint.py: `// tsa:`).
#define GRED_NO_THREAD_SAFETY_ANALYSIS \
  GRED_THREAD_ANNOTATION(no_thread_safety_analysis)

// ---------------------------------------------------------------------------
// Hot-path markers (tools/hotpath_check.py).

#if defined(__GNUC__) || defined(__clang__)
/// Verification root: the transitive call closure of this function
/// must not allocate, lock, or block. tools/hotpath_check.py walks the
/// compiler's emitted call graph from every GRED_HOT_PATH function and
/// fails the build on a reachable operator new / malloc / mutex /
/// condition-variable / sleep / I-O call that is not waived in
/// tools/hotpath_waivers.conf. Also a codegen hint (hot section).
#define GRED_HOT_PATH __attribute__((hot))
/// Deliberate hot-to-cold boundary: the closure walk prunes here.
/// noinline keeps the boundary visible as a call-graph node (an
/// inlined boundary would leak its callees into the hot caller);
/// cold moves the body out of the hot section. Each use carries a
/// `// cold:` justification comment (tools/lint.py).
#define GRED_COLD_PATH __attribute__((cold, noinline))
#else
#define GRED_HOT_PATH
#define GRED_COLD_PATH
#endif
