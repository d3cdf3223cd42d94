// Capability annotations for Clang Thread Safety Analysis (Hutchins et al.,
// "C/C++ Thread Safety Analysis"; the GUARDED_BY/REQUIRES model used
// throughout Abseil). Annotating which mutex guards which member, and which
// lock a method requires, turns lock discipline into a compile-time
// invariant: building with `-Wthread-safety -Werror=thread-safety-analysis`
// (the `thread-safety` CMake preset) rejects any unguarded access instead
// of hoping a TSan run hits the bad interleaving.
//
// Under any compiler without the attributes (GCC, MSVC) every macro expands
// to nothing, so annotated code builds everywhere; only the Clang preset
// enforces. Use the macros on util::Mutex-based code (src/util/mutex.h) —
// raw std primitives are banned in src/ by tools/lint.py rule 8 precisely
// because the analysis cannot see through them.
//
// Quick reference (DESIGN.md §13 has the full locking model):
//   JARVIS_GUARDED_BY(mu)   member access requires holding mu
//   JARVIS_REQUIRES(mu)     caller must hold mu before calling
//   JARVIS_EXCLUDES(mu)     caller must NOT hold mu (the function takes it;
//                           calling it re-entrantly from under mu is a
//                           compile error where the analysis can see it)
//   JARVIS_ACQUIRE/RELEASE  the function itself locks / unlocks mu
#pragma once

// Attributes are keyed on __has_attribute rather than bare __clang__ so an
// old Clang (or any future compiler growing the attributes) degrades
// gracefully instead of erroring on unknown attributes.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define JARVIS_THREAD_ANNOTATION_(x) __attribute__((x))
#endif
#endif
#ifndef JARVIS_THREAD_ANNOTATION_
#define JARVIS_THREAD_ANNOTATION_(x)  // no-op off Clang
#endif

// --- Type annotations -------------------------------------------------------

// Marks a class as a lockable capability ("mutex" names it in diagnostics).
#define JARVIS_CAPABILITY(x) JARVIS_THREAD_ANNOTATION_(capability(x))

// Marks an RAII class whose constructor acquires and destructor releases.
#define JARVIS_SCOPED_CAPABILITY JARVIS_THREAD_ANNOTATION_(scoped_lockable)

// --- Member annotations -----------------------------------------------------

// Reads and writes of the member require holding the given capability.
#define JARVIS_GUARDED_BY(x) JARVIS_THREAD_ANNOTATION_(guarded_by(x))

// As GUARDED_BY, but for the data a pointer/smart-pointer member points to.
#define JARVIS_PT_GUARDED_BY(x) JARVIS_THREAD_ANNOTATION_(pt_guarded_by(x))

// Static lock-order declarations (deadlock detection between two mutexes).
#define JARVIS_ACQUIRED_BEFORE(...) \
  JARVIS_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define JARVIS_ACQUIRED_AFTER(...) \
  JARVIS_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

// --- Function annotations ---------------------------------------------------

// Caller must hold the capability (exclusively / shared) when calling.
#define JARVIS_REQUIRES(...) \
  JARVIS_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define JARVIS_REQUIRES_SHARED(...) \
  JARVIS_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

// The function acquires the capability and holds it on return.
#define JARVIS_ACQUIRE(...) \
  JARVIS_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define JARVIS_ACQUIRE_SHARED(...) \
  JARVIS_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))

// The function releases a capability the caller holds.
#define JARVIS_RELEASE(...) \
  JARVIS_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define JARVIS_RELEASE_SHARED(...) \
  JARVIS_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))
#define JARVIS_RELEASE_GENERIC(...) \
  JARVIS_THREAD_ANNOTATION_(release_generic_capability(__VA_ARGS__))

// Caller must NOT hold the capability: the function takes it itself, so a
// call from under the lock would self-deadlock. This is how a re-entrancy
// contract becomes a compile-time error.
#define JARVIS_EXCLUDES(...) \
  JARVIS_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

// Tells the analysis to assume the capability is held past this call
// (backed by a runtime check in util::Mutex::AssertHeld).
#define JARVIS_ASSERT_CAPABILITY(x) \
  JARVIS_THREAD_ANNOTATION_(assert_capability(x))
#define JARVIS_ASSERT_SHARED_CAPABILITY(x) \
  JARVIS_THREAD_ANNOTATION_(assert_shared_capability(x))

// The function returns a reference to the mutex that guards its result.
#define JARVIS_RETURN_CAPABILITY(x) JARVIS_THREAD_ANNOTATION_(lock_returned(x))

// Escape hatch for code the analysis cannot model. Every use needs a
// written justification at the use site.
#define JARVIS_NO_THREAD_SAFETY_ANALYSIS \
  JARVIS_THREAD_ANNOTATION_(no_thread_safety_analysis)
