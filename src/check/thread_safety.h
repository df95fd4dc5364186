// Clang thread-safety-analysis attribute macros (-Wthread-safety), the
// compiler-backed lock checker for check::Mutex (check/mutex.h).
//
// The annotations are advisory metadata: GCC and MSVC see empty macros,
// Clang's analysis proves at compile time that every GUARDED_BY member
// is only touched while its capability is held — on all paths, not just
// the ones a test executes.
//
// Naming follows the Clang documentation's canonical macros (the subset
// hetsim uses), with a HETSIM_ prefix so nothing collides if a vendored
// header defines the plain names.
#pragma once

#if defined(__clang__)
#define HETSIM_TS_ATTR(x) __attribute__((x))
#else
#define HETSIM_TS_ATTR(x)  // no-op outside Clang
#endif

/// Type is a lockable capability ("mutex" in diagnostics).
#define HETSIM_CAPABILITY(x) HETSIM_TS_ATTR(capability(x))

/// RAII type that acquires a capability in its constructor and releases
/// it in its destructor.
#define HETSIM_SCOPED_CAPABILITY HETSIM_TS_ATTR(scoped_lockable)

/// Member may only be read or written while holding `x`.
#define HETSIM_GUARDED_BY(x) HETSIM_TS_ATTR(guarded_by(x))

/// Function acquires the capability and does not release it.
#define HETSIM_ACQUIRE(...) \
  HETSIM_TS_ATTR(acquire_capability(__VA_ARGS__))

/// Function releases the capability.
#define HETSIM_RELEASE(...) \
  HETSIM_TS_ATTR(release_capability(__VA_ARGS__))

