// Clang thread-safety-analysis capabilities for fleda's concurrency
// surface, plus annotated lock types the library's lock-protected
// classes use instead of the raw std primitives.
//
// The FLEDA_* macros expand to Clang's capability attributes under
// Clang and to nothing everywhere else, so GCC builds are unaffected
// while the Clang CI job compiles the library with
// -Werror=thread-safety and statically proves the lock discipline:
// which members a mutex protects (FLEDA_GUARDED_BY), which functions
// must be called with it held (FLEDA_REQUIRES), and which
// acquire/release it (FLEDA_ACQUIRE / FLEDA_RELEASE).
//
// libstdc++'s std::mutex carries no capability attributes, so the
// analysis cannot see a std::lock_guard acquiring one. Mutex below is
// a zero-overhead annotated wrapper, and MutexLock is the scoped guard
// the analysis does understand. MutexLock exposes the
// underlying std::unique_lock for condition_variable::wait — the wait
// releases and reacquires invisibly to the analysis, which is the
// standard (and sound) idiom: the capability is held whenever the
// waiting code actually runs.
#pragma once

#include <mutex>

#if defined(__clang__)
#define FLEDA_TSA(x) __attribute__((x))
#else
#define FLEDA_TSA(x)  // no-op off Clang (GCC has no thread-safety analysis)
#endif

// A type that acts as a lock ("capability" in Clang's terminology).
#define FLEDA_CAPABILITY(x) FLEDA_TSA(capability(x))
// An RAII type that holds a capability for its lifetime.
#define FLEDA_SCOPED_CAPABILITY FLEDA_TSA(scoped_lockable)
// Data member readable/writable only with the capability held.
#define FLEDA_GUARDED_BY(x) FLEDA_TSA(guarded_by(x))
// Pointer member whose *pointee* is protected by the capability.
#define FLEDA_PT_GUARDED_BY(x) FLEDA_TSA(pt_guarded_by(x))
// Function that must be called with the capability held.
#define FLEDA_REQUIRES(...) FLEDA_TSA(requires_capability(__VA_ARGS__))
// Function that acquires / releases the capability.
#define FLEDA_ACQUIRE(...) FLEDA_TSA(acquire_capability(__VA_ARGS__))
#define FLEDA_RELEASE(...) FLEDA_TSA(release_capability(__VA_ARGS__))
#define FLEDA_TRY_ACQUIRE(...) FLEDA_TSA(try_acquire_capability(__VA_ARGS__))
// Function that must NOT be called with the capability held.
#define FLEDA_EXCLUDES(...) FLEDA_TSA(locks_excluded(__VA_ARGS__))
// Escape hatch for code the analysis cannot model; every use carries a
// justification comment at the call site.
#define FLEDA_NO_THREAD_SAFETY_ANALYSIS FLEDA_TSA(no_thread_safety_analysis)

namespace fleda {

class MutexLock;

// Annotated exclusive mutex. Same cost as std::mutex; prefer the
// scoped MutexLock over calling lock()/unlock() directly.
class FLEDA_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() FLEDA_ACQUIRE() { mu_.lock(); }
  void unlock() FLEDA_RELEASE() { mu_.unlock(); }
  bool try_lock() FLEDA_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class MutexLock;
  // The wrapper itself is the capability; the raw std::mutex guards
  // nothing directly.
  std::mutex mu_;  // fleda-lint: allow(mutex-guarded)
};

// Scoped exclusive lock over Mutex. native() hands the underlying
// std::unique_lock to condition_variable::wait; the analysis treats
// the capability as held across the wait, which matches when the
// waiter's code actually executes.
class FLEDA_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) FLEDA_ACQUIRE(mu) : lock_(mu.mu_) {}
  ~MutexLock() FLEDA_RELEASE() {}  // lock_'s dtor releases

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  std::unique_lock<std::mutex>& native() { return lock_; }

 private:
  std::unique_lock<std::mutex> lock_;
};

}  // namespace fleda
