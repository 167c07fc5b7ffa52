#ifndef T2M_UTIL_SYNC_H
#define T2M_UTIL_SYNC_H

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

// Clang Thread Safety Analysis shim (docs/concurrency.md). On Clang the
// macros expand to the thread-safety attributes checked by
// -Wthread-safety -Wthread-safety-beta; on GCC (which has none of these
// attributes) they expand to nothing, so the annotated tree stays
// warning-clean under the GCC -Werror wall. The CI clang job is what turns
// the annotations into a merge gate.
//
// The project-rule lint engine (tools/lint_t2m.cpp) forbids the raw
// std::mutex / std::lock_guard / std::condition_variable / std::thread
// vocabulary everywhere outside this header: all lock-based synchronisation
// goes through the annotated t2m::Mutex / t2m::MutexLock / t2m::CondVar
// wrappers below, which is what makes the static certification total — a
// mutex the analysis cannot see is a mutex it cannot check.

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define T2M_TSA(x) __attribute__((x))
#endif
#endif
#ifndef T2M_TSA
#define T2M_TSA(x)  // no-op outside Clang
#endif

// The conventional attribute vocabulary (same shape as Abseil's
// thread_annotations.h). #ifndef-guarded so a hypothetical second shim in a
// dependency does not clash.
#ifndef CAPABILITY
#define CAPABILITY(x) T2M_TSA(capability(x))
#endif
#ifndef SCOPED_CAPABILITY
#define SCOPED_CAPABILITY T2M_TSA(scoped_lockable)
#endif
#ifndef GUARDED_BY
#define GUARDED_BY(x) T2M_TSA(guarded_by(x))
#endif
#ifndef PT_GUARDED_BY
#define PT_GUARDED_BY(x) T2M_TSA(pt_guarded_by(x))
#endif
#ifndef ACQUIRED_BEFORE
#define ACQUIRED_BEFORE(...) T2M_TSA(acquired_before(__VA_ARGS__))
#endif
#ifndef ACQUIRED_AFTER
#define ACQUIRED_AFTER(...) T2M_TSA(acquired_after(__VA_ARGS__))
#endif
#ifndef REQUIRES
#define REQUIRES(...) T2M_TSA(requires_capability(__VA_ARGS__))
#endif
#ifndef REQUIRES_SHARED
#define REQUIRES_SHARED(...) T2M_TSA(requires_shared_capability(__VA_ARGS__))
#endif
#ifndef ACQUIRE
#define ACQUIRE(...) T2M_TSA(acquire_capability(__VA_ARGS__))
#endif
#ifndef ACQUIRE_SHARED
#define ACQUIRE_SHARED(...) T2M_TSA(acquire_shared_capability(__VA_ARGS__))
#endif
#ifndef RELEASE
#define RELEASE(...) T2M_TSA(release_capability(__VA_ARGS__))
#endif
#ifndef RELEASE_SHARED
#define RELEASE_SHARED(...) T2M_TSA(release_shared_capability(__VA_ARGS__))
#endif
#ifndef TRY_ACQUIRE
#define TRY_ACQUIRE(...) T2M_TSA(try_acquire_capability(__VA_ARGS__))
#endif
#ifndef EXCLUDES
#define EXCLUDES(...) T2M_TSA(locks_excluded(__VA_ARGS__))
#endif
#ifndef ASSERT_CAPABILITY
#define ASSERT_CAPABILITY(x) T2M_TSA(assert_capability(x))
#endif
#ifndef RETURN_CAPABILITY
#define RETURN_CAPABILITY(x) T2M_TSA(lock_returned(x))
#endif
#ifndef NO_THREAD_SAFETY_ANALYSIS
#define NO_THREAD_SAFETY_ANALYSIS T2M_TSA(no_thread_safety_analysis)
#endif

namespace t2m {

/// Annotated exclusive mutex. Fields it protects are declared
/// `GUARDED_BY(mu_)`, internal helpers that assume it is held are
/// `REQUIRES(mu_)`, and the Clang analysis then proves every access happens
/// under the right lock — at compile time, over every schedule at once.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { m_.lock(); }
  void unlock() RELEASE() { m_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return m_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex m_;
};

/// RAII lock over a t2m::Mutex (the analysed replacement for
/// std::lock_guard / std::unique_lock). Relockable: unlock()/lock() let a
/// scope shed the lock around slow work — the analysis tracks the handoff,
/// so touching a guarded field in the gap is a compile error.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu), held_(true) { mu_.lock(); }
  ~MutexLock() RELEASE() {
    if (held_) mu_.unlock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Temporarily releases the lock (e.g. to run a callback that takes other
  /// locks); pair with lock() before the scope ends.
  void unlock() RELEASE() {
    mu_.unlock();
    held_ = false;
  }
  void lock() ACQUIRE() {
    mu_.lock();
    held_ = true;
  }

 private:
  Mutex& mu_;
  bool held_;
};

/// Condition variable bound to t2m::Mutex. Every wait names the mutex and is
/// annotated REQUIRES(mu), so a wait without the annotated lock held — the
/// classic lost-wakeup bug — no longer compiles under the clang job.
///
/// No predicate overloads on purpose: a predicate lambda reading guarded
/// state is opaque to the analysis (it cannot see that wait() invokes it
/// under the lock), so callers write the standard `while (!cond) wait(mu);`
/// loop instead, which the analysis checks exactly.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks, and re-acquires `mu` before
  /// returning. Spurious wakeups happen; always re-check the condition.
  void wait(Mutex& mu) REQUIRES(mu) {
    // The caller holds mu (typically via MutexLock); adopt its underlying
    // std::mutex for the duration of the wait and hand it straight back —
    // release() keeps the unique_lock from unlocking what the caller owns.
    std::unique_lock<std::mutex> native(mu.m_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  template <typename Rep, typename Period>
  std::cv_status wait_for(Mutex& mu,
                          const std::chrono::duration<Rep, Period>& dur) REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.m_, std::adopt_lock);
    const std::cv_status status = cv_.wait_for(native, dur);
    native.release();
    return status;
  }

  template <typename Clock, typename Duration>
  std::cv_status wait_until(Mutex& mu,
                            const std::chrono::time_point<Clock, Duration>& tp)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.m_, std::adopt_lock);
    const std::cv_status status = cv_.wait_until(native, tp);
    native.release();
    return status;
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

/// Centralised thread handle: every thread in the tree is created through
/// this alias (the lint engine forbids raw std::thread outside this header),
/// so "what spawns threads" stays a one-grep question — the obs heartbeat is
/// the only production spawner today.
using Thread = std::thread;

}  // namespace t2m

#endif  // T2M_UTIL_SYNC_H
