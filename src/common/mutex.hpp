// Annotated mutex / condition-variable wrappers. libstdc++'s
// std::mutex carries no Clang capability annotations, so locking it
// directly is invisible to -Wthread-safety; these zero-overhead
// wrappers (a std::mutex / std::condition_variable plus attributes —
// every method is a one-line inline forward) are what make the
// analysis real on this toolchain. Library code takes locks ONLY
// through gred::Mutex / gred::MutexLock / gred::CondVar — enforced by
// tools/threadsafety_check.py (rule raw-lock).
//
// Condition waits: Clang's analysis is intraprocedural and cannot see
// into a predicate lambda, so the codebase writes waits as explicit
//   while (!condition) cv.wait(lock);
// loops — the condition reads then happen syntactically inside the
// locked scope and the analysis checks them like any other guarded
// access (DESIGN.md §12).
#pragma once

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.hpp"

namespace gred {

class CondVar;

/// An annotated std::mutex. Same cost, visible to -Wthread-safety.
class GRED_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() GRED_ACQUIRE() { mu_.lock(); }
  void unlock() GRED_RELEASE() { mu_.unlock(); }
  bool try_lock() GRED_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  friend class MutexLock;
  std::mutex mu_;
};

/// Scoped lock over gred::Mutex (the std::lock_guard / std::unique_lock
/// of this codebase). Holds the lock for its whole lifetime; CondVar
/// waits release and reacquire it internally, which the analysis
/// models as the capability being held across the wait.
class GRED_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) GRED_ACQUIRE(mu) : lk_(mu.mu_) {}
  ~MutexLock() GRED_RELEASE() = default;

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lk_;
};

/// Annotated std::condition_variable over gred::Mutex.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `lock`'s mutex and blocks; the mutex is held
  /// again when wait returns. Callers re-test their condition in an
  /// explicit while loop (see header comment).
  void wait(MutexLock& lock) { cv_.wait(lock.lk_); }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace gred
