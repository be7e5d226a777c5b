// A bounded worker pool for batches of independent requests.
//
// Plan evaluation and updates run sequentially: Session::Run and
// Session::ApplyAll go straight to the plan and update drivers whatever
// SessionOptions::threads says. The pool serves WorldServer::ExecuteAll,
// which runs a batch of requests — each against its own session — side
// by side.

#ifndef MAYWSD_CORE_ENGINE_PARALLEL_H_
#define MAYWSD_CORE_ENGINE_PARALLEL_H_

#include <functional>
#include <vector>

#include "common/status.h"

namespace maywsd::core::engine {

/// A bounded pool of worker threads with a run-and-wait batch interface.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least one).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return num_threads_; }

  /// Runs every task on the pool and waits for all of them; statuses come
  /// back in task order. Calls from inside a pool worker run the tasks
  /// inline (no nested scheduling, no deadlock).
  std::vector<Status> RunAll(std::vector<std::function<Status()>> tasks);

  /// Process-wide pool sized to the hardware concurrency. Workers are
  /// started on first use and joined at process exit.
  static ThreadPool& Shared();

 private:
  struct Impl;
  Impl* impl_;
  size_t num_threads_;
};

}  // namespace maywsd::core::engine

#endif  // MAYWSD_CORE_ENGINE_PARALLEL_H_
