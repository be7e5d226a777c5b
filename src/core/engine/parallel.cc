#include "core/engine/parallel.h"

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

namespace maywsd::core::engine {

namespace {

/// Set while a pool worker is executing tasks, so nested RunAll calls run
/// inline instead of deadlocking on a saturated queue.
thread_local bool t_on_pool_worker = false;

}  // namespace

struct ThreadPool::Impl {
  std::mutex mu;
  std::condition_variable work_cv;
  std::deque<std::function<void()>> queue;
  bool shutting_down = false;
  std::vector<std::thread> workers;

  void WorkerLoop() {
    t_on_pool_worker = true;
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu);
        work_cv.wait(lock, [this] { return shutting_down || !queue.empty(); });
        if (queue.empty()) return;  // shutting down
        task = std::move(queue.front());
        queue.pop_front();
      }
      task();
    }
  }
};

ThreadPool::ThreadPool(size_t num_threads)
    : impl_(new Impl), num_threads_(num_threads == 0 ? 1 : num_threads) {
  impl_->workers.reserve(num_threads_);
  for (size_t i = 0; i < num_threads_; ++i) {
    impl_->workers.emplace_back([impl = impl_] { impl->WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->shutting_down = true;
  }
  impl_->work_cv.notify_all();
  for (std::thread& t : impl_->workers) t.join();
  delete impl_;
}

std::vector<Status> ThreadPool::RunAll(
    std::vector<std::function<Status()>> tasks) {
  std::vector<Status> results(tasks.size(), Status::Ok());
  if (tasks.empty()) return results;
  if (t_on_pool_worker) {
    // Nested use from a worker: run inline to avoid queue deadlock.
    for (size_t i = 0; i < tasks.size(); ++i) results[i] = tasks[i]();
    return results;
  }
  struct Batch {
    std::mutex mu;
    std::condition_variable done_cv;
    size_t pending;
  };
  auto batch = std::make_shared<Batch>();
  batch->pending = tasks.size();
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    for (size_t i = 0; i < tasks.size(); ++i) {
      impl_->queue.push_back(
          [task = std::move(tasks[i]), result = &results[i], batch] {
            *result = task();
            std::lock_guard<std::mutex> lock(batch->mu);
            if (--batch->pending == 0) batch->done_cv.notify_all();
          });
    }
  }
  impl_->work_cv.notify_all();
  std::unique_lock<std::mutex> lock(batch->mu);
  batch->done_cv.wait(lock, [&batch] { return batch->pending == 0; });
  return results;
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool(std::thread::hardware_concurrency() == 0
                             ? 4
                             : std::thread::hardware_concurrency());
  return pool;
}

}  // namespace maywsd::core::engine
