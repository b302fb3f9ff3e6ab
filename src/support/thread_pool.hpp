// Thread pool for the sweep executor: one FIFO queue under one mutex.
//
// Tasks here are whole priced simulations (tens of milliseconds to
// seconds each), submitted in batches from outside the pool, so every
// worker takes the oldest queued task and tasks start in submission
// order at any thread count. Contention on such coarse tasks is
// unmeasurable, and the single-lock design is easy to reason about and
// clean under ThreadSanitizer.
//
// Exceptions thrown by a task are captured; wait() rethrows the first
// one after the queue drains, so a failing simulation aborts the sweep
// with its original SimError instead of killing a worker thread.
#pragma once

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wp {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  /// Spawns @p threads workers; 0 means one per hardware thread.
  explicit ThreadPool(unsigned threads = 0);

  /// Drains remaining work, joins the workers. Pending exceptions are
  /// dropped — call wait() first if you care about them.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Callable from any thread, including from inside a
  /// running task.
  void submit(Task task);

  /// Enqueues every task of @p tasks, in list order, under one lock
  /// before waking any worker, so no worker starts while the batch is
  /// half queued.
  void submitAll(std::vector<Task> tasks);

  /// Blocks until every submitted task has finished, then rethrows the
  /// first exception any task threw (if any). The pool stays usable
  /// afterwards — submit/wait cycles can repeat.
  void wait();

  [[nodiscard]] unsigned threadCount() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// std::thread::hardware_concurrency with a floor of 1.
  [[nodiscard]] static unsigned hardwareThreads();

  /// Dense index of the pool worker running the calling thread, or -1
  /// when called from a thread no pool owns (e.g. main). Used by the
  /// sweep trace to attribute events to workers.
  [[nodiscard]] static int currentWorkerIndex();

 private:
  void workerLoop(unsigned me);

  std::mutex mutex_;
  std::condition_variable work_cv_;   ///< wakes idle workers
  std::condition_variable done_cv_;   ///< wakes wait()
  std::deque<Task> queue_;     ///< oldest first, under mutex_
  std::size_t running_ = 0;    ///< tasks currently executing
  std::exception_ptr first_error_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace wp
