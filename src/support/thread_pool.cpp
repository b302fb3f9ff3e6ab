#include "support/thread_pool.hpp"

#include <utility>

namespace wp {

unsigned ThreadPool::hardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1u : n;
}

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned n = threads == 0 ? hardwareThreads() : threads;
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { workerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

namespace {
// Dense index of the pool worker running the calling thread, or -1.
thread_local int t_worker_index = -1;
}  // namespace

int ThreadPool::currentWorkerIndex() { return t_worker_index; }

void ThreadPool::submit(Task task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::submitAll(std::vector<Task> tasks) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (Task& task : tasks) queue_.push_back(std::move(task));
  }
  work_cv_.notify_all();
}

void ThreadPool::workerLoop(unsigned me) {
  t_worker_index = static_cast<int>(me);
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (!queue_.empty()) {
      Task task = std::move(queue_.front());
      queue_.pop_front();
      ++running_;
      lock.unlock();
      std::exception_ptr error;
      try {
        task();
      } catch (...) {
        error = std::current_exception();
      }
      task = nullptr;  // destroy captures outside the lock
      lock.lock();
      --running_;
      if (error && !first_error_) first_error_ = error;
      if (queue_.empty() && running_ == 0) done_cv_.notify_all();
      continue;
    }
    if (stopping_) return;
    work_cv_.wait(lock);
  }
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
  if (first_error_) {
    std::exception_ptr error = first_error_;
    first_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

}  // namespace wp
