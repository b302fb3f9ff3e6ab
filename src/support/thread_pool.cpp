#include "support/thread_pool.hpp"

#include <utility>

namespace wp {

unsigned ThreadPool::hardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1u : n;
}

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned n = threads == 0 ? hardwareThreads() : threads;
  deques_.resize(n);
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
// Index of the worker deque the calling thread owns, or -1 when the
// caller is not a pool worker (external submit).
thread_local int t_worker_index = -1;
}  // namespace

int ThreadPool::currentWorkerIndex() { return t_worker_index; }

unsigned ThreadPool::homeDeque() {
  return t_worker_index >= 0 &&
                 static_cast<std::size_t>(t_worker_index) < deques_.size()
             ? static_cast<unsigned>(t_worker_index)
             : (next_victim_++ % static_cast<unsigned>(deques_.size()));
}

void ThreadPool::submit(Task task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    deques_[homeDeque()].push_back(std::move(task));
    ++queued_;
  }
  work_cv_.notify_one();
}

void ThreadPool::submitAll(std::vector<Task> tasks) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Last task first: a worker pops its own deque newest-first.
    for (auto task = tasks.rbegin(); task != tasks.rend(); ++task) {
      deques_[homeDeque()].push_back(std::move(*task));
    }
    queued_ += tasks.size();
  }
  work_cv_.notify_all();
}

bool ThreadPool::popTask(unsigned me, Task& out) {
  // Own deque, newest first: the task this worker just spawned is the
  // one whose working set is still warm.
  if (!deques_[me].empty()) {
    out = std::move(deques_[me].back());
    deques_[me].pop_back();
    return true;
  }
  // Steal oldest-first from the others, so a victim keeps its own
  // recently-pushed (hot) end.
  for (std::size_t k = 1; k < deques_.size(); ++k) {
    auto& victim = deques_[(me + k) % deques_.size()];
    if (!victim.empty()) {
      out = std::move(victim.front());
      victim.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::workerLoop(unsigned me) {
  t_worker_index = static_cast<int>(me);
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    Task task;
    if (popTask(me, task)) {
      --queued_;
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
      if (queued_ == 0 && running_ == 0) done_cv_.notify_all();
      continue;
    }
    if (stopping_) return;
    work_cv_.wait(lock);
  }
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return queued_ == 0 && running_ == 0; });
  if (first_error_) {
    std::exception_ptr error = first_error_;
    first_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

}  // namespace wp
