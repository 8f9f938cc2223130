#include "runtime/thread_pool.hpp"

#include <iterator>

#include "obs/profiler.hpp"
#include "support/error.hpp"

namespace idxl {

ThreadPool::ThreadPool(unsigned workers) {
  if (workers == 0) {
    workers = std::thread::hardware_concurrency();
    if (workers == 0) workers = 1;
  }
  threads_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i)
    threads_.emplace_back([this, id = static_cast<int>(i)] { worker_loop(id); });
}

ThreadPool::~ThreadPool() {
  // Phase 1: retire the timer thread BEFORE workers see shutdown_. A timer
  // callback firing right now (outside the lock) may legitimately submit()
  // real work back to the pool — the retry-backoff path does exactly that —
  // and joining here waits the callback out while submissions are still
  // accepted. Setting shutdown_ first instead would race that submit()
  // against the "submit after shutdown" assert and abort on restart-heavy
  // lifecycles (repeated ServiceRuntime start/stop).
  {
    std::unique_lock<std::mutex> lock(mu_);
    timers_stop_ = true;
  }
  timer_cv_.notify_all();
  if (timer_thread_.joinable()) timer_thread_.join();
  // Phase 2: now no thread can enqueue concurrently with shutdown; workers
  // drain whatever the timer callbacks left behind, then exit.
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::submit(std::function<void()> fn) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    IDXL_ASSERT_MSG(!shutdown_, "submit after shutdown");
    queue_.push_back(std::move(fn));
    ++in_flight_;
  }
  work_cv_.notify_one();
}

void ThreadPool::submit_batch(std::vector<std::function<void()>> fns) {
  if (fns.empty()) return;
  const std::size_t n = fns.size();
  {
    std::unique_lock<std::mutex> lock(mu_);
    IDXL_ASSERT_MSG(!shutdown_, "submit after shutdown");
    for (auto& fn : fns) queue_.push_back(std::move(fn));
    in_flight_ += n;
  }
  if (n >= threads_.size()) {
    work_cv_.notify_all();
  } else {
    for (std::size_t i = 0; i < n; ++i) work_cv_.notify_one();
  }
}

uint64_t ThreadPool::submit_after(std::function<void()> fn, uint64_t delay_ms) {
  uint64_t id;
  {
    std::unique_lock<std::mutex> lock(mu_);
    IDXL_ASSERT_MSG(!shutdown_ && !timers_stop_, "submit_after after shutdown");
    id = ++next_timer_id_;
    timers_.push_back(Timer{
        id, std::chrono::steady_clock::now() + std::chrono::milliseconds(delay_ms),
        std::move(fn)});
    ++in_flight_;
    // Lazily start the timer thread: pools that never use timers (the common
    // case) pay nothing.
    if (!timer_thread_.joinable()) timer_thread_ = std::thread([this] { timer_loop(); });
  }
  timer_cv_.notify_one();
  return id;
}

bool ThreadPool::cancel_timer(uint64_t id) {
  std::unique_lock<std::mutex> lock(mu_);
  for (auto it = timers_.begin(); it != timers_.end(); ++it) {
    if (it->id != id) continue;
    timers_.erase(it);
    --in_flight_;
    if (in_flight_ == 0) idle_cv_.notify_all();
    return true;
  }
  return false;
}

void ThreadPool::timer_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (shutdown_ || timers_stop_) {
      // Unexpired timers are dropped, never fired: the process is going
      // away and their in_flight_ reservation with it.
      in_flight_ -= timers_.size();
      timers_.clear();
      if (in_flight_ == 0) idle_cv_.notify_all();
      return;
    }
    if (timers_.empty()) {
      timer_cv_.wait(lock);
      continue;
    }
    auto due = timers_.begin();
    for (auto it = std::next(due); it != timers_.end(); ++it)
      if (it->deadline < due->deadline) due = it;
    const auto now = std::chrono::steady_clock::now();
    if (due->deadline > now) {
      // By value: wait_until re-reads its deadline after waking, and a
      // submit_after on another thread may have reallocated timers_ by then.
      const auto deadline = due->deadline;
      timer_cv_.wait_until(lock, deadline);
      continue;
    }
    auto fn = std::move(due->fn);
    timers_.erase(due);
    // Fire OUTSIDE the lock, on this thread: the callback may submit() work
    // back to the pool, and it must run even when every worker is busy.
    lock.unlock();
    fn();
    fn = nullptr;  // destroy captured state before re-locking
    lock.lock();
    --in_flight_;
    if (in_flight_ == 0) idle_cv_.notify_all();
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  IDXL_ASSERT_MSG(!paused_, "wait_idle on a paused pool would never return");
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::pause() {
  std::unique_lock<std::mutex> lock(mu_);
  paused_ = true;
  // Tasks already picked up run to completion; once executing_ hits zero
  // the pool is deterministically quiescent (the queue just holds).
  idle_cv_.wait(lock, [this] { return executing_ == 0; });
}

void ThreadPool::resume() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

bool ThreadPool::paused() const {
  std::unique_lock<std::mutex> lock(mu_);
  return paused_;
}

std::size_t ThreadPool::queue_depth() const {
  std::unique_lock<std::mutex> lock(mu_);
  return queue_.size();
}

std::size_t ThreadPool::executing() const {
  std::unique_lock<std::mutex> lock(mu_);
  return executing_;
}

void ThreadPool::worker_loop(int worker_id) {
  prof_set_current_worker(worker_id);
  for (;;) {
    std::function<void()> fn;
    {
      std::unique_lock<std::mutex> lock(mu_);
      // Shutdown overrides pause: the destructor drains the queue.
      work_cv_.wait(lock, [this] {
        return shutdown_ || (!paused_ && !queue_.empty());
      });
      if (queue_.empty()) return;  // shutdown with a drained queue
      fn = std::move(queue_.front());
      queue_.pop_front();
      ++executing_;
    }
    fn();
    {
      std::unique_lock<std::mutex> lock(mu_);
      --executing_;
      --in_flight_;
      // pause() waits on executing_ == 0; wait_idle() on in_flight_ == 0.
      if (in_flight_ == 0 || executing_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace idxl
