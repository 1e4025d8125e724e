#include "exp/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <utility>

namespace utilrisk::exp {

std::size_t default_worker_count() {
  if (const char* env = std::getenv("REPRO_JOBS_PAR")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

// ------------------------------------------------------------- ThreadPool

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) workers = 1;
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back(
        [this](std::stop_token stop) { worker_loop(stop); });
  }
}

ThreadPool::~ThreadPool() = default;
// jthread joins on destruction after requesting stop; worker_loop drains
// the queue before honouring the stop request, and workers_ is the last
// member, so queued tasks never observe destroyed pool state.

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::worker_loop(std::stop_token stop) {
  std::unique_lock lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, stop, [this] { return !queue_.empty(); });
    if (queue_.empty()) return;  // stop requested and nothing left to drain
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    ++active_;
    lock.unlock();
    task();
    lock.lock();
    --active_;
    if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
  }
}

void parallel_for_index(
    ThreadPool& pool, std::size_t count,
    const std::function<void(std::size_t worker, std::size_t index)>& fn) {
  if (count == 0) return;
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const std::size_t workers = std::min(pool.worker_count(), count);
  for (std::size_t worker = 0; worker < workers; ++worker) {
    pool.submit([&, worker] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        try {
          fn(worker, i);
        } catch (...) {
          std::lock_guard lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
      }
    });
  }
  pool.wait_idle();  // barrier: the caller reads every result after this
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace utilrisk::exp
