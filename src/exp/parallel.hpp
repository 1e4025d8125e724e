// Thread-pool fan-out of independent work items.
//
// Every figure of the paper reduces hundreds of *independent*
// single-threaded simulation runs (scenario x policy x value x seed), so
// the experiment layer — not the kernel — is where parallelism lives
// (DESIGN.md §4 "threading model"). parallel_for_index is the one fan-out
// loop: the run-matrix executor (exp::ExperimentRunner), the golden-digest
// harness (verify::compute_golden) and exp::replicate all go through it,
// at every worker count including 1. Results land at their index, so the
// output never depends on the worker count or on scheduling.
//
// The worker count resolves, in order: explicit argument >
// REPRO_JOBS_PAR env var > std::thread::hardware_concurrency().
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace utilrisk::exp {

/// REPRO_JOBS_PAR if set to a positive integer, else
/// hardware_concurrency() (at least 1).
[[nodiscard]] std::size_t default_worker_count();

/// Fixed-size worker pool: std::jthread workers draining a mutex/condvar
/// task queue. Tasks must not throw (parallel_for_index catches and
/// re-throws after its barrier); submit() never blocks on task execution.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t workers = default_worker_count());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for the next free worker.
  void submit(std::function<void()> task);

  /// Barrier: returns once the queue is drained and no task is running.
  void wait_idle();

  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }

  /// Workers currently executing a task (diagnostic; e.g. the sweep
  /// progress reporter's "workers busy" figure).
  [[nodiscard]] std::size_t active_count() const {
    std::lock_guard lock(mutex_);
    return active_;
  }

 private:
  void worker_loop(std::stop_token stop);

  mutable std::mutex mutex_;
  std::condition_variable_any work_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  std::size_t active_ = 0;
  std::vector<std::jthread> workers_;  ///< last member: joins first
};

/// Runs fn(worker, index) for every index in 0..count-1 across the pool
/// (each index exactly once, dynamic load balancing) and returns after
/// all complete. `worker` is in [0, min(pool.worker_count(), count)) and
/// names the pool task that ran the index, for per-worker accounting. The
/// first exception thrown by any index is re-thrown here.
void parallel_for_index(
    ThreadPool& pool, std::size_t count,
    const std::function<void(std::size_t worker, std::size_t index)>& fn);

}  // namespace utilrisk::exp
