// Fixed-size worker pool over a FIFO work queue.
//
// The experiment executor shards independent Monte-Carlo trials across these
// workers; nothing about the pool is experiment-specific, so it is equally
// usable for any embarrassingly parallel sweep (see bench_figures scalability).
//
// Shutdown is graceful by construction: the destructor lets every task that
// was already submitted run to completion before the workers join. Dropping
// queued work on the floor would silently truncate an experiment, which is
// strictly worse than finishing late.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace cfds::runner {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means one per hardware thread.
  explicit ThreadPool(unsigned threads = 0);

  /// Drains every submitted task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; the future becomes ready when it has run (and carries
  /// any exception the task threw).
  std::future<void> submit(std::function<void()> task);

  /// Runs body(0) .. body(count-1) across the pool and waits for all of
  /// them. Rethrows the first failure only after every iteration finished,
  /// so `body` never dangles behind a still-running worker.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& body);

  [[nodiscard]] unsigned size() const { return unsigned(workers_.size()); }

  /// std::thread::hardware_concurrency with a floor of 1.
  [[nodiscard]] static unsigned hardware_threads();

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace cfds::runner
