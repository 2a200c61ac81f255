#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

namespace pmbist::common {

int resolve_jobs(int jobs) {
  if (jobs > 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

struct ThreadPool::Impl {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::function<void()>> queue;
  std::vector<std::thread> workers;
  bool stopping = false;

  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock lock{mu};
        cv.wait(lock, [&] { return stopping || !queue.empty(); });
        if (stopping && queue.empty()) return;
        task = std::move(queue.front());
        queue.pop_front();
      }
      task();
    }
  }
};

ThreadPool::ThreadPool(int num_threads) : impl_{new Impl} {
  num_threads = std::max(1, num_threads);
  impl_->workers.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i)
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock{impl_->mu};
    impl_->stopping = true;
  }
  impl_->cv.notify_all();
  for (auto& w : impl_->workers) w.join();
  delete impl_;
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock{impl_->mu};
    impl_->queue.push_back(std::move(task));
  }
  impl_->cv.notify_one();
}

int ThreadPool::size() const noexcept {
  return static_cast<int>(impl_->workers.size());
}

ThreadPool& shared_pool() {
  // Intentionally leaked: workers must outlive every campaign, and a
  // static destructor joining threads at exit can deadlock with atexit
  // ordering.  resolve_jobs(0) == hardware concurrency.
  static ThreadPool* pool = new ThreadPool{resolve_jobs(0)};
  return *pool;
}

void parallel_shards(int jobs, int num_shards,
                     const std::function<void(int)>& fn) {
  if (num_shards <= 0) return;
  jobs = std::min(resolve_jobs(jobs), num_shards);

  std::atomic<int> next{0};
  std::once_flag error_once;
  std::exception_ptr error;
  auto drain = [&] {
    for (int shard; (shard = next.fetch_add(1)) < num_shards;) {
      try {
        fn(shard);
      } catch (...) {
        std::call_once(error_once, [&] { error = std::current_exception(); });
        // Keep claiming shards so siblings terminate; work after an error
        // is discarded by the rethrow below.
      }
    }
  };

  if (jobs <= 1) {
    drain();
  } else {
    // jobs-1 pool workers plus the calling thread.  Everything the tasks
    // touch lives in this frame, so a worker's last access must happen
    // before the caller can see pending == 0: it decrements and notifies
    // under the lock, and the caller cannot return until it is released.
    int pending = jobs - 1;  // guarded by mu
    std::mutex mu;
    std::condition_variable done;
    for (int w = 1; w < jobs; ++w) {
      shared_pool().submit([&] {
        drain();
        std::lock_guard lock{mu};
        if (--pending == 0) done.notify_one();
      });
    }
    drain();
    std::unique_lock lock{mu};
    done.wait(lock, [&] { return pending == 0; });
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace pmbist::common
