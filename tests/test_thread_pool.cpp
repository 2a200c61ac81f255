// common::parallel_shards: every shard runs exactly once, the first
// exception reaches the caller, and no pool worker touches the caller's
// frame after the call returns.  The lifetime cases overwrite the stack
// region the call used right after it returns; a worker still locking the
// completion mutex there then reads garbage: a glibc assertion or a hang
// (turned into an abort by a watchdog) here, a stack-use-after-return
// report under ASan with detect_stack_use_after_return=1, a race report
// under TSan.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace {

using pmbist::common::parallel_shards;

/// Writes a non-zero pattern over the stack below the caller: the region
/// parallel_shards' frame just occupied.
[[gnu::noinline]] void scribble_stack() {
  unsigned char junk[16384];
  std::memset(junk, 0xA5, sizeof junk);
  // Keep the writes observable so they are not optimized away.
  asm volatile("" : : "r"(junk) : "memory");
}

/// Runs `body`, aborting the process if it has not returned within
/// `limit`: a pool worker blocked on a scribbled mutex hangs the next
/// call rather than crashing it.
template <class Body>
void with_watchdog(std::chrono::seconds limit, const Body& body) {
  std::mutex mu;
  std::condition_variable cv;
  bool finished = false;
  std::thread dog{[&] {
    std::unique_lock lock{mu};
    if (!cv.wait_for(lock, limit, [&] { return finished; })) {
      std::fputs("parallel_shards hung: a worker is stuck on a dead frame\n",
                 stderr);
      std::abort();
    }
  }};
  body();
  {
    std::lock_guard lock{mu};
    finished = true;
  }
  cv.notify_one();
  dog.join();
}

TEST(ParallelShards, RunsEveryShardOnce) {
  for (const int jobs : {1, 2, 4, 8}) {
    std::vector<std::atomic<int>> hits(37);
    parallel_shards(jobs, 37, [&](int shard) {
      hits[static_cast<std::size_t>(shard)].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "jobs=" << jobs;
  }
}

TEST(ParallelShards, NoShardsIsANoOp) {
  parallel_shards(4, 0, [](int) { FAIL() << "no shard should run"; });
}

TEST(ParallelShards, CallerFrameIsDeadAfterReturn) {
  with_watchdog(std::chrono::seconds{120}, [] {
    for (int i = 0; i < 40000; ++i) {
      std::atomic<int> sum{0};
      parallel_shards(4, 4, [&](int shard) { sum.fetch_add(shard + 1); });
      ASSERT_EQ(sum.load(), 10) << "iteration " << i;
      scribble_stack();
    }
  });
}

TEST(ParallelShards, ThrowingShardReachesTheCallerAndFrameIsDead) {
  with_watchdog(std::chrono::seconds{120}, [] {
    for (int i = 0; i < 10000; ++i) {
      std::atomic<int> ran{0};
      EXPECT_THROW(parallel_shards(4, 4,
                                   [&](int shard) {
                                     ran.fetch_add(1);
                                     if (shard == 2)
                                       throw std::runtime_error{"shard 2"};
                                   }),
                   std::runtime_error);
      // Siblings keep draining after the throw.
      ASSERT_EQ(ran.load(), 4) << "iteration " << i;
      scribble_stack();
    }
  });
}

}  // namespace
