#include "common/thread_pool.h"

#include <atomic>
#include <latch>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace traj2hash::serve {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 1000; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    // Destructor drains the queue before joining.
  }
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPoolTest, RunAllBlocksUntilAllTasksFinish) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 64; ++i) {
    tasks.push_back([&counter] { counter.fetch_add(1); });
  }
  pool.RunAll(std::move(tasks));
  // No sleep/poll: RunAll returning proves completion.
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPoolTest, RunAllWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.RunAll({});
  EXPECT_EQ(pool.num_threads(), 2);
}

TEST(ThreadPoolTest, WorkSpreadsAcrossWorkers) {
  // As many tasks as workers, each waiting for all of them to have started:
  // the rendezvous can only complete if every worker picked up exactly one
  // task, so the check is deterministic even on a single-core machine.
  constexpr int kThreads = 4;
  ThreadPool pool(kThreads);
  std::latch all_started(kThreads);
  std::mutex mu;
  std::set<std::thread::id> seen;
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < kThreads; ++i) {
    tasks.push_back([&all_started, &mu, &seen] {
      {
        std::lock_guard<std::mutex> lock(mu);
        seen.insert(std::this_thread::get_id());
      }
      all_started.arrive_and_wait();
    });
  }
  pool.RunAll(std::move(tasks));
  EXPECT_EQ(seen.size(), static_cast<size_t>(kThreads));
}

TEST(ThreadPoolTest, ConcurrentExternalSubmitters) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    std::vector<std::thread> submitters;
    for (int t = 0; t < 4; ++t) {
      submitters.emplace_back([&pool, &counter] {
        for (int i = 0; i < 200; ++i) {
          pool.Submit([&counter] { counter.fetch_add(1); });
        }
      });
    }
    for (std::thread& t : submitters) t.join();
    // Pool destruction drains everything the submitters queued.
  }
  EXPECT_EQ(counter.load(), 800);
}

TEST(ThreadPoolTest, SingleThreadPoolStillCompletes) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 32; ++i) tasks.push_back([&counter] { ++counter; });
  pool.RunAll(std::move(tasks));
  EXPECT_EQ(counter.load(), 32);
}

}  // namespace
}  // namespace traj2hash::serve
