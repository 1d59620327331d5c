// Unit tests for serve::BatchCoalescer (DESIGN.md §15): bit-identity of
// coalesced codes against the uncoalesced HashCode path, each flush cause
// (full batch / bounded wait / idle pool), and the deadline guard that keeps
// the bounded wait from eating a query's latency budget.
#include "serve/coalescer.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "search/code.h"
#include "traj/synthetic.h"

namespace traj2hash::serve {
namespace {

struct Env {
  std::vector<traj::Trajectory> corpus;
  std::unique_ptr<core::Traj2Hash> model;
};

Env MakeEnv(int count = 40) {
  Env env;
  Rng rng(23);
  traj::CityConfig city = traj::CityConfig::PortoLike();
  city.max_points = 12;
  env.corpus = GenerateTrips(city, count, rng);
  core::Traj2HashConfig cfg;
  cfg.dim = 8;
  cfg.num_blocks = 1;
  cfg.num_heads = 2;
  env.model = std::move(core::Traj2Hash::Create(cfg, env.corpus, rng).value());
  return env;
}

TEST(BatchCoalescerTest, LoneQueryFlushesIdleWithoutWaiting) {
  Env env = MakeEnv();
  ThreadPool pool(2);
  // An hour-long bounded wait: if the idle flush did not fire, this test
  // would hang instead of passing by luck.
  BatchCoalescer coalescer(env.model.get(), &pool,
                           {.max_batch = 8, .max_wait_us = 3'600'000'000});
  coalescer.BeginApproach();
  const search::Code code =
      search::PackSigns(coalescer.Embed(env.corpus[0], Deadline()));
  EXPECT_EQ(code.words, env.model->HashCode(env.corpus[0]).words);
  EXPECT_EQ(coalescer.flushes_idle(), 1u);
  EXPECT_EQ(coalescer.flushes_full(), 0u);
  EXPECT_EQ(coalescer.flushes_deadline(), 0u);
  const OccupancyHistogram::Summary occ = coalescer.occupancy();
  EXPECT_EQ(occ.batches, 1u);
  EXPECT_EQ(occ.queries, 1u);
  EXPECT_EQ(occ.p50, 1);
}

TEST(BatchCoalescerTest, FullBatchCoalescesBitIdentically) {
  Env env = MakeEnv();
  ThreadPool pool(2);
  constexpr int kBatch = 6;
  BatchCoalescer coalescer(env.model.get(), &pool,
                           {.max_batch = kBatch, .max_wait_us = 3'600'000'000});
  // Announce every query before any thread encodes: the leader then knows
  // more arrivals are en route and waits for the full batch.
  for (int i = 0; i < kBatch; ++i) coalescer.BeginApproach();
  std::vector<search::Code> codes(kBatch);
  std::vector<std::thread> threads;
  for (int i = 0; i < kBatch; ++i) {
    threads.emplace_back([&, i] {
      codes[i] =
          search::PackSigns(coalescer.Embed(env.corpus[i], Deadline()));
    });
  }
  for (std::thread& t : threads) t.join();

  for (int i = 0; i < kBatch; ++i) {
    EXPECT_EQ(codes[i].words, env.model->HashCode(env.corpus[i]).words)
        << "query " << i;
  }
  EXPECT_EQ(coalescer.flushes_full(), 1u);
  const OccupancyHistogram::Summary occ = coalescer.occupancy();
  EXPECT_EQ(occ.batches, 1u);
  EXPECT_EQ(occ.queries, static_cast<uint64_t>(kBatch));
  EXPECT_EQ(occ.p50, kBatch);
  EXPECT_EQ(occ.max, kBatch);
}

TEST(BatchCoalescerTest, BoundedWaitFlushesWhenArrivalsStall) {
  Env env = MakeEnv();
  ThreadPool pool(2);
  BatchCoalescer coalescer(env.model.get(), &pool,
                           {.max_batch = 8, .max_wait_us = 2'000});
  // A second query is announced but never arrives: the idle flush cannot
  // fire, so the leader must give up at max_wait.
  coalescer.BeginApproach();  // the no-show
  coalescer.BeginApproach();
  const auto start = std::chrono::steady_clock::now();
  const search::Code code =
      search::PackSigns(coalescer.Embed(env.corpus[0], Deadline()));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  coalescer.EndApproach();  // withdraw the no-show

  EXPECT_EQ(code.words, env.model->HashCode(env.corpus[0]).words);
  EXPECT_EQ(coalescer.flushes_deadline(), 1u);
  EXPECT_GE(std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
                .count(),
            2'000);
}

TEST(BatchCoalescerTest, QueryDeadlineCapsTheBoundedWait) {
  Env env = MakeEnv();
  ThreadPool pool(2);
  // max_wait is effectively infinite; only the query's own deadline (minus
  // the margin) can end the wait.
  BatchCoalescer coalescer(
      env.model.get(), &pool,
      {.max_batch = 8, .max_wait_us = 3'600'000'000, .deadline_margin_us = 100});
  coalescer.BeginApproach();  // a no-show keeps the idle flush from firing
  coalescer.BeginApproach();
  const auto start = std::chrono::steady_clock::now();
  const search::Code code =
      search::PackSigns(
          coalescer.Embed(env.corpus[0], Deadline::AfterMillis(50)));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  coalescer.EndApproach();

  EXPECT_EQ(code.words, env.model->HashCode(env.corpus[0]).words);
  EXPECT_EQ(coalescer.flushes_deadline(), 1u);
  // Flushed around the deadline, far before the hour-long max_wait.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            5'000);
}

TEST(BatchCoalescerTest, GenerationsPipelineAcrossManyThreads) {
  Env env = MakeEnv();
  ThreadPool pool(4);
  BatchCoalescer coalescer(env.model.get(), &pool,
                           {.max_batch = 4, .max_wait_us = 500});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const traj::Trajectory& q =
            env.corpus[(t * kPerThread + i) % env.corpus.size()];
        coalescer.BeginApproach();
        const search::Code code =
            search::PackSigns(coalescer.Embed(q, Deadline()));
        if (code.words != env.model->HashCode(q).words) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  const OccupancyHistogram::Summary occ = coalescer.occupancy();
  EXPECT_EQ(occ.queries, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_GE(occ.batches, 1u);
  EXPECT_LE(occ.batches, occ.queries);
  EXPECT_EQ(coalescer.flushes_full() + coalescer.flushes_deadline() +
                coalescer.flushes_idle(),
            occ.batches);
}

}  // namespace
}  // namespace traj2hash::serve
