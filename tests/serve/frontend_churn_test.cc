// The front-end acceptance tests (ISSUE: coalescing + caching): a cached,
// coalescing QueryEngine under live churn must stay bit-identical to a
// brute-force oracle over the logical corpus — deletes take effect
// immediately, no query ever observes results older than its admission
// epoch. Sequential oracle checks run for every (shards, strategy) combo;
// CoalescerCacheChurnStress is the TSan scenario (tools/check.sh tsan lane
// repeats it), using the oracle-at-observed-epoch technique: exactness is
// asserted whenever the mutation epoch did not move across a query.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "search/code.h"
#include "serve/engine.h"
#include "traj/synthetic.h"

namespace traj2hash::serve {
namespace {

struct Env {
  std::vector<traj::Trajectory> corpus;
  std::unique_ptr<core::Traj2Hash> model;
};

Env MakeEnv(int count = 220) {
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

/// Brute-force truth over the live ids' codes, in the repo-wide
/// (distance, id) order — what every engine configuration must reproduce.
std::vector<search::Neighbor> Oracle(
    const std::map<int, search::Code>& live, const search::Code& query,
    int k) {
  std::vector<search::Neighbor> all;
  for (const auto& [id, code] : live) {
    all.push_back(
        {id, static_cast<double>(search::HammingDistance(code, query))});
  }
  std::sort(all.begin(), all.end(), search::NeighborLess);
  if (static_cast<int>(all.size()) > k) all.resize(k);
  return all;
}

/// Exact equality of two ranked lists: same ids, same distances, same order.
bool SameNeighbors(const std::vector<search::Neighbor>& got,
                   const std::vector<search::Neighbor>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < want.size(); ++i) {
    if (got[i].index != want[i].index || got[i].distance != want[i].distance) {
      return false;
    }
  }
  return true;
}

/// Strict (distance, id) order, which also implies unique ids.
bool IsStrictlyOrdered(const std::vector<search::Neighbor>& hits) {
  for (size_t i = 1; i < hits.size(); ++i) {
    if (!search::NeighborLess(hits[i - 1], hits[i])) return false;
  }
  return true;
}

/// QueryEngine's default per-shard re-rank candidate count.
int RerankCandidates(int k) { return std::max(8 * k, 64); }

class FrontendChurnTest
    : public ::testing::TestWithParam<
          std::tuple<int, search::SearchStrategy>> {};

INSTANTIATE_TEST_SUITE_P(
    ShardCountsAndStrategies, FrontendChurnTest,
    ::testing::Combine(::testing::Values(1, 4),
                       ::testing::Values(search::SearchStrategy::kBrute,
                                         search::SearchStrategy::kRadius2,
                                         search::SearchStrategy::kMih)));

TEST_P(FrontendChurnTest, CachedResultsMatchBruteForceOracleUnderChurn) {
  const auto [num_shards, strategy] = GetParam();
  Env env = MakeEnv();
  QueryEngine engine(env.model.get(),
                     {.num_threads = 2,
                      .num_shards = num_shards,
                      .strategy = strategy,
                      // Aggressive compaction so base installs (which also
                      // advance the epoch) happen mid-test.
                      .compact_min_ops = 6,
                      .compact_ratio = 0.2,
                      .enable_coalescing = true,
                      .max_batch = 4,
                      .max_wait_us = 100,
                      .cache_entries = 32});
  std::map<int, search::Code> live;
  // A small rotating query set so repeats hit the cache — and churn between
  // repeats forces the stale-drop path.
  const int kQueryPool = 8;
  Rng rng(300 + num_shards);
  int next_corpus = 0;

  for (int step = 0; step < 180; ++step) {
    const double dice = rng.Uniform(0.0, 1.0);
    if ((dice < 0.55 || live.empty()) &&
        next_corpus < static_cast<int>(env.corpus.size())) {
      const traj::Trajectory& t = env.corpus[next_corpus++];
      const Result<int> id = engine.Insert(t);
      ASSERT_TRUE(id.ok());
      live[id.value()] = env.model->HashCode(t);
    } else if (dice < 0.75) {
      const int victim = std::next(live.begin(), step % live.size())->first;
      ASSERT_TRUE(engine.Remove(victim).ok());
      live.erase(victim);
    } else if (dice < 0.95 && next_corpus < static_cast<int>(env.corpus.size())) {
      const int victim = std::next(live.begin(), step % live.size())->first;
      const traj::Trajectory& t = env.corpus[next_corpus++];
      ASSERT_TRUE(engine.Update(victim, t).ok());
      live[victim] = env.model->HashCode(t);
    }

    // The same (query, k) cache key twice per step: the first call misses
    // (churn advanced the epoch) and repopulates, the second usually hits —
    // and a hit must still be oracle-exact. The key cycles with period
    // lcm(kQueryPool, 4) = 8 steps, well inside the cache capacity, so the
    // revisit 8 steps later finds the entry and drops it as stale.
    const traj::Trajectory& query = env.corpus[step % kQueryPool];
    const int k = 1 + step % 4;
    for (int repeat = 0; repeat < 2; ++repeat) {
      const QueryResult got = engine.Query(query, k);
      ASSERT_TRUE(got.status.ok()) << "step " << step;
      const auto want = Oracle(live, env.model->HashCode(query), k);
      ASSERT_EQ(got.neighbors.size(), want.size())
          << "step " << step << " repeat " << repeat;
      for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got.neighbors[i].index, want[i].index)
            << "step " << step << " repeat " << repeat << " rank " << i;
        ASSERT_EQ(got.neighbors[i].distance, want[i].distance)
            << "step " << step << " repeat " << repeat << " rank " << i;
      }
    }
  }

  // The rotating query set must have produced real cache traffic, and the
  // counters must satisfy the schema invariants.
  const FrontendSnapshot fs = engine.frontend_stats();
  EXPECT_TRUE(fs.coalescing);
  EXPECT_TRUE(fs.caching);
  EXPECT_GT(fs.cache_lookups, 0u);
  EXPECT_GT(fs.cache_hits, 0u);
  EXPECT_GT(fs.cache_stale, 0u) << "churn between repeats must drop entries";
  EXPECT_EQ(fs.cache_hits + fs.cache_misses, fs.cache_lookups);
  EXPECT_LE(fs.cache_stale, fs.cache_misses);
  EXPECT_GT(fs.epoch, 0u);
}

/// The TSan stress (tools/check.sh tsan lane repeats this): one mutator
/// churns the engine while reader threads query through the coalescer and
/// the cache. The mutator keeps the logical truth beside the engine under a
/// mutex; a reader snapshots (truth, epoch) before its query and re-reads
/// the epoch after — when the epoch did not move, the engine's answer must
/// equal the oracle's bit for bit (so no reader can ever observe a result
/// older than its admission epoch); when it did, only internal consistency
/// is asserted. A quiesced exact sweep closes the test.
TEST(FrontendStressTest, CoalescerCacheChurnStress) {
  Env env = MakeEnv(400);
  QueryEngine engine(env.model.get(),
                     {.num_threads = 4,
                      .num_shards = 4,
                      .compact_min_ops = 8,
                      .compact_ratio = 0.2,
                      .enable_coalescing = true,
                      .max_batch = 4,
                      .max_wait_us = 200,
                      .cache_entries = 64});

  std::mutex truth_mu;
  std::map<int, search::Code> truth;
  // Seed so early readers have data.
  for (int i = 0; i < 40; ++i) {
    const Result<int> id = engine.Insert(env.corpus[i]);
    ASSERT_TRUE(id.ok());
    truth[id.value()] = env.model->HashCode(env.corpus[i]);
  }

  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::atomic<int> exact_checks{0};

  std::thread mutator([&] {
    Rng rng(52);
    int next_corpus = 40;
    for (int i = 0; i < 300; ++i) {
      // Breathe between mutations so readers regularly observe a stable
      // epoch — otherwise the exact-check branch would starve.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      const double dice = rng.Uniform(0.0, 1.0);
      std::lock_guard<std::mutex> lock(truth_mu);
      if ((dice < 0.5 || truth.empty()) &&
          next_corpus < static_cast<int>(env.corpus.size())) {
        const traj::Trajectory& t = env.corpus[next_corpus++];
        const Result<int> id = engine.Insert(t);
        if (id.ok()) truth[id.value()] = env.model->HashCode(t);
      } else if (dice < 0.75 && !truth.empty()) {
        const int victim = std::next(truth.begin(), i % truth.size())->first;
        if (engine.Remove(victim).ok()) truth.erase(victim);
      } else if (!truth.empty() &&
                 next_corpus < static_cast<int>(env.corpus.size())) {
        const int victim = std::next(truth.begin(), i % truth.size())->first;
        const traj::Trajectory& t = env.corpus[next_corpus++];
        if (engine.Update(victim, t).ok()) {
          truth[victim] = env.model->HashCode(t);
        }
      }
    }
    stop.store(true, std::memory_order_release);
  });

  // A small hot query pool maximises cache + single-flight contention. Each
  // reader walks the pool once per entry point in turn: Query, QueryRerank,
  // then QueryBatch over two pool queries.
  constexpr int kReaders = 3;
  constexpr int kQueryPool = 6;
  // Encoded up front, so the re-rank oracle adds no encode to the window
  // across which the epoch must hold still.
  std::vector<std::vector<float>> pool_embeddings;
  for (int q = 0; q < kQueryPool; ++q) {
    pool_embeddings.push_back(env.model->Embed(env.corpus[q]));
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      int q = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const int entry_point = (q / kQueryPool) % 3;
        const int asked[2] = {q % kQueryPool, (q + 1) % kQueryPool};
        const traj::Trajectory& query = env.corpus[asked[0]];
        ++q;
        const int k = 1 + q % 7;
        std::map<int, search::Code> snapshot;
        uint64_t epoch_before = 0;
        {
          std::lock_guard<std::mutex> lock(truth_mu);
          snapshot = truth;
          epoch_before = engine.mutation_epoch();
        }
        std::vector<QueryResult> got;
        std::vector<search::Neighbor> rerank_want;
        if (entry_point == 0) {
          got.push_back(engine.Query(query, k));
        } else if (entry_point == 1) {
          got.push_back(engine.QueryRerank(query, k));
          // The re-rank oracle is the index's own fan-out, taken before the
          // epoch re-read so an unmoved epoch covers both answers.
          const std::vector<float>& embedding = pool_embeddings[asked[0]];
          rerank_want = engine.index().QueryRerankTopK(
              search::PackSigns(embedding), embedding, k,
              RerankCandidates(k));
        } else {
          got = engine.QueryBatch({query, env.corpus[asked[1]]}, k);
        }
        const uint64_t epoch_after = engine.mutation_epoch();
        bool consistent = true;
        for (const QueryResult& result : got) {
          // Internal consistency always: OK, sorted, unique, at most k.
          consistent &= result.status.ok() &&
                        static_cast<int>(result.neighbors.size()) <= k &&
                        IsStrictlyOrdered(result.neighbors);
        }
        if (!consistent) {
          errors.fetch_add(1);
          continue;
        }
        if (epoch_after != epoch_before) continue;
        // The epoch held still across the query (mutations and compaction
        // installs both advance it): the answer must equal the oracle over
        // the snapshot — a cached or flight-served result from an older
        // epoch would be caught right here.
        exact_checks.fetch_add(1);
        for (size_t j = 0; j < got.size(); ++j) {
          const auto want =
              entry_point == 1
                  ? rerank_want
                  : Oracle(snapshot,
                           search::PackSigns(pool_embeddings[asked[j]]), k);
          if (!SameNeighbors(got[j].neighbors, want)) errors.fetch_add(1);
        }
      }
    });
  }

  mutator.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_GT(exact_checks.load(), 0) << "the stress never observed a stable "
                                       "epoch; exactness was not exercised";

  // Quiesced: every pool query must now be exact (and cacheable).
  std::map<int, search::Code> live;
  {
    std::lock_guard<std::mutex> lock(truth_mu);
    live = truth;
  }
  for (int pass = 0; pass < 2; ++pass) {  // second pass serves from cache
    for (int q = 0; q < kQueryPool; ++q) {
      const traj::Trajectory& query = env.corpus[q];
      const QueryResult got = engine.Query(query, 5);
      ASSERT_TRUE(got.status.ok());
      const auto want = Oracle(live, env.model->HashCode(query), 5);
      ASSERT_EQ(got.neighbors.size(), want.size()) << "query " << q;
      for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got.neighbors[i].index, want[i].index);
        ASSERT_EQ(got.neighbors[i].distance, want[i].distance);
      }
      const std::vector<float>& embedding = pool_embeddings[q];
      EXPECT_TRUE(SameNeighbors(
          engine.QueryRerank(query, 5).neighbors,
          engine.index().QueryRerankTopK(search::PackSigns(embedding),
                                         embedding, 5, RerankCandidates(5))))
          << "re-rank query " << q;
    }
    const std::vector<QueryResult> batched = engine.QueryBatch(
        {env.corpus.begin(), env.corpus.begin() + kQueryPool}, 5);
    for (int q = 0; q < kQueryPool; ++q) {
      EXPECT_TRUE(SameNeighbors(
          batched[q].neighbors,
          Oracle(live, search::PackSigns(pool_embeddings[q]), 5)))
          << "batched query " << q;
    }
  }
  const FrontendSnapshot fs = engine.frontend_stats();
  EXPECT_EQ(fs.cache_hits + fs.cache_misses, fs.cache_lookups);
  EXPECT_LE(fs.cache_stale, fs.cache_misses);
}

}  // namespace
}  // namespace traj2hash::serve
