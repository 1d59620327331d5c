#include "serve/engine.h"

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/index.h"
#include "core/trainer.h"
#include "traj/synthetic.h"

namespace traj2hash::serve {
namespace {

struct Env {
  std::vector<traj::Trajectory> corpus;
  std::unique_ptr<core::Traj2Hash> model;
};

Env MakeEnv(int count = 160) {
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

TEST(QueryEngineTest, ColdStartThenServe) {
  Env env = MakeEnv(40);
  QueryEngine engine(env.model.get(), {.num_threads = 2, .num_shards = 3});
  EXPECT_EQ(engine.size(), 0);
  EXPECT_TRUE(engine.Query(env.corpus[0], 5).neighbors.empty());

  const int id = engine.Insert(env.corpus[0]).value();
  EXPECT_EQ(id, 0);
  const auto result = engine.Query(env.corpus[0], 5);
  ASSERT_EQ(result.neighbors.size(), 1u);
  EXPECT_EQ(result.neighbors[0].index, 0);
  EXPECT_EQ(result.neighbors[0].distance, 0.0);
}

TEST(QueryEngineTest, MatchesSingleIndexFacade) {
  Env env = MakeEnv();
  const std::vector<traj::Trajectory> db(env.corpus.begin(),
                                         env.corpus.begin() + 120);
  core::TrajectoryIndex reference(env.model.get());
  reference.AddAll(db);

  QueryEngine engine(env.model.get(), {.num_threads = 4, .num_shards = 4});
  engine.InsertAll(db);
  ASSERT_EQ(engine.size(), 120);

  const std::vector<traj::Trajectory> queries(env.corpus.begin() + 120,
                                              env.corpus.begin() + 140);
  const auto batched = engine.QueryBatch(queries, 7);
  ASSERT_EQ(batched.size(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    const auto expected = reference.QueryHamming(queries[q], 7);
    const auto single = engine.Query(queries[q], 7);
    ASSERT_EQ(single.neighbors.size(), expected.size());
    ASSERT_EQ(batched[q].neighbors.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(single.neighbors[i].index, expected[i].index);
      EXPECT_DOUBLE_EQ(single.neighbors[i].distance, expected[i].distance);
      EXPECT_EQ(batched[q].neighbors[i].index, expected[i].index);
      EXPECT_DOUBLE_EQ(batched[q].neighbors[i].distance,
                       expected[i].distance);
    }
  }
}

TEST(QueryEngineTest, RecordsPerStageLatency) {
  Env env = MakeEnv(60);
  QueryEngine engine(env.model.get(), {.num_threads = 2, .num_shards = 2});
  engine.InsertAll({env.corpus.begin(), env.corpus.begin() + 40});
  engine.ResetStats();

  const int kQueries = 12;
  for (int q = 0; q < kQueries; ++q) engine.Query(env.corpus[q], 5);
  const ServeStats::Snapshot snapshot = engine.stats();
  for (const Stage stage :
       {Stage::kEncode, Stage::kProbe, Stage::kRank, Stage::kTotal}) {
    EXPECT_EQ(snapshot.Of(stage).count, static_cast<uint64_t>(kQueries))
        << StageName(stage);
  }
  // Encoding dominates a query at this scale; the total must be at least
  // the encode mean and every summary must be internally consistent.
  const auto& total = snapshot.Of(Stage::kTotal);
  EXPECT_GE(total.mean_us, snapshot.Of(Stage::kEncode).mean_us);
  EXPECT_LE(total.p50_us, total.p95_us);
  EXPECT_LE(total.p95_us, total.p99_us);
  EXPECT_FALSE(snapshot.ToString().empty());
}

/// The front-end bit-identity contract (DESIGN.md §15): with coalescing and
/// the result cache enabled, Query and QueryBatch must return exactly what a
/// plain engine returns — on the first pass (cold cache, coalesced encode)
/// and the second (served from the cache).
TEST(QueryEngineTest, FrontendIsBitIdenticalToThePlainEngine) {
  Env env = MakeEnv();
  const std::vector<traj::Trajectory> db(env.corpus.begin(),
                                         env.corpus.begin() + 120);
  const std::vector<traj::Trajectory> queries(env.corpus.begin() + 120,
                                              env.corpus.begin() + 140);
  QueryEngine plain(env.model.get(), {.num_threads = 4, .num_shards = 4});
  QueryEngine frontend(env.model.get(), {.num_threads = 4,
                                         .num_shards = 4,
                                         .enable_coalescing = true,
                                         .max_batch = 4,
                                         .max_wait_us = 100,
                                         .cache_entries = 64});
  ASSERT_TRUE(plain.InsertAll(db).ok());
  ASSERT_TRUE(frontend.InsertAll(db).ok());

  const auto expect_identical = [](const QueryResult& got,
                                   const QueryResult& want, size_t q) {
    ASSERT_TRUE(got.status.ok()) << "query " << q;
    ASSERT_EQ(got.neighbors.size(), want.neighbors.size()) << "query " << q;
    for (size_t i = 0; i < want.neighbors.size(); ++i) {
      EXPECT_EQ(got.neighbors[i].index, want.neighbors[i].index)
          << "query " << q << " rank " << i;
      EXPECT_EQ(got.neighbors[i].distance, want.neighbors[i].distance)
          << "query " << q << " rank " << i;
    }
  };

  std::vector<QueryResult> expected;
  for (const traj::Trajectory& q : queries) expected.push_back(plain.Query(q, 7));
  // Pass 1 misses the cache, pass 2 hits it; both must be bit-identical.
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t q = 0; q < queries.size(); ++q) {
      expect_identical(frontend.Query(queries[q], 7), expected[q], q);
    }
  }
  // QueryBatch (pool tasks on the same staged path) agrees too.
  const auto batched = frontend.QueryBatch(queries, 7);
  ASSERT_EQ(batched.size(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    expect_identical(batched[q], expected[q], q);
  }

  const FrontendSnapshot fs = frontend.frontend_stats();
  EXPECT_TRUE(fs.coalescing);
  EXPECT_TRUE(fs.caching);
  // Pass 2 and the batch were pure hits: 2 * queries hits, 1 * queries
  // misses, and the schema invariant holds exactly.
  EXPECT_EQ(fs.cache_lookups, 3 * queries.size());
  EXPECT_EQ(fs.cache_hits, 2 * queries.size());
  EXPECT_EQ(fs.cache_misses, queries.size());
  EXPECT_EQ(fs.cache_hits + fs.cache_misses, fs.cache_lookups);
  EXPECT_EQ(fs.cache_stale, 0u);
  EXPECT_EQ(fs.occupancy.queries,
            fs.cache_misses);  // only misses reach the coalescer

  // QueryRerank is one more input under the same contract. Its results live
  // under their own cache keys: pass 1 misses although Query has already
  // cached every (trajectory, k), and pass 2 hits.
  std::vector<QueryResult> expected_rerank;
  for (const traj::Trajectory& q : queries) {
    expected_rerank.push_back(plain.QueryRerank(q, 7));
  }
  for (size_t pass = 0; pass < 2; ++pass) {
    for (size_t q = 0; q < queries.size(); ++q) {
      expect_identical(frontend.QueryRerank(queries[q], 7), expected_rerank[q],
                       q);
    }
    const FrontendSnapshot after = frontend.frontend_stats();
    EXPECT_EQ(after.cache_misses, fs.cache_misses + queries.size())
        << "pass " << pass;
    EXPECT_EQ(after.cache_hits, fs.cache_hits + pass * queries.size())
        << "pass " << pass;
    EXPECT_EQ(after.occupancy.queries, after.cache_misses) << "pass " << pass;
  }
}

/// Stage accounting (DESIGN.md §7): on every entry point, each executed
/// request adds exactly one sample to each of encode, probe, rank and total,
/// and each cache hit adds one total sample only. One worker keeps the
/// counts deterministic.
TEST(QueryEngineTest, EveryEntryPointRecordsTheSameStages) {
  Env env = MakeEnv(60);
  const std::vector<traj::Trajectory> queries(env.corpus.begin() + 40,
                                              env.corpus.begin() + 45);
  const uint64_t n = queries.size();
  for (const int cache_entries : {0, 64}) {
    QueryEngine engine(env.model.get(), {.num_threads = 1,
                                         .num_shards = 2,
                                         .cache_entries = cache_entries});
    ASSERT_TRUE(
        engine.InsertAll({env.corpus.begin(), env.corpus.begin() + 40}).ok());
    // Every entry point below serves the queries twice; the second pass
    // hits when the cache is on.
    const uint64_t hits = cache_entries > 0 ? n : 0;
    const auto expect_counts = [&engine, n, hits](const char* entry_point) {
      const ServeStats::Snapshot snapshot = engine.stats();
      for (const Stage stage : {Stage::kEncode, Stage::kProbe, Stage::kRank}) {
        EXPECT_EQ(snapshot.Of(stage).count, 2 * n - hits)
            << entry_point << " " << StageName(stage);
      }
      EXPECT_EQ(snapshot.Of(Stage::kTotal).count, 2 * n) << entry_point;
      engine.ResetStats();
    };

    for (int pass = 0; pass < 2; ++pass) {
      for (const traj::Trajectory& q : queries) {
        ASSERT_TRUE(engine.Query(q, 5).complete);
      }
    }
    expect_counts("Query");
    for (int pass = 0; pass < 2; ++pass) {
      for (const traj::Trajectory& q : queries) {
        ASSERT_TRUE(engine.QueryRerank(q, 5).complete);
      }
    }
    expect_counts("QueryRerank");
    // k = 3, so no batch query finds an entry cached by Query above.
    for (int pass = 0; pass < 2; ++pass) {
      for (const QueryResult& r : engine.QueryBatch(queries, 3)) {
        ASSERT_TRUE(r.complete);
      }
    }
    expect_counts("QueryBatch");
  }
}

/// The concurrency invariant test of the ISSUE: writers keep inserting while
/// readers keep querying; every result must be internally consistent (sorted,
/// unique, in-bounds ids) at whatever size the index had mid-flight. Run
/// under -DT2H_SANITIZE=thread this doubles as the TSan scenario.
TEST(QueryEngineTest, ConcurrentInsertAndQueryKeepInvariants) {
  Env env = MakeEnv(200);
  QueryEngine engine(env.model.get(), {.num_threads = 4, .num_shards = 4});
  // Seed the index so early queries have data.
  engine.InsertAll({env.corpus.begin(), env.corpus.begin() + 20});

  constexpr int kWriters = 2;
  constexpr int kReaders = 3;
  constexpr int kPerWriter = 40;
  constexpr int kPerReader = 30;
  std::atomic<bool> failed{false};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&engine, &env, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        engine.Insert(env.corpus[20 + w * kPerWriter + i]);
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&engine, &env, &failed, r] {
      for (int i = 0; i < kPerReader; ++i) {
        const int k = 1 + (i % 9);
        const auto result =
            engine.Query(env.corpus[100 + (r * kPerReader + i) % 100], k);
        const auto& hits = result.neighbors;
        if (static_cast<int>(hits.size()) > k) failed = true;
        const int size_after = engine.size();
        for (size_t j = 0; j < hits.size(); ++j) {
          if (hits[j].index < 0 || hits[j].index >= size_after) failed = true;
          if (j > 0 && !search::NeighborLess(hits[j - 1], hits[j])) {
            failed = true;  // strict (distance, id) order implies uniqueness
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(engine.size(), 20 + kWriters * kPerWriter);

  // After the dust settles the engine agrees with a fresh reference index
  // on everything that was inserted (ids differ by insertion race, so only
  // sizes and self-retrieval are checked).
  const auto self = engine.Query(env.corpus[25], 1);
  ASSERT_EQ(self.neighbors.size(), 1u);
  EXPECT_EQ(self.neighbors[0].distance, 0.0);
}

}  // namespace
}  // namespace traj2hash::serve
