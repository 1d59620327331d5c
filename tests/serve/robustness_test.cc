// Fault-injection tests for the fail-safe serving layer (DESIGN.md §11):
// deadline expiry mid-probe, admission-control shedding under a pinned
// burst, crash-safe snapshots (torn writes, bit flips, recovery), and the
// snapshot/rebuild equivalence across every search strategy. Everything is
// driven through common::FaultInjector, so no test depends on real clocks
// or scheduler timing.
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/file_util.h"
#include "replica/replica.h"
#include "replica/router.h"
#include "serve/engine.h"
#include "traj/synthetic.h"

namespace traj2hash::serve {
namespace {

struct Env {
  std::vector<traj::Trajectory> corpus;
  std::unique_ptr<core::Traj2Hash> model;
};

Env MakeEnv(int count = 120) {
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

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void ExpectSorted(const std::vector<search::Neighbor>& hits) {
  for (size_t i = 1; i < hits.size(); ++i) {
    EXPECT_TRUE(search::NeighborLess(hits[i - 1], hits[i]))
        << "result must stay in strict (distance, id) order";
  }
}

// ---------------------------------------------------------------------------
// Deadlines and graceful degradation
// ---------------------------------------------------------------------------

TEST(RobustnessTest, DeadlineExpiryMidProbeReturnsSortedPartial) {
  Env env = MakeEnv();
  QueryEngine engine(env.model.get(), {.num_threads = 1, .num_shards = 4});
  engine.InsertAll({env.corpus.begin(), env.corpus.begin() + 100});

  const QueryResult full = engine.Query(env.corpus[0], 10);
  ASSERT_TRUE(full.complete);
  ASSERT_EQ(full.neighbors.size(), 10u);

  // Force the deadline check to report expiry after two shards probed. The
  // deadline itself is infinite, so only the injector drives the outcome —
  // fully deterministic.
  FaultInjector fi;
  fi.Arm(faults::kShardProbe, /*skip=*/2, /*fire=*/FaultInjector::kForever);
  FaultInjector::Scope scope(&fi);
  const QueryResult partial = engine.Query(env.corpus[0], 10);
  EXPECT_FALSE(partial.complete);
  EXPECT_EQ(partial.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(partial.neighbors.empty()) << "two shards did complete";
  EXPECT_LE(partial.neighbors.size(), 10u);
  ExpectSorted(partial.neighbors);
  // Every partial hit is a genuine database entry with its exact distance:
  // it must appear in the full result or rank beyond its tail.
  for (const search::Neighbor& n : partial.neighbors) {
    EXPECT_GE(n.index, 0);
    EXPECT_LT(n.index, engine.size());
  }
}

TEST(RobustnessTest, DeadlineExpiryWithPartialsDisallowedReturnsEmpty) {
  Env env = MakeEnv(60);
  QueryEngine engine(env.model.get(), {.num_threads = 1, .num_shards = 3});
  engine.InsertAll({env.corpus.begin(), env.corpus.begin() + 50});

  FaultInjector fi;
  fi.Arm(faults::kShardProbe, /*skip=*/1);
  FaultInjector::Scope scope(&fi);
  QueryOptions options;
  options.allow_partial = false;
  const QueryResult result = engine.Query(env.corpus[0], 5, options);
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(result.neighbors.empty());
}

TEST(RobustnessTest, AlreadyExpiredDeadlineFailsFastBeforeEncoding) {
  Env env = MakeEnv(40);
  QueryEngine engine(env.model.get(), {.num_threads = 2, .num_shards = 2});
  engine.InsertAll({env.corpus.begin(), env.corpus.begin() + 30});
  QueryOptions options;
  options.deadline = Deadline::AfterMillis(0);
  const QueryResult result = engine.Query(env.corpus[0], 5, options);
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(result.neighbors.empty());
  const QueryResult rerank = engine.QueryRerank(env.corpus[0], 5, options);
  EXPECT_FALSE(rerank.complete);
  EXPECT_EQ(rerank.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(rerank.neighbors.empty());
  EXPECT_EQ(engine.stats().Of(Stage::kEncode).count, 0u)
      << "an expired query must fail before encoding";
}

TEST(RobustnessTest, MihDeadlineExpiresBetweenRadiusRounds) {
  Env env = MakeEnv();
  QueryEngine engine(env.model.get(),
                     {.num_threads = 1,
                      .num_shards = 2,
                      .strategy = search::SearchStrategy::kMih});
  engine.InsertAll({env.corpus.begin(), env.corpus.begin() + 100});
  // Move the bulk-loaded entries from the per-shard deltas (flat scan, no
  // radius rounds) into the MIH base the radius loop actually probes.
  engine.CompactAll();
  const QueryResult full = engine.Query(env.corpus[3], 8);
  ASSERT_TRUE(full.complete);

  // Let each shard run radius 0, then expire inside the MIH radius loop.
  FaultInjector fi;
  fi.Arm(faults::kMihRadiusRound);
  FaultInjector::Scope scope(&fi);
  const QueryResult partial = engine.Query(env.corpus[3], 8);
  EXPECT_FALSE(partial.complete);
  EXPECT_EQ(partial.status.code(), StatusCode::kDeadlineExceeded);
  ExpectSorted(partial.neighbors);
  EXPECT_GT(fi.fired(faults::kMihRadiusRound), 0);
}

TEST(RobustnessTest, DefaultOptionsBitIdenticalWithAndWithoutDeadlinePlumbing) {
  Env env = MakeEnv();
  QueryEngine engine(env.model.get(), {.num_threads = 4, .num_shards = 4});
  engine.InsertAll({env.corpus.begin(), env.corpus.begin() + 100});
  for (int q = 0; q < 10; ++q) {
    const QueryResult a = engine.Query(env.corpus[q], 7);
    QueryOptions explicit_infinite;
    explicit_infinite.deadline = Deadline::Infinite();
    const QueryResult b = engine.Query(env.corpus[q], 7, explicit_infinite);
    ASSERT_TRUE(a.complete);
    ASSERT_TRUE(b.complete);
    ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
    for (size_t i = 0; i < a.neighbors.size(); ++i) {
      EXPECT_EQ(a.neighbors[i].index, b.neighbors[i].index);
      EXPECT_DOUBLE_EQ(a.neighbors[i].distance, b.neighbors[i].distance);
    }
  }
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

TEST(RobustnessTest, BurstAgainstFullQueueShedsDeterministically) {
  Env env = MakeEnv(60);
  QueryEngine engine(env.model.get(),
                     {.num_threads = 1,
                      .num_shards = 2,
                      .queue_depth = 2,
                      .overload_policy = OverloadPolicy::kReject});
  engine.InsertAll({env.corpus.begin(), env.corpus.begin() + 40});

  // Pin the single worker inside its first probe with a gate, then throw a
  // burst at the engine: admission happens at submission time, so exactly
  // queue_depth queries are admitted and every later arrival sheds.
  FaultInjector fi;
  fi.ArmGate(faults::kShardProbe);
  FaultInjector::Scope scope(&fi);

  constexpr int kBurst = 8;
  const std::vector<traj::Trajectory> burst(env.corpus.begin(),
                                            env.corpus.begin() + kBurst);
  std::vector<QueryResult> results;
  std::thread submitter(
      [&engine, &burst, &results] { results = engine.QueryBatch(burst, 5); });
  // The submission loop finishes (and the shed count settles) while the
  // worker is still parked at the gate; only then release it.
  while (engine.shed_count() < kBurst - 2) std::this_thread::yield();
  EXPECT_EQ(engine.shed_count(), kBurst - 2);
  fi.OpenGate(faults::kShardProbe);
  submitter.join();

  ASSERT_EQ(results.size(), static_cast<size_t>(kBurst));
  for (int q = 0; q < kBurst; ++q) {
    if (q < 2) {
      EXPECT_TRUE(results[q].complete) << "admitted query " << q;
      EXPECT_FALSE(results[q].neighbors.empty());
    } else {
      EXPECT_FALSE(results[q].complete) << "shed query " << q;
      EXPECT_EQ(results[q].status.code(), StatusCode::kUnavailable);
      EXPECT_TRUE(results[q].neighbors.empty());
    }
  }
  EXPECT_EQ(engine.shed_count(), kBurst - 2);
}

TEST(RobustnessTest, BlockPolicyKeepsEveryQuery) {
  Env env = MakeEnv(60);
  QueryEngine engine(env.model.get(),
                     {.num_threads = 2,
                      .num_shards = 2,
                      .queue_depth = 1,
                      .overload_policy = OverloadPolicy::kBlock});
  engine.InsertAll({env.corpus.begin(), env.corpus.begin() + 40});
  const std::vector<traj::Trajectory> burst(env.corpus.begin(),
                                            env.corpus.begin() + 6);
  const std::vector<QueryResult> results = engine.QueryBatch(burst, 5);
  ASSERT_EQ(results.size(), 6u);
  for (const QueryResult& r : results) {
    EXPECT_TRUE(r.complete);
    EXPECT_FALSE(r.neighbors.empty());
  }
  EXPECT_EQ(engine.shed_count(), 0);
}

TEST(RobustnessTest, UnboundedQueueNeverSheds) {
  Env env = MakeEnv(40);
  QueryEngine engine(env.model.get(), {.num_threads = 2, .num_shards = 2});
  engine.InsertAll({env.corpus.begin(), env.corpus.begin() + 30});
  const std::vector<traj::Trajectory> burst(env.corpus.begin(),
                                            env.corpus.begin() + 20);
  for (const QueryResult& r : engine.QueryBatch(burst, 3)) {
    EXPECT_TRUE(r.complete);
  }
  EXPECT_EQ(engine.shed_count(), 0);
}

// ---------------------------------------------------------------------------
// Crash-safe snapshots
// ---------------------------------------------------------------------------

QueryEngineOptions WithStrategy(search::SearchStrategy strategy) {
  QueryEngineOptions options;
  options.num_threads = 2;
  options.num_shards = 3;
  options.strategy = strategy;
  return options;
}

TEST(RobustnessTest, SnapshotRoundTripBitIdenticalAcrossStrategies) {
  Env env = MakeEnv();
  const std::vector<traj::Trajectory> db(env.corpus.begin(),
                                         env.corpus.begin() + 90);
  const std::vector<traj::Trajectory> queries(env.corpus.begin() + 90,
                                              env.corpus.begin() + 110);
  for (const auto strategy :
       {search::SearchStrategy::kBrute, search::SearchStrategy::kRadius2,
        search::SearchStrategy::kMih}) {
    SCOPED_TRACE(search::StrategyName(strategy));
    QueryEngine built(env.model.get(), WithStrategy(strategy));
    built.InsertAll(db);
    const std::string path = TempPath("snapshot_roundtrip.bin");
    ASSERT_TRUE(built.SaveSnapshot(path).ok());

    QueryEngine restored(env.model.get(), WithStrategy(strategy));
    ASSERT_TRUE(restored.LoadSnapshot(path).ok());
    ASSERT_EQ(restored.size(), built.size());
    for (const traj::Trajectory& q : queries) {
      const QueryResult a = built.Query(q, 9);
      const QueryResult b = restored.Query(q, 9);
      ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
      for (size_t i = 0; i < a.neighbors.size(); ++i) {
        EXPECT_EQ(a.neighbors[i].index, b.neighbors[i].index);
        EXPECT_DOUBLE_EQ(a.neighbors[i].distance, b.neighbors[i].distance);
      }
    }
    // Embeddings ride along byte-for-byte (they back exact reranking).
    for (int id = 0; id < built.size(); id += 17) {
      EXPECT_EQ(restored.index().EmbeddingOf(id), built.index().EmbeddingOf(id));
    }
  }
}

TEST(RobustnessTest, SnapshotLoadsAcrossStrategyAndShardCount) {
  Env env = MakeEnv(80);
  const std::vector<traj::Trajectory> db(env.corpus.begin(),
                                         env.corpus.begin() + 60);
  QueryEngine built(env.model.get(), WithStrategy(search::SearchStrategy::kMih));
  built.InsertAll(db);
  const std::string path = TempPath("snapshot_cross.bin");
  ASSERT_TRUE(built.SaveSnapshot(path).ok());

  // The format stores global-id-ordered entries, so any shard count and any
  // strategy reproduce the identical logical database.
  QueryEngineOptions other;
  other.num_threads = 1;
  other.num_shards = 5;
  other.strategy = search::SearchStrategy::kBrute;
  QueryEngine restored(env.model.get(), other);
  ASSERT_TRUE(restored.LoadSnapshot(path).ok());
  ASSERT_EQ(restored.size(), built.size());
  for (int q = 60; q < 70; ++q) {
    const QueryResult a = built.Query(env.corpus[q], 6);
    const QueryResult b = restored.Query(env.corpus[q], 6);
    ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
    for (size_t i = 0; i < a.neighbors.size(); ++i) {
      EXPECT_EQ(a.neighbors[i].index, b.neighbors[i].index);
      EXPECT_DOUBLE_EQ(a.neighbors[i].distance, b.neighbors[i].distance);
    }
  }
}

TEST(RobustnessTest, TornSnapshotWriteLeavesPreviousSnapshotIntact) {
  Env env = MakeEnv(70);
  QueryEngine engine(env.model.get(), WithStrategy(search::SearchStrategy::kMih));
  engine.InsertAll({env.corpus.begin(), env.corpus.begin() + 40});
  const std::string path = TempPath("snapshot_torn.bin");
  ASSERT_TRUE(engine.SaveSnapshot(path).ok());
  const Result<std::string> before = ReadFileToString(path);
  ASSERT_TRUE(before.ok());

  // Grow the database, then crash mid-save: the write is torn, the previous
  // snapshot file must be byte-identical and still loadable.
  engine.InsertAll({env.corpus.begin() + 40, env.corpus.begin() + 60});
  {
    FaultInjector fi;
    fi.Arm(faults::kFileWrite);
    FaultInjector::Scope scope(&fi);
    EXPECT_EQ(engine.SaveSnapshot(path).code(), StatusCode::kIoError);
  }
  const Result<std::string> after = ReadFileToString(path);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value(), before.value());

  QueryEngine recovered(env.model.get(),
                        WithStrategy(search::SearchStrategy::kMih));
  ASSERT_TRUE(recovered.LoadSnapshot(path).ok());
  EXPECT_EQ(recovered.size(), 40) << "recovered the pre-crash database";
}

TEST(RobustnessTest, CorruptSnapshotRejectedWithDataLoss) {
  Env env = MakeEnv(50);
  QueryEngine engine(env.model.get(), WithStrategy(search::SearchStrategy::kMih));
  engine.InsertAll({env.corpus.begin(), env.corpus.begin() + 30});
  const std::string path = TempPath("snapshot_corrupt.bin");
  ASSERT_TRUE(engine.SaveSnapshot(path).ok());
  Result<std::string> contents = ReadFileToString(path);
  ASSERT_TRUE(contents.ok());

  // Single bit flip in the payload.
  std::string flipped = contents.value();
  flipped[flipped.size() / 2] ^= 0x04;
  ASSERT_TRUE(AtomicWriteFile(path, flipped).ok());
  QueryEngine victim(env.model.get(), WithStrategy(search::SearchStrategy::kMih));
  EXPECT_EQ(victim.LoadSnapshot(path).code(), StatusCode::kDataLoss);
  EXPECT_EQ(victim.size(), 0) << "failed load must leave the engine empty";

  // Truncation (as if the machine died before the tail reached disk).
  ASSERT_TRUE(
      AtomicWriteFile(path, contents.value().substr(0, contents.value().size() / 2))
          .ok());
  EXPECT_EQ(victim.LoadSnapshot(path).code(), StatusCode::kDataLoss);

  // Not a snapshot at all.
  ASSERT_TRUE(AtomicWriteFile(path, "these are not the bytes").ok());
  EXPECT_EQ(victim.LoadSnapshot(path).code(), StatusCode::kInvalidArgument);

  // Missing file.
  EXPECT_EQ(victim.LoadSnapshot(TempPath("no_such_snapshot.bin")).code(),
            StatusCode::kIoError);
  EXPECT_EQ(victim.size(), 0);
}

TEST(RobustnessTest, SnapshotLoadRequiresEmptyEngineAndMatchingWidth) {
  Env env = MakeEnv(50);
  QueryEngine engine(env.model.get(), WithStrategy(search::SearchStrategy::kMih));
  engine.InsertAll({env.corpus.begin(), env.corpus.begin() + 20});
  const std::string path = TempPath("snapshot_preconditions.bin");
  ASSERT_TRUE(engine.SaveSnapshot(path).ok());

  EXPECT_EQ(engine.LoadSnapshot(path).code(), StatusCode::kFailedPrecondition)
      << "loading into a non-empty engine must refuse";

  // A model with a different code width must reject the snapshot.
  Rng rng(5);
  core::Traj2HashConfig wide;
  wide.dim = 16;
  wide.num_blocks = 1;
  wide.num_heads = 2;
  auto wide_model =
      std::move(core::Traj2Hash::Create(wide, env.corpus, rng).value());
  QueryEngine mismatched(wide_model.get(),
                         WithStrategy(search::SearchStrategy::kMih));
  EXPECT_EQ(mismatched.LoadSnapshot(path).code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Replication failover drill (DESIGN.md §13)
// ---------------------------------------------------------------------------

// The FaultInjector kills one replica of a 1-primary/3-replica group in the
// middle of a query burst. The router's retries must route every query in
// the burst to the survivors — zero dropped, zero incorrect — and the dead
// replica, restarted from its own checkpoint, must catch back up to the
// live commit seq even though the primary mutated while it was down.
TEST(RobustnessTest, ReplicationFailoverDrillDropsNothing) {
  Env env = MakeEnv(80);
  QueryEngine engine(env.model.get(), {.num_threads = 1, .num_shards = 3});
  const std::string wal_path = TempPath("failover_drill.wal");
  std::remove(wal_path.c_str());
  ASSERT_TRUE(engine.Recover("", wal_path).ok());
  ASSERT_TRUE(
      engine.InsertAll({env.corpus.begin(), env.corpus.begin() + 60}).ok());

  replica::Primary primary(engine.mutable_index(), wal_path);
  std::vector<std::unique_ptr<replica::Replica>> group;
  std::vector<replica::Replica*> members;
  for (int i = 0; i < 3; ++i) {
    group.push_back(std::make_unique<replica::Replica>(
        &primary, replica::ReplicaOptions{},
        "drill-r" + std::to_string(i)));
    ASSERT_TRUE(group.back()->Bootstrap(TempPath("drill.boot.snap")).ok());
    members.push_back(group.back().get());
  }
  replica::ReadRouter router(members, {.max_attempts = 4});
  const std::string checkpoint = TempPath("drill.r.ckpt");
  ASSERT_TRUE(group[0]->Checkpoint(checkpoint).ok());

  // Kill one replica mid-burst: the 8th routed replica-query dies at entry.
  FaultInjector fi;
  fi.Arm(faults::kReplicaDown, /*skip=*/7, /*fire=*/1);
  FaultInjector::Scope scope(&fi);

  int64_t dropped = 0;
  for (int q = 0; q < 40; ++q) {
    const search::Code code = env.model->HashCode(env.corpus[q % 60]);
    const replica::RoutedRead read = router.Query(code, 10);
    if (!read.status.ok()) {
      ++dropped;
      continue;
    }
    // Correctness under failover: the survivors are caught up (no churn is
    // racing this loop), so every answer must equal the primary's.
    const auto want = engine.index().QueryTopK(code, 10);
    ASSERT_EQ(read.neighbors.size(), want.size()) << "query " << q;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(read.neighbors[i].index, want[i].index);
      EXPECT_EQ(read.neighbors[i].distance, want[i].distance);
    }
  }
  EXPECT_EQ(dropped, 0) << "failover must be invisible to callers";
  EXPECT_EQ(router.failovers(), 1);
  EXPECT_EQ(fi.fired(faults::kReplicaDown), 1);

  // Exactly one replica died; find it and bring it back while the primary
  // keeps committing underneath.
  int dead = -1;
  for (int i = 0; i < 3; ++i) {
    if (group[i]->state() == replica::ReplicaState::kDown) {
      ASSERT_EQ(dead, -1) << "only one replica may have died";
      dead = i;
    }
  }
  ASSERT_NE(dead, -1);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine.Insert(env.corpus[60 + (i % 20)]).ok());
  }
  ASSERT_TRUE(group[dead]->Restart(checkpoint).ok());
  EXPECT_EQ(group[dead]->state(), replica::ReplicaState::kHealthy);
  EXPECT_EQ(group[dead]->applied_seq(), primary.committed_seq());
  router.MarkHealthy(dead);

  // The whole group converges: every replica answers like the primary.
  for (auto& r : group) {
    ASSERT_TRUE(r->CatchUp().ok());
  }
  for (int q = 0; q < 8; ++q) {
    const search::Code code = env.model->HashCode(env.corpus[q]);
    const auto want = engine.index().QueryTopK(code, 10);
    for (auto& r : group) {
      const auto got = r->Query(code, 10);
      ASSERT_TRUE(got.ok()) << r->name() << ": " << got.status().ToString();
      ASSERT_EQ(got.value().size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got.value()[i].index, want[i].index);
        EXPECT_EQ(got.value()[i].distance, want[i].distance);
      }
    }
  }
}

}  // namespace
}  // namespace traj2hash::serve
