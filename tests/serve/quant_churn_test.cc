// Churn property test for the quantized embedding store (DESIGN.md §17):
// under a random stream of single and bulk (InsertBatch) inserts /
// removes / updates / compactions,
// QueryRerankTopK on a quantize-mode ShardedIndex must stay bit-identical
// to an exact float top-k over the stored lattice (EmbeddingOf of every
// live id), for shard counts {1, 4} and every strategy, serial and pooled.
// Plus the TSan acceptance stress: concurrent re-rank queries against
// concurrent mutations (including the in-place param widening, bulk
// calibrations and compaction rescales) must be race-free.
#include <algorithm>
#include <map>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "search/code.h"
#include "search/flat_storage.h"
#include "search/knn.h"
#include "serve/sharded_index.h"

namespace traj2hash::serve {
namespace {

constexpr int kBits = 32;
constexpr int kDim = 8;

search::Code RandomCode(Rng& rng) {
  std::vector<float> v(kBits);
  for (float& x : v) x = rng.Bernoulli(0.5) ? 1.0f : -1.0f;
  return search::PackSigns(v);
}

std::vector<float> RandomEmbedding(Rng& rng) {
  std::vector<float> e(kDim);
  for (float& x : e) x = static_cast<float>(rng.Uniform(-2.0, 2.0));
  return e;
}

/// A ShardedIndex::InsertBatch argument pair of 2–`max_rows` rows; one row
/// in eight carries no embedding.
void RandomBatch(Rng& rng, int max_rows, std::vector<search::Code>* codes,
                 std::vector<std::vector<float>>* embeddings) {
  const int n = rng.UniformInt(2, max_rows);
  for (int i = 0; i < n; ++i) {
    codes->push_back(RandomCode(rng));
    std::vector<float> e;
    if (rng.Uniform(0.0, 1.0) > 0.125) e = RandomEmbedding(rng);
    embeddings->push_back(std::move(e));
  }
}

/// What QueryRerankTopK must equal: exact float top-k over the STORED
/// (lattice) embeddings of every live id, ties by ascending id. Reading the
/// lattice back through EmbeddingOf keeps the oracle correct across both
/// the in-place param widening and compaction-time rescales.
std::vector<search::Neighbor> LatticeOracle(const ShardedIndex& index,
                                            const std::vector<int>& live_ids,
                                            const std::vector<float>& query,
                                            int k) {
  std::vector<int> ids = live_ids;
  std::sort(ids.begin(), ids.end());
  search::FlatMatrix lattice(kDim);
  std::vector<int> row_to_id;
  for (const int id : ids) {
    const std::vector<float> e = index.EmbeddingOf(id);
    if (e.empty()) continue;  // entries without embeddings are skipped
    lattice.Append(e);
    row_to_id.push_back(id);
  }
  std::vector<search::Neighbor> top = search::TopKEuclidean(lattice, query, k);
  for (search::Neighbor& nb : top) nb.index = row_to_id[nb.index];
  return top;
}

void ExpectBitIdentical(const std::vector<search::Neighbor>& got,
                        const std::vector<search::Neighbor>& want,
                        const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].index, want[i].index) << what << " rank " << i;
    EXPECT_EQ(got[i].distance, want[i].distance) << what << " rank " << i;
  }
}

TEST(QuantChurnTest, RerankMatchesLatticeOracleAcrossShardsAndStrategies) {
  ThreadPool pool(3);
  for (const int num_shards : {1, 4}) {
    for (const search::SearchStrategy strategy :
         {search::SearchStrategy::kBrute, search::SearchStrategy::kRadius2,
          search::SearchStrategy::kMih}) {
      SCOPED_TRACE("shards=" + std::to_string(num_shards) + " strategy=" +
                   std::to_string(static_cast<int>(strategy)));
      Rng rng(900 + num_shards + 10 * static_cast<int>(strategy));
      // Aggressive compaction trigger so the churn actually crosses the
      // delta -> base boundary (and its requantization) many times.
      ShardedIndex index(num_shards, kBits, strategy, /*mih_substrings=*/0,
                         /*compact_min_ops=*/8, /*compact_ratio=*/0.1,
                         /*quantize=*/true, kDim);
      ASSERT_TRUE(index.quantize());
      std::vector<int> live;
      for (int step = 0; step < 160; ++step) {
        const double dice = rng.Uniform(0.0, 1.0);
        if (dice < 0.45 || live.empty()) {
          // One in eight entries carries no embedding: the Hamming stage
          // admits it, the re-rank stage must skip it.
          std::vector<float> e;
          if (rng.Uniform(0.0, 1.0) > 0.125) e = RandomEmbedding(rng);
          const auto id = index.Insert(RandomCode(rng), std::move(e));
          ASSERT_TRUE(id.ok());
          live.push_back(id.value());
        } else if (dice < 0.55) {
          // A bulk insert: ids continue from size(), one apply per shard.
          std::vector<search::Code> codes;
          std::vector<std::vector<float>> embeddings;
          RandomBatch(rng, 9, &codes, &embeddings);
          const int first = index.size();
          const int n = static_cast<int>(codes.size());
          ASSERT_TRUE(
              index.InsertBatch(std::move(codes), std::move(embeddings)).ok());
          ASSERT_EQ(index.size(), first + n);
          for (int id = first; id < first + n; ++id) live.push_back(id);
        } else if (dice < 0.72) {
          const int victim = live[step % live.size()];
          ASSERT_TRUE(index.Remove(victim).ok());
          live.erase(std::find(live.begin(), live.end(), victim));
        } else if (dice < 0.92) {
          const int victim = live[step % live.size()];
          ASSERT_TRUE(
              index.Update(victim, RandomCode(rng), RandomEmbedding(rng))
                  .ok());
        } else {
          index.CompactAll();
        }
        if (live.empty() || step % 3 != 0) continue;

        const search::Code qcode = RandomCode(rng);
        const std::vector<float> qemb = RandomEmbedding(rng);
        const int k = 1 + step % 7;
        // num_candidates covers every live entry, so each shard's Hamming
        // stage admits all of its rows and the merged result must equal
        // the full lattice oracle.
        const auto want = LatticeOracle(index, live, qemb, k);
        ExpectBitIdentical(index.QueryRerankTopK(qcode, qemb, k, 10000),
                           want, "serial");
        ExpectBitIdentical(
            index.QueryRerankTopK(qcode, qemb, k, 10000, &pool), want,
            "pooled");
      }
      EXPECT_GT(index.rerank_stats().queries, 0u);
      EXPECT_EQ(index.rerank_stats().band_violations, 0u);
      EXPECT_GT(index.embedding_resident_bytes(), 0u);
    }
  }
}

/// TSan acceptance: re-rank readers against writers that insert single
/// rows (widening the params in place while the store is all-delta) and
/// bulk batches (one calibration per shard), update, remove and
/// synchronously compact. Results are only sanity-checked — the database
/// mutates underneath the queries — but every access must be race-free.
TEST(QuantChurnTest, ConcurrentRerankAndMutationsAreRaceFree) {
  constexpr int kWriters = 2;
  constexpr int kReaders = 3;
  constexpr int kPerThread = 100;
  ShardedIndex index(4, kBits, search::SearchStrategy::kMih,
                     /*mih_substrings=*/0, /*compact_min_ops=*/16,
                     /*compact_ratio=*/0.1, /*quantize=*/true, kDim);
  {
    Rng rng(7000);
    for (int i = 0; i < 16; ++i) {
      ASSERT_TRUE(index.Insert(RandomCode(rng), RandomEmbedding(rng)).ok());
    }
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&index, t] {
      Rng rng(7100 + t);
      for (int i = 0; i < kPerThread; ++i) {
        const double dice = rng.Uniform(0.0, 1.0);
        if (dice < 0.45) {
          (void)index.Insert(RandomCode(rng), RandomEmbedding(rng));
        } else if (dice < 0.6) {
          std::vector<search::Code> codes;
          std::vector<std::vector<float>> embeddings;
          RandomBatch(rng, 12, &codes, &embeddings);
          EXPECT_TRUE(
              index.InsertBatch(std::move(codes), std::move(embeddings)).ok());
        } else if (dice < 0.8) {
          (void)index.Remove(static_cast<int>(rng.UniformInt(0, 40)));
        } else if (dice < 0.95) {
          (void)index.Update(static_cast<int>(rng.UniformInt(0, 40)),
                             RandomCode(rng), RandomEmbedding(rng));
        } else {
          index.CompactAll();
        }
      }
    });
  }
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&index, t] {
      Rng rng(7200 + t);
      for (int i = 0; i < kPerThread; ++i) {
        const auto hits =
            index.QueryRerankTopK(RandomCode(rng), RandomEmbedding(rng), 5,
                                  64);
        EXPECT_LE(hits.size(), 5u);
        for (size_t j = 1; j < hits.size(); ++j) {
          EXPECT_LE(hits[j - 1].distance, hits[j].distance);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(index.rerank_stats().band_violations, 0u);
}

}  // namespace
}  // namespace traj2hash::serve
