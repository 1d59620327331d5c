// LiveIndex in quantize mode (DESIGN.md §17): embeddings live as int8 rows
// under one shared param set, EmbeddingOf/SnapshotEntries surface the
// dequantized lattice, RerankTopK is bit-identical to the float path over
// that lattice, single inserts widen the params per row while the store is
// all-delta, a bulk InsertBatch calibrates once over the whole batch,
// compaction rebuilds the scales from the captured base (and requantizes
// the racing delta suffix), rows without embeddings are carried but
// skipped, and non-finite embeddings are rejected before any state
// mutates.
#include "ingest/live_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "search/code.h"
#include "search/flat_storage.h"
#include "search/knn.h"

namespace traj2hash::ingest {
namespace {

constexpr int kBits = 32;
constexpr int kDim = 12;

search::Code RandomCode(Rng& rng) {
  std::vector<float> v(kBits);
  for (float& x : v) x = rng.Bernoulli(0.5) ? 1.0f : -1.0f;
  return search::PackSigns(v);
}

std::vector<float> RandomEmbedding(Rng& rng, double lo = -3.0,
                                   double hi = 3.0) {
  std::vector<float> e(kDim);
  for (float& x : e) x = static_cast<float>(rng.Uniform(lo, hi));
  return e;
}

LiveIndexOptions QuantOptions(
    search::SearchStrategy strategy = search::SearchStrategy::kMih) {
  LiveIndexOptions options;
  options.num_bits = kBits;
  options.strategy = strategy;
  options.quantize = true;
  options.embedding_dim = kDim;
  return options;
}

/// The float path RerankTopK must match: exact top-k over the STORED
/// (lattice) embeddings of every live id, ties by ascending id. Reads the
/// lattice back through EmbeddingOf, so it stays correct across
/// compaction-time rescales.
std::vector<search::Neighbor> LatticeOracle(const LiveIndex& index,
                                            const std::vector<int>& live_ids,
                                            const std::vector<float>& query,
                                            int k) {
  std::vector<int> ids = live_ids;
  std::sort(ids.begin(), ids.end());
  search::FlatMatrix lattice(kDim);
  std::vector<int> row_to_id;
  for (const int id : ids) {
    const std::vector<float> e = index.EmbeddingOf(id);
    if (e.empty()) continue;  // rows without embeddings are skipped
    lattice.Append(e);
    row_to_id.push_back(id);
  }
  std::vector<search::Neighbor> top = search::TopKEuclidean(lattice, query, k);
  for (search::Neighbor& nb : top) nb.index = row_to_id[nb.index];
  return top;
}

void ExpectBitIdentical(const std::vector<search::Neighbor>& got,
                        const std::vector<search::Neighbor>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].index, want[i].index) << "rank " << i;
    EXPECT_EQ(got[i].distance, want[i].distance) << "rank " << i;
  }
}

TEST(LiveIndexQuantTest, EmbeddingOfRoundTripsWithinHalfStep) {
  Rng rng(41);
  LiveIndex index(QuantOptions());
  std::map<int, std::vector<float>> originals;
  // Two corner rows pin the calibration range up front: the first insert
  // cold-starts the params, the second widens them once (requantizing only
  // row 0), and every later row lands strictly inside — so the only
  // expansions in play are accounted for in the bound below.
  originals[0] = std::vector<float>(kDim, -3.0f);
  originals[1] = std::vector<float>(kDim, 3.0f);
  ASSERT_TRUE(index.Insert(0, RandomCode(rng), originals[0]).ok());
  ASSERT_TRUE(index.Insert(1, RandomCode(rng), originals[1]).ok());
  for (int id = 2; id < 50; ++id) {
    const std::vector<float> e = RandomEmbedding(rng, -2.9, 2.9);
    ASSERT_TRUE(index.Insert(id, RandomCode(rng), e).ok());
    originals[id] = e;
  }
  const quant::QuantizationParams params = index.ParamsSnapshot();
  ASSERT_EQ(params.dim(), kDim);
  // Every in-range row is within half a step of its original; row 0 carries
  // one extra requantization from the widening (≤ half the tiny cold-start
  // step on top), so 0.7 steps covers everything with float headroom.
  for (const auto& [id, original] : originals) {
    const std::vector<float> back = index.EmbeddingOf(id);
    ASSERT_EQ(back.size(), original.size()) << id;
    for (int j = 0; j < kDim; ++j) {
      EXPECT_LE(std::abs(back[j] - original[j]), 0.7f * params.scale[j])
          << "id " << id << " dim " << j;
    }
  }

  // Compaction re-calibrates over the stored lattice — a subset of the
  // corner range, so the steps never grow — and requantizes each value once
  // more (≤ half a rebuilt step of extra movement).
  index.Compact();
  const quant::QuantizationParams rebuilt = index.ParamsSnapshot();
  for (int j = 0; j < kDim; ++j) {
    EXPECT_LE(rebuilt.scale[j], params.scale[j] * (1.0f + 1e-5f)) << j;
  }
  for (const auto& [id, original] : originals) {
    const std::vector<float> back = index.EmbeddingOf(id);
    for (int j = 0; j < kDim; ++j) {
      EXPECT_LE(std::abs(back[j] - original[j]), 1.2f * params.scale[j])
          << "id " << id << " dim " << j;
    }
  }
}

TEST(LiveIndexQuantTest, BulkLoadExpandsParamsInsteadOfSaturating) {
  // The regression the per-row widening exists for: a load through single
  // Insert calls whose first row is narrow must not clamp the rest of the
  // corpus onto the first row's ±½ window. Every loaded value has to
  // round-trip within the final (widened) step budget, including the early
  // rows that were requantized as the range grew. (InsertBatch does better:
  // one calibration, ½ step — see BulkApplyCalibratesOnceAndIsOrder-
  // Independent.)
  Rng rng(47);
  LiveIndex index(QuantOptions());
  std::map<int, std::vector<float>> originals;
  originals[0] = std::vector<float>(kDim, 0.01f);  // narrow first row
  ASSERT_TRUE(index.Insert(0, RandomCode(rng), originals[0]).ok());
  for (int id = 1; id < 120; ++id) {
    const std::vector<float> e = RandomEmbedding(rng);  // [-3, 3]
    ASSERT_TRUE(index.Insert(id, RandomCode(rng), e).ok());
    originals[id] = e;
  }
  const quant::QuantizationParams params = index.ParamsSnapshot();
  // The final range must cover roughly [-3, 3], not the first row's window.
  for (int j = 0; j < kDim; ++j) {
    EXPECT_GT(params.scale[j], 4.0f / 255.0f) << j;
  }
  // Each widening requantizes prior rows by ≤ half the (monotonically
  // growing) step, and lattice points move only when the new lattice
  // disagrees — in aggregate a few final steps of slack absorbs the whole
  // expansion history at this scale.
  for (const auto& [id, original] : originals) {
    const std::vector<float> back = index.EmbeddingOf(id);
    ASSERT_EQ(back.size(), original.size()) << id;
    for (int j = 0; j < kDim; ++j) {
      EXPECT_LE(std::abs(back[j] - original[j]), 4.0f * params.scale[j])
          << "id " << id << " dim " << j;
    }
  }
}

/// Byte-level equality of two stored lattice rows (EmbeddingOf).
void ExpectSameBytes(const std::vector<float>& got,
                     const std::vector<float>& want, int id) {
  ASSERT_EQ(got.size(), want.size()) << "id " << id;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)),
            0)
      << "id " << id;
}

TEST(LiveIndexQuantTest, BulkApplyCalibratesOnceAndIsOrderIndependent) {
  Rng rng(48);
  // A batch whose first row is narrow, as in BulkLoadExpandsParams-
  // InsteadOfSaturating, where per-row widening needs 4 steps of slack.
  std::vector<int> ids;
  std::vector<search::Code> codes;
  std::vector<std::vector<float>> embeddings;
  for (int id = 0; id < 120; ++id) {
    ids.push_back(id);
    codes.push_back(RandomCode(rng));
    embeddings.push_back(id == 0 ? std::vector<float>(kDim, 0.01f)
                                 : RandomEmbedding(rng));  // [-3, 3]
  }

  {
    SCOPED_TRACE("cold start: one calibration, every row within half a step");
    LiveIndex index(QuantOptions());
    ASSERT_TRUE(index.InsertBatch(ids, codes, embeddings).ok());
    EXPECT_EQ(index.mutation_epoch(), 1u);
    const quant::QuantizationParams params = index.ParamsSnapshot();
    // The params are exactly a one-shot calibration over the batch.
    quant::ParamsBuilder builder(kDim);
    for (const std::vector<float>& e : embeddings) {
      ASSERT_TRUE(builder.Add(e.data()).ok());
    }
    const quant::QuantizationParams one_shot = builder.Build().value();
    EXPECT_EQ(params.scale, one_shot.scale);
    EXPECT_EQ(params.zero_point, one_shot.zero_point);
    // Each row is quantized once from its float: ≤ s/2, plus float
    // rounding of the dequantization far below a step.
    for (int id = 0; id < 120; ++id) {
      const std::vector<float> back = index.EmbeddingOf(id);
      ASSERT_EQ(back.size(), static_cast<size_t>(kDim)) << id;
      for (int j = 0; j < kDim; ++j) {
        EXPECT_LE(std::abs(back[j] - embeddings[id][j]),
                  0.5f * params.scale[j] + 1e-5f)
            << "id " << id << " dim " << j;
      }
    }
  }

  {
    SCOPED_TRACE("shuffled orders of one batch store the same bytes");
    // Each index first takes a narrow delta through single inserts, so the
    // batch also widens the params over an existing delta and requantizes
    // it once.
    const auto load = [&](const std::vector<int>& order, LiveIndex* index) {
      Rng pre(49);
      for (int id = 1000; id < 1004; ++id) {
        ASSERT_TRUE(
            index->Insert(id, RandomCode(pre), RandomEmbedding(pre, -0.5, 0.5))
                .ok());
      }
      std::vector<int> batch_ids;
      std::vector<search::Code> batch_codes;
      std::vector<std::vector<float>> batch_embeddings;
      for (const int i : order) {
        batch_ids.push_back(ids[i]);
        batch_codes.push_back(codes[i]);
        batch_embeddings.push_back(embeddings[i]);
      }
      ASSERT_TRUE(index->InsertBatch(batch_ids, std::move(batch_codes),
                                     std::move(batch_embeddings))
                      .ok());
    };
    std::vector<int> order(ids.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
    LiveIndex reference(QuantOptions());
    load(order, &reference);
    for (int trial = 0; trial < 3; ++trial) {
      for (size_t i = order.size() - 1; i > 0; --i) {
        std::swap(order[i], order[rng.UniformInt(0, static_cast<int>(i))]);
      }
      LiveIndex shuffled(QuantOptions());
      load(order, &shuffled);
      const quant::QuantizationParams a = reference.ParamsSnapshot();
      const quant::QuantizationParams b = shuffled.ParamsSnapshot();
      EXPECT_EQ(a.scale, b.scale);
      EXPECT_EQ(a.zero_point, b.zero_point);
      for (int id = 0; id < 120; ++id) {
        ExpectSameBytes(shuffled.EmbeddingOf(id), reference.EmbeddingOf(id),
                        id);
      }
      for (int id = 1000; id < 1004; ++id) {
        ExpectSameBytes(shuffled.EmbeddingOf(id), reference.EmbeddingOf(id),
                        id);
      }
    }
  }

  {
    SCOPED_TRACE("a compacted base pins the params: same bytes as row by row");
    LiveIndex bulk(QuantOptions());
    LiveIndex per_row(QuantOptions());
    Rng pre(50);
    for (int id = 1000; id < 1040; ++id) {
      const search::Code code = RandomCode(pre);
      const std::vector<float> e = RandomEmbedding(pre, -1.0, 1.0);
      ASSERT_TRUE(bulk.Insert(id, code, e).ok());
      ASSERT_TRUE(per_row.Insert(id, code, e).ok());
    }
    bulk.Compact();
    per_row.Compact();
    // The batch reaches [-3, 3], far outside the base's [-1, 1]: those
    // values saturate on both paths.
    ASSERT_TRUE(bulk.InsertBatch(ids, codes, embeddings).ok());
    for (size_t i = 0; i < ids.size(); ++i) {
      ASSERT_TRUE(per_row.Insert(ids[i], codes[i], embeddings[i]).ok());
    }
    EXPECT_EQ(bulk.ParamsSnapshot().scale, per_row.ParamsSnapshot().scale);
    EXPECT_EQ(bulk.ParamsSnapshot().zero_point,
              per_row.ParamsSnapshot().zero_point);
    for (int id = 0; id < 120; ++id) {
      ExpectSameBytes(bulk.EmbeddingOf(id), per_row.EmbeddingOf(id), id);
    }
  }

  {
    SCOPED_TRACE("a rejected batch leaves the shard untouched");
    LiveIndex index(QuantOptions());
    Rng pre(51);
    for (int id = 1000; id < 1008; ++id) {
      ASSERT_TRUE(
          index.Insert(id, RandomCode(pre), RandomEmbedding(pre, -0.5, 0.5))
              .ok());
    }
    const uint64_t epoch = index.mutation_epoch();
    const quant::QuantizationParams params = index.ParamsSnapshot();
    std::vector<std::vector<float>> stored;
    for (int id = 1000; id < 1008; ++id) stored.push_back(index.EmbeddingOf(id));
    const auto expect_untouched = [&] {
      EXPECT_EQ(index.mutation_epoch(), epoch);
      EXPECT_EQ(index.live_size(), 8);
      EXPECT_EQ(index.delta_size(), 8);
      EXPECT_FALSE(index.Contains(0));
      EXPECT_EQ(index.ParamsSnapshot().scale, params.scale);
      EXPECT_EQ(index.ParamsSnapshot().zero_point, params.zero_point);
      for (int id = 1000; id < 1008; ++id) {
        ExpectSameBytes(index.EmbeddingOf(id), stored[id - 1000], id);
      }
    };
    // One NaN row late in a batch whose earlier rows would widen the
    // params.
    std::vector<std::vector<float>> poisoned = embeddings;
    poisoned[100][3] = std::numeric_limits<float>::quiet_NaN();
    EXPECT_EQ(index.InsertBatch(ids, codes, poisoned).code(),
              StatusCode::kInvalidArgument);
    expect_untouched();
    // A live id, and an id repeated within the batch.
    std::vector<int> clashing = ids;
    clashing[60] = 1003;
    EXPECT_EQ(index.InsertBatch(clashing, codes, embeddings).code(),
              StatusCode::kInvalidArgument);
    expect_untouched();
    clashing[60] = 7;
    EXPECT_EQ(index.InsertBatch(clashing, codes, embeddings).code(),
              StatusCode::kInvalidArgument);
    expect_untouched();
  }
}

TEST(LiveIndexQuantTest, RerankMatchesLatticeOracleThroughMutations) {
  Rng rng(42);
  LiveIndex index(QuantOptions());
  std::map<int, int> live;  // id -> dummy
  std::vector<int> ids;
  for (int step = 0; step < 140; ++step) {
    const double dice = rng.Uniform(0.0, 1.0);
    if (dice < 0.55 || ids.empty()) {
      ASSERT_TRUE(
          index.Insert(step, RandomCode(rng), RandomEmbedding(rng)).ok());
      ids.push_back(step);
    } else if (dice < 0.7) {
      const int victim = ids[step % ids.size()];
      ASSERT_TRUE(index.Remove(victim).ok());
      ids.erase(std::find(ids.begin(), ids.end(), victim));
    } else if (dice < 0.9) {
      const int victim = ids[step % ids.size()];
      ASSERT_TRUE(
          index.Update(victim, RandomCode(rng), RandomEmbedding(rng)).ok());
    } else {
      index.Compact();
    }
    if (ids.empty()) continue;

    const search::Code qcode = RandomCode(rng);
    const std::vector<float> qemb = RandomEmbedding(rng);
    const int k = 1 + step % 7;
    // num_candidates covers every live entry, so the Hamming stage admits
    // them all and the result must equal the full lattice oracle.
    const auto got = index.RerankTopK(qcode, qemb, k, 10000);
    ExpectBitIdentical(got, LatticeOracle(index, ids, qemb, k));
  }
  EXPECT_GT(index.rerank_stats().queries, 0u);
  EXPECT_EQ(index.rerank_stats().band_violations, 0u);
}

TEST(LiveIndexQuantTest, CompactionRebuildsParamsFromSurvivors) {
  Rng rng(43);
  LiveIndex index(QuantOptions());
  // An extreme outlier plus a −1 corner pin the range to ≈ [−1, 1000.5] in
  // two inserts; the survivors then land strictly inside it (kept off the
  // float-rounded range edge), so no further widening perturbs them.
  std::map<int, std::vector<float>> originals;
  ASSERT_TRUE(
      index.Insert(0, RandomCode(rng), std::vector<float>(kDim, 1000.0f))
          .ok());
  originals[1] = std::vector<float>(kDim, -1.0f);
  ASSERT_TRUE(index.Insert(1, RandomCode(rng), originals[1]).ok());
  for (int id = 2; id < 40; ++id) {
    const std::vector<float> e = RandomEmbedding(rng, -0.99, 0.99);
    ASSERT_TRUE(index.Insert(id, RandomCode(rng), e).ok());
    originals[id] = e;
  }
  index.Compact();
  const quant::QuantizationParams wide = index.ParamsSnapshot();
  for (int j = 0; j < kDim; ++j) {
    // The outlier keeps the rebuilt steps coarse (≈ 1001/255 ≈ 3.9).
    EXPECT_GT(wide.scale[j], 3.0f) << "dim " << j;
  }

  // Removing the outlier lets the next compaction re-calibrate over the
  // survivors alone, collapsing the steps by orders of magnitude. The
  // survivors' stored values carry the coarse-lattice error permanently
  // (the originals are gone — compaction only ever sees the lattice), so
  // the positional bound is a wide step plus a tight step, not half a
  // tight step.
  ASSERT_TRUE(index.Remove(0).ok());
  index.Compact();
  const quant::QuantizationParams tight = index.ParamsSnapshot();
  for (int j = 0; j < kDim; ++j) {
    EXPECT_LT(tight.scale[j], 0.1f * wide.scale[j]) << "dim " << j;
  }
  for (const auto& [id, original] : originals) {
    const std::vector<float> back = index.EmbeddingOf(id);
    ASSERT_EQ(back.size(), static_cast<size_t>(kDim)) << id;
    for (int j = 0; j < kDim; ++j) {
      EXPECT_LE(std::abs(back[j] - original[j]),
                wide.scale[j] + tight.scale[j] + 1e-3f)
          << "id " << id << " dim " << j;
    }
  }
}

TEST(LiveIndexQuantTest, RowsWithoutEmbeddingsAreCarriedButSkipped) {
  Rng rng(44);
  LiveIndex index(QuantOptions());
  ASSERT_TRUE(index.Insert(0, RandomCode(rng), {}).ok());
  ASSERT_TRUE(index.Insert(1, RandomCode(rng), RandomEmbedding(rng)).ok());
  ASSERT_TRUE(index.Insert(2, RandomCode(rng), {}).ok());
  ASSERT_TRUE(index.Insert(3, RandomCode(rng), RandomEmbedding(rng)).ok());

  EXPECT_TRUE(index.EmbeddingOf(0).empty());
  EXPECT_EQ(index.EmbeddingOf(1).size(), static_cast<size_t>(kDim));

  const auto top =
      index.RerankTopK(RandomCode(rng), RandomEmbedding(rng), 10, 100);
  ASSERT_EQ(top.size(), 2u);
  for (const auto& nb : top) {
    EXPECT_TRUE(nb.index == 1 || nb.index == 3) << nb.index;
  }

  // Compaction keeps the flags straight.
  index.Compact();
  EXPECT_TRUE(index.EmbeddingOf(0).empty());
  EXPECT_EQ(index.EmbeddingOf(3).size(), static_cast<size_t>(kDim));
  const auto entries = index.SnapshotEntries();
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_TRUE(entries[0].embedding.empty());
  EXPECT_FALSE(entries[1].embedding.empty());
}

TEST(LiveIndexQuantTest, NonFiniteEmbeddingsAreRejectedBeforeMutation) {
  Rng rng(45);
  LiveIndex index(QuantOptions());
  ASSERT_TRUE(index.Insert(0, RandomCode(rng), RandomEmbedding(rng)).ok());

  std::vector<float> poison = RandomEmbedding(rng);
  poison[5] = std::numeric_limits<float>::quiet_NaN();
  const Status insert = index.Insert(1, RandomCode(rng), poison);
  EXPECT_EQ(insert.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(index.Contains(1));
  EXPECT_EQ(index.live_size(), 1);

  poison[5] = std::numeric_limits<float>::infinity();
  const Status update = index.Update(0, RandomCode(rng), poison);
  EXPECT_EQ(update.code(), StatusCode::kInvalidArgument);
  // The rejected update must not have clobbered the stored row.
  EXPECT_EQ(index.EmbeddingOf(0).size(), static_cast<size_t>(kDim));
  EXPECT_TRUE(std::isfinite(index.EmbeddingOf(0)[5]));
}

TEST(LiveIndexQuantTest, ResidentBytesShowTheInt8Cut) {
  Rng rng(46);
  LiveIndexOptions fopts;
  fopts.num_bits = kBits;
  LiveIndex float_index(fopts);
  LiveIndex quant_index(QuantOptions());
  const int n = 200;
  for (int id = 0; id < n; ++id) {
    const search::Code code = RandomCode(rng);
    const std::vector<float> e = RandomEmbedding(rng);
    ASSERT_TRUE(float_index.Insert(id, code, e).ok());
    ASSERT_TRUE(quant_index.Insert(id, code, e).ok());
  }
  const size_t fbytes = float_index.embedding_resident_bytes();
  const size_t qbytes = quant_index.embedding_resident_bytes();
  EXPECT_EQ(fbytes, static_cast<size_t>(n) * kDim * sizeof(float));
  // int8 rows are stride-padded (kDim=12 → 32 B/row) and carry the three
  // param vectors, so the cut at this tiny dim is below 4× — but the store
  // must still be strictly smaller, and at production dims (multiples of
  // 32) the ratio approaches 4×.
  EXPECT_LT(qbytes, fbytes);
  EXPECT_GE(qbytes, static_cast<size_t>(n) * kDim);  // at least 1 B per value
}

}  // namespace
}  // namespace traj2hash::ingest
