// QueryEngine with the quantized store (DESIGN.md §17): the quantize knob
// must leave Hamming serving bit-identical to a float engine, QueryRerank
// must return exactly what the index's QueryRerankTopK returns (the
// engine's staged path adds admission, deadline, cache and stats), and quant_stats / QuantJson must surface the
// resident-bytes gauge and the re-ranker counters.
#include "serve/engine.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/trainer.h"
#include "search/code.h"
#include "serve/stats.h"
#include "traj/synthetic.h"

namespace traj2hash::serve {
namespace {

struct Env {
  std::vector<traj::Trajectory> corpus;
  std::unique_ptr<core::Traj2Hash> model;
};

Env MakeEnv(int count = 160) {
  Env env;
  Rng rng(29);
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

TEST(EngineQuantTest, HammingServingIsBitIdenticalToFloatEngine) {
  Env env = MakeEnv();
  const std::vector<traj::Trajectory> db(env.corpus.begin(),
                                         env.corpus.begin() + 120);
  QueryEngine floats(env.model.get(), {.num_threads = 3, .num_shards = 4});
  QueryEngine quantized(env.model.get(),
                        {.num_threads = 3, .num_shards = 4, .quantize = true});
  ASSERT_TRUE(floats.InsertAll(db).ok());
  ASSERT_TRUE(quantized.InsertAll(db).ok());

  // Codes are never quantized, so Query is unaffected by the store mode.
  for (int q = 120; q < 140; ++q) {
    const auto want = floats.Query(env.corpus[q], 7);
    const auto got = quantized.Query(env.corpus[q], 7);
    ASSERT_EQ(got.neighbors.size(), want.neighbors.size()) << q;
    for (size_t i = 0; i < want.neighbors.size(); ++i) {
      EXPECT_EQ(got.neighbors[i].index, want.neighbors[i].index) << q;
      EXPECT_EQ(got.neighbors[i].distance, want.neighbors[i].distance) << q;
    }
  }
}

TEST(EngineQuantTest, QueryRerankIsExactlyTheIndexRerankPlumbing) {
  Env env = MakeEnv();
  const std::vector<traj::Trajectory> db(env.corpus.begin(),
                                         env.corpus.begin() + 120);
  // rerank_candidates = 0 defaults to max(8·k, 64) per shard.
  QueryEngine engine(env.model.get(),
                     {.num_threads = 3, .num_shards = 4, .quantize = true});
  ASSERT_TRUE(engine.InsertAll(db).ok());

  for (int q = 120; q < 135; ++q) {
    for (const int k : {1, 4, 9}) {
      // The engine embeds, packs signs and fans out — reproduce that here
      // against the index directly.
      const std::vector<float> embedding = env.model->Embed(env.corpus[q]);
      const search::Code code = search::PackSigns(embedding);
      const auto want = engine.index().QueryRerankTopK(
          code, embedding, k, std::max(8 * k, 64));
      const QueryResult got = engine.QueryRerank(env.corpus[q], k);
      ASSERT_TRUE(got.complete);
      ASSERT_EQ(got.neighbors.size(), want.size()) << "q=" << q << " k=" << k;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got.neighbors[i].index, want[i].index);
        EXPECT_EQ(got.neighbors[i].distance, want[i].distance);
      }
    }
  }
}

TEST(EngineQuantTest, QuantStatsShowTheResidentCutAndCounters) {
  Env env = MakeEnv();
  const std::vector<traj::Trajectory> db(env.corpus.begin(),
                                         env.corpus.begin() + 120);
  QueryEngine floats(env.model.get(), {.num_threads = 2, .num_shards = 4});
  QueryEngine quantized(env.model.get(),
                        {.num_threads = 2, .num_shards = 4, .quantize = true});
  ASSERT_TRUE(floats.InsertAll(db).ok());
  ASSERT_TRUE(quantized.InsertAll(db).ok());

  const QuantSnapshot fsnap = floats.quant_stats();
  QuantSnapshot qsnap = quantized.quant_stats();
  EXPECT_FALSE(fsnap.quantize);
  EXPECT_TRUE(qsnap.quantize);
  // Both gauges are live and exact. At this model width (dim 8) the int8
  // rows pad to the same 32 B a float row occupies, so the quantized gauge
  // is only bounded by float + the per-shard param vectors here — the 4×
  // cut is a property of production dims (see the dim-12 live-index test
  // and bench_quant at dim 128), not of the gauge.
  EXPECT_EQ(fsnap.resident_bytes,
            static_cast<uint64_t>(120) * 8 * sizeof(float));
  EXPECT_GT(qsnap.resident_bytes, 0u);
  EXPECT_LE(qsnap.resident_bytes,
            fsnap.resident_bytes + 4u * 3u * 8u * sizeof(float));
  EXPECT_EQ(qsnap.rerank_queries, 0u);

  const int kQueries = 6;
  for (int q = 120; q < 120 + kQueries; ++q) {
    ASSERT_TRUE(quantized.QueryRerank(env.corpus[q], 3).complete);
  }
  qsnap = quantized.quant_stats();
  // Counters sum over shards: one engine query fans out to every shard.
  EXPECT_EQ(qsnap.rerank_queries, static_cast<uint64_t>(kQueries) * 4);
  EXPECT_GT(qsnap.rerank_candidates, 0u);
  EXPECT_GE(qsnap.rechecked, static_cast<uint64_t>(kQueries) * 3);
  EXPECT_EQ(qsnap.band_violations, 0u);
  EXPECT_GT(qsnap.requant_recheck_rate, 0.0);
  EXPECT_LE(qsnap.requant_recheck_rate, 1.0);
}

TEST(EngineQuantTest, QuantJsonCarriesTheDocumentedKeys) {
  Env env = MakeEnv(40);
  QueryEngine engine(env.model.get(),
                     {.num_threads = 2, .num_shards = 2, .quantize = true});
  ASSERT_TRUE(
      engine.InsertAll({env.corpus.begin(), env.corpus.begin() + 30}).ok());
  ASSERT_TRUE(engine.QueryRerank(env.corpus[31], 3).complete);

  const std::string json = QuantJson(engine.quant_stats());
  for (const char* key :
       {"\"quantize\": true", "\"resident_bytes\":", "\"rerank_queries\":",
        "\"rerank_candidates\":", "\"rechecked\":", "\"band_violations\":",
        "\"requant_recheck_rate\":", "\"band_width\":"}) {
    EXPECT_NE(json.find(key), std::string::npos)
        << "missing " << key << " in " << json;
  }
}

TEST(EngineQuantTest, FloatModeRerankSharesTheSameContract) {
  Env env = MakeEnv();
  const std::vector<traj::Trajectory> db(env.corpus.begin(),
                                         env.corpus.begin() + 100);
  QueryEngine engine(env.model.get(),
                     {.num_threads = 2, .num_shards = 3,
                      .rerank_candidates = 48});
  ASSERT_TRUE(engine.InsertAll(db).ok());
  for (int q = 100; q < 110; ++q) {
    const std::vector<float> embedding = env.model->Embed(env.corpus[q]);
    const search::Code code = search::PackSigns(embedding);
    const auto want =
        engine.index().QueryRerankTopK(code, embedding, 5, 48);
    const QueryResult got = engine.QueryRerank(env.corpus[q], 5);
    ASSERT_EQ(got.neighbors.size(), want.size()) << q;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got.neighbors[i].index, want[i].index);
      EXPECT_EQ(got.neighbors[i].distance, want[i].distance);
    }
  }
  EXPECT_FALSE(engine.quant_stats().quantize);
}

}  // namespace
}  // namespace traj2hash::serve
