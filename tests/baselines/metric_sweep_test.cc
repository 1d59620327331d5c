// Parameterised sweep: every WMSE-trainable baseline must train under every
// measure and beat an untrained copy of itself on validation HR@10.

#include <ostream>

#include <gtest/gtest.h>

#include "baselines/metric_trainer.h"
#include "baselines/neutraj.h"
#include "baselines/trajgat.h"
#include "baselines/transformer.h"
#include "distance/distance.h"
#include "eval/metrics.h"
#include "traj/synthetic.h"

namespace traj2hash::baselines {
namespace {

struct Env {
  std::vector<traj::Trajectory> corpus;
  traj::Normalizer normalizer;
  traj::BoundingBox box;
  std::vector<traj::Trajectory> seeds;
  std::vector<traj::Trajectory> val_q;
  std::vector<traj::Trajectory> val_db;
};

Env MakeEnv() {
  Env env;
  Rng rng(71);
  traj::CityConfig city = traj::CityConfig::ChengduLike();
  city.max_points = 12;
  env.corpus = GenerateTrips(city, 72, rng);
  env.normalizer.Fit(env.corpus);
  env.box = traj::ComputeBoundingBox(env.corpus);
  env.seeds.assign(env.corpus.begin(), env.corpus.begin() + 24);
  env.val_q.assign(env.corpus.begin() + 24, env.corpus.begin() + 32);
  env.val_db.assign(env.corpus.begin() + 32, env.corpus.end());
  return env;
}

struct Case {
  const char* encoder;
  dist::Measure measure;
};

// Names the case in test listings by encoder and measure; gtest's default
// byte dump would print the `encoder` pointer, so the listed test name would
// change from one process to the next.
void PrintTo(const Case& c, std::ostream* os) {
  *os << c.encoder << " on " << dist::MeasureName(c.measure);
}

class BaselineSweepTest : public ::testing::TestWithParam<Case> {};

std::unique_ptr<NeuralEncoder> MakeEncoder(const char* name, const Env& env,
                                           traj::Grid* grid,
                                           PrQuadtree* tree, Rng& rng) {
  const std::string n = name;
  if (n == "gru") {
    return std::make_unique<GruTrajEncoder>(8, &env.normalizer, rng);
  }
  if (n == "neutraj") {
    return std::make_unique<NeuTrajEncoder>(8, &env.normalizer, grid, rng);
  }
  if (n == "transformer") {
    return std::make_unique<TransformerEncoder>(8, 1, 2, core::ReadOut::kCls,
                                                &env.normalizer, rng);
  }
  return std::make_unique<TrajGatEncoder>(8, 1, 2, tree, env.box, rng);
}

TEST_P(BaselineSweepTest, TrainingImprovesValidationHr10) {
  const auto [name, measure] = GetParam();
  Env env = MakeEnv();
  traj::Grid grid = traj::Grid::Create(env.box, 50.0).value();
  PrQuadtree tree(env.box, 10, 4);
  {
    std::vector<traj::Point> pts;
    for (const auto& t : env.corpus) {
      pts.insert(pts.end(), t.points.begin(), t.points.end());
    }
    tree.Build(pts);
  }
  Rng rng(72);
  auto encoder = MakeEncoder(name, env, &grid, &tree, rng);

  const auto distances =
      dist::PairwiseMatrix(env.seeds, dist::GetDistance(measure));
  const auto truth = eval::ExactTopK(env.val_q, env.val_db,
                                     dist::GetDistance(measure), 50);
  const double before =
      eval::EvaluateEuclidean(EmbedAll(*encoder, env.val_q),
                              EmbedAll(*encoder, env.val_db), truth)
          .hr10;
  MetricTrainOptions opt;
  opt.epochs = 4;
  opt.samples_per_anchor = 6;
  opt.batch_size = 8;
  const auto report = TrainMetric(encoder.get(), env.seeds, distances,
                                  env.val_q, env.val_db, truth, opt, rng);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Best-epoch selection guarantees the final model is at least as good on
  // validation as any epoch; require it not to be worse than untrained.
  EXPECT_GE(report.value().best_val_hr10, before - 1e-9)
      << name << "/" << dist::MeasureName(measure);
}

INSTANTIATE_TEST_SUITE_P(
    EncodersTimesMeasures, BaselineSweepTest,
    ::testing::Values(Case{"gru", dist::Measure::kFrechet},
                      Case{"gru", dist::Measure::kHausdorff},
                      Case{"neutraj", dist::Measure::kDtw},
                      Case{"transformer", dist::Measure::kHausdorff},
                      Case{"transformer", dist::Measure::kDtw},
                      Case{"trajgat", dist::Measure::kFrechet}),
    [](const auto& info) {
      return std::string(info.param.encoder) + "_" +
             dist::MeasureName(info.param.measure);
    });

}  // namespace
}  // namespace traj2hash::baselines
