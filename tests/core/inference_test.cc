// The inference encoder behind Traj2Hash::Embed is a second execution path
// for the same math as the autograd EncodeContinuous (DESIGN.md §8). These
// tests pin the two together bitwise — no epsilon — across every config the
// model accepts and every kernel backend this host can run, and check that
// concurrent Embed / EmbedBatch calls return the serial result.

#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/cpu_features.h"
#include "common/thread_pool.h"
#include "core/model.h"
#include "embedding/node2vec.h"
#include "traj/synthetic.h"

namespace traj2hash::core {
namespace {

bool BitIdentical(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::vector<float> Autograd(const Traj2Hash& model,
                            const traj::Trajectory& t) {
  nn::NoGradGuard no_grad;
  return model.EncodeContinuous(t)->value();
}

/// Porto-like trips plus the edge lengths: 1 and 2 points, and one trip
/// longer than the cached position table (built from corpus points, so
/// every point stays inside the fitted grid).
std::vector<traj::Trajectory> Trips(std::vector<traj::Trajectory>* corpus) {
  Rng rng(5);
  traj::CityConfig city = traj::CityConfig::PortoLike();
  city.max_points = 24;
  *corpus = GenerateTrips(city, 30, rng);
  std::vector<traj::Trajectory> trips(corpus->begin(), corpus->begin() + 4);
  traj::Trajectory one = (*corpus)[4];
  one.points.resize(1);
  traj::Trajectory two = (*corpus)[5];
  two.points.resize(2);
  traj::Trajectory longer;
  for (const traj::Trajectory& t : *corpus) {
    for (const traj::Point& p : t.points) {
      if (longer.points.size() < kCachedPositions + 3) {
        longer.points.push_back(p);
      }
    }
  }
  EXPECT_GT(longer.points.size(), static_cast<size_t>(kCachedPositions));
  trips.push_back(one);
  trips.push_back(two);
  trips.push_back(longer);
  return trips;
}

/// Moves every parameter off its initial value (zero biases, unit layer-norm
/// scales) so each one visibly feeds the output.
void PerturbParameters(Traj2Hash& model, Rng& rng) {
  for (const nn::Tensor& p : model.AllParameters()) {
    for (float& v : p->value()) v += static_cast<float>(rng.Gaussian(0.1));
  }
}

enum class GridKind { kOff, kDecomposed, kNode2vec };

const char* GridName(GridKind g) {
  switch (g) {
    case GridKind::kOff:
      return "no-grid";
    case GridKind::kDecomposed:
      return "decomposed";
    case GridKind::kNode2vec:
      return "node2vec";
  }
  return "?";
}

class EmbedBitIdentityTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    const auto parsed = ParseKernelIsa(GetParam());
    ASSERT_TRUE(parsed.ok());
    isa_ = parsed.value();
    if (!KernelIsaAvailable(isa_)) {
      GTEST_SKIP() << "SKIPPED: no " << GetParam()
                   << " (not compiled in or unsupported by this CPU)";
    }
  }

  KernelIsa isa_ = KernelIsa::kScalar;
};

TEST_P(EmbedBitIdentityTest, EmbedEqualsAutogradAcrossConfigGrid) {
  ScopedKernelIsa pin(isa_);
  std::vector<traj::Trajectory> corpus;
  const std::vector<traj::Trajectory> trips = Trips(&corpus);
  // {dim, heads, blocks}: an orthogonal array, so every pair of values of
  // the three shape axes occurs once.
  const int shapes[][3] = {{16, 1, 1}, {16, 4, 2}, {64, 1, 2}, {64, 4, 1}};
  int checked = 0;
  for (const ReadOut read_out :
       {ReadOut::kLowerBound, ReadOut::kMean, ReadOut::kCls}) {
    for (const bool layer_norm : {false, true}) {
      for (const GridKind grid :
           {GridKind::kOff, GridKind::kDecomposed, GridKind::kNode2vec}) {
        for (const bool rev_aug : {false, true}) {
          for (const auto& shape : shapes) {
            Traj2HashConfig cfg;
            cfg.dim = shape[0];
            cfg.num_heads = shape[1];
            cfg.num_blocks = shape[2];
            cfg.read_out = read_out;
            cfg.use_layer_norm = layer_norm;
            cfg.use_grid_channel = grid != GridKind::kOff;
            cfg.use_rev_aug = rev_aug;
            cfg.fine_cell_m = 500.0;  // keeps the node2vec table small
            Rng rng(100 + checked);
            auto model =
                std::move(Traj2Hash::Create(cfg, corpus, rng).value());
            if (grid == GridKind::kNode2vec) {
              // A width unlike dim, so the grid channel's own position
              // table and input layer are exercised.
              model->UseGridRepresentation(
                  std::make_unique<embedding::Node2vecGridEmbedding>(
                      model->fine_grid().num_x(), model->fine_grid().num_y(),
                      12, rng),
                  rng);
            }
            PerturbParameters(*model, rng);
            std::ostringstream name;
            name << GetParam() << " read_out=" << static_cast<int>(read_out)
                 << " ln=" << layer_norm << " grid=" << GridName(grid)
                 << " rev=" << rev_aug << " d=" << cfg.dim
                 << " heads=" << cfg.num_heads
                 << " blocks=" << cfg.num_blocks;
            for (const traj::Trajectory& t : trips) {
              const std::vector<float> fast = model->Embed(t);
              ASSERT_EQ(fast.size(), static_cast<size_t>(cfg.dim));
              EXPECT_TRUE(BitIdentical(fast, Autograd(*model, t)))
                  << name.str() << " points=" << t.size();
            }
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, 3 * 2 * 3 * 2 * 4);
}

INSTANTIATE_TEST_SUITE_P(AllIsas, EmbedBitIdentityTest,
                         ::testing::Values("scalar", "sse2", "avx2"),
                         [](const auto& info) { return info.param; });

/// Eight threads embed the same trips while a pool runs EmbedBatch over
/// them; every result must equal the serial one bitwise. A scratch buffer or
/// cache shared across threads would tear some of them.
TEST(EmbedConcurrencyTest, ThreadsAndBatchMatchSerialStress) {
  Rng rng(9);
  traj::CityConfig city = traj::CityConfig::PortoLike();
  city.max_points = 24;
  const std::vector<traj::Trajectory> trips = GenerateTrips(city, 200, rng);
  Traj2HashConfig cfg;
  cfg.dim = 16;
  cfg.num_heads = 2;
  auto model = std::move(Traj2Hash::Create(cfg, trips, rng).value());
  std::vector<std::vector<float>> serial;
  for (const traj::Trajectory& t : trips) serial.push_back(model->Embed(t));

  constexpr int kThreads = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      // Each thread walks the trips from its own offset, so different
      // lengths run side by side.
      for (size_t j = 0; j < trips.size(); ++j) {
        const size_t i = (j + 25 * w) % trips.size();
        if (!BitIdentical(model->Embed(trips[i]), serial[i])) ++mismatches[w];
      }
    });
  }
  ThreadPool pool(3);
  const std::vector<std::vector<float>> batch = model->EmbedBatch(trips, &pool);
  for (std::thread& t : threads) t.join();

  for (int w = 0; w < kThreads; ++w) EXPECT_EQ(mismatches[w], 0) << w;
  ASSERT_EQ(batch.size(), trips.size());
  for (size_t i = 0; i < trips.size(); ++i) {
    EXPECT_TRUE(BitIdentical(batch[i], serial[i])) << i;
  }
}

}  // namespace
}  // namespace traj2hash::core
