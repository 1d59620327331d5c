#include "core/model.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "core/trainer.h"
#include "distance/distance.h"
#include "embedding/node2vec.h"
#include "traj/synthetic.h"

namespace traj2hash::core {
namespace {

Traj2HashConfig TinyConfig() {
  Traj2HashConfig cfg;
  cfg.dim = 16;
  cfg.num_blocks = 1;
  cfg.num_heads = 2;
  cfg.epochs = 1;
  return cfg;
}

std::vector<traj::Trajectory> Corpus(int n, uint64_t seed = 11) {
  Rng rng(seed);
  traj::CityConfig city = traj::CityConfig::PortoLike();
  city.max_points = 16;
  return GenerateTrips(city, n, rng);
}

double EuclideanDist(const std::vector<float>& a,
                     const std::vector<float>& b) {
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    acc += (a[i] - b[i]) * (a[i] - b[i]);
  }
  return std::sqrt(acc);
}

TEST(ModelTest, CreateValidatesInput) {
  Rng rng(1);
  Traj2HashConfig bad = TinyConfig();
  bad.dim = 15;
  EXPECT_FALSE(Traj2Hash::Create(bad, Corpus(5), rng).ok());
  EXPECT_FALSE(Traj2Hash::Create(TinyConfig(), {}, rng).ok());
  EXPECT_TRUE(Traj2Hash::Create(TinyConfig(), Corpus(5), rng).ok());
}

TEST(ModelTest, EmbeddingHasConfiguredDimension) {
  Rng rng(2);
  const auto corpus = Corpus(10);
  auto model = std::move(Traj2Hash::Create(TinyConfig(), corpus, rng).value());
  EXPECT_EQ(model->Embed(corpus[0]).size(), 16u);
  EXPECT_EQ(model->HashCode(corpus[0]).num_bits, 16);
}

TEST(ModelTest, ReverseSymmetricPropertyHolds) {
  // Lemma 3: with reverse augmentation,
  // E(h_f(T1), h_f(T2)) == E(h_f(T1^r), h_f(T2^r)).
  Rng rng(3);
  const auto corpus = Corpus(10);
  auto model = std::move(Traj2Hash::Create(TinyConfig(), corpus, rng).value());
  for (int i = 0; i + 1 < 8; i += 2) {
    const double fwd = EuclideanDist(model->Embed(corpus[i]),
                                     model->Embed(corpus[i + 1]));
    const double rev =
        EuclideanDist(model->Embed(traj::Reversed(corpus[i])),
                      model->Embed(traj::Reversed(corpus[i + 1])));
    EXPECT_NEAR(fwd, rev, 1e-4 * (1.0 + fwd));
  }
}

TEST(ModelTest, WithoutRevAugPropertyGenerallyBreaks) {
  // Sanity check of the ablation: -RevAug should NOT satisfy Lemma 3.
  Rng rng(4);
  Traj2HashConfig cfg = TinyConfig();
  cfg.use_rev_aug = false;
  const auto corpus = Corpus(10, 12);
  auto model = std::move(Traj2Hash::Create(cfg, corpus, rng).value());
  double total_gap = 0.0;
  for (int i = 0; i + 1 < 8; i += 2) {
    const double fwd = EuclideanDist(model->Embed(corpus[i]),
                                     model->Embed(corpus[i + 1]));
    const double rev =
        EuclideanDist(model->Embed(traj::Reversed(corpus[i])),
                      model->Embed(traj::Reversed(corpus[i + 1])));
    total_gap += std::abs(fwd - rev);
  }
  EXPECT_GT(total_gap, 1e-4);
}

TEST(ModelTest, AblatedGridChannelStillEncodes) {
  Rng rng(5);
  Traj2HashConfig cfg = TinyConfig();
  cfg.use_grid_channel = false;
  const auto corpus = Corpus(6);
  auto model = std::move(Traj2Hash::Create(cfg, corpus, rng).value());
  EXPECT_EQ(model->Embed(corpus[0]).size(), 16u);
  EXPECT_DOUBLE_EQ(model->PretrainGrids({}, rng), 0.0);  // no-op
}

TEST(ModelTest, TrainableParametersExcludeFrozenGrids) {
  Rng rng(6);
  const auto corpus = Corpus(6);
  auto with_grids =
      std::move(Traj2Hash::Create(TinyConfig(), corpus, rng).value());
  Traj2HashConfig no_grids_cfg = TinyConfig();
  no_grids_cfg.use_grid_channel = false;
  Rng rng2(6);
  auto without =
      std::move(Traj2Hash::Create(no_grids_cfg, corpus, rng2).value());
  // Grid channel adds the MLP_g and fuse parameters but NOT the (frozen)
  // coordinate tables, whose combined entries would dwarf everything else.
  size_t with_total = 0, without_total = 0;
  for (const auto& p : with_grids->TrainableParameters()) {
    with_total += p->value().size();
  }
  for (const auto& p : without->TrainableParameters()) {
    without_total += p->value().size();
  }
  const auto& grid = with_grids->fine_grid();
  const size_t table_entries =
      static_cast<size_t>(grid.num_x() + grid.num_y()) * 16;
  EXPECT_GT(with_total, without_total);
  EXPECT_LT(with_total, without_total + table_entries);
}

TEST(ModelTest, RelaxedCodeSharpensWithBeta) {
  Rng rng(7);
  const auto corpus = Corpus(6);
  auto model = std::move(Traj2Hash::Create(TinyConfig(), corpus, rng).value());
  const nn::Tensor h = model->EncodeContinuous(corpus[0]);
  model->set_beta(1.0f);
  const nn::Tensor soft = model->RelaxedCode(h);
  model->set_beta(50.0f);
  const nn::Tensor hard = model->RelaxedCode(h);
  double soft_mag = 0.0, hard_mag = 0.0;
  for (int c = 0; c < h->cols(); ++c) {
    soft_mag += std::abs(soft->at(0, c));
    hard_mag += std::abs(hard->at(0, c));
  }
  EXPECT_GT(hard_mag, soft_mag);
  for (int c = 0; c < h->cols(); ++c) {
    EXPECT_LE(std::abs(hard->at(0, c)), 1.0f);
  }
}

TEST(ModelTest, HashCodeMatchesEmbeddingSigns) {
  Rng rng(8);
  const auto corpus = Corpus(6);
  auto model = std::move(Traj2Hash::Create(TinyConfig(), corpus, rng).value());
  const std::vector<float> emb = model->Embed(corpus[2]);
  const search::Code code = model->HashCode(corpus[2]);
  for (size_t b = 0; b < emb.size(); ++b) {
    const bool bit = (code.words[b / 64] >> (b % 64)) & 1ull;
    EXPECT_EQ(bit, emb[b] > 0.0f) << b;
  }
}

TEST(ModelTest, SnapshotRestoreRoundTrip) {
  Rng rng(9);
  const auto corpus = Corpus(6);
  auto model = std::move(Traj2Hash::Create(TinyConfig(), corpus, rng).value());
  const auto snapshot = model->SnapshotParameters();
  const auto before = model->Embed(corpus[0]);
  // Perturb all parameters.
  for (const auto& p : model->TrainableParameters()) {
    for (float& v : p->value()) v += 0.37f;
  }
  EXPECT_NE(model->Embed(corpus[0]), before);
  model->RestoreParameters(snapshot);
  EXPECT_EQ(model->Embed(corpus[0]), before);
}

// Embed reads the parameter tensors at call time. After every way the
// weights can change it must still equal the autograd path bitwise; a
// compiled or cached copy of the weights would go stale here.
TEST(ModelTest, EmbedStaysBitIdenticalToAutogradAcrossParameterMutations) {
  Rng rng(31);
  const auto corpus = Corpus(24);
  Traj2HashConfig cfg = TinyConfig();
  cfg.fine_cell_m = 500.0;  // keeps the node2vec table small
  cfg.samples_per_anchor = 4;
  cfg.batch_size = 8;
  cfg.triplet_batch_size = 4;
  auto model = std::move(Traj2Hash::Create(cfg, corpus, rng).value());
  const traj::Trajectory& probe = corpus[0];
  auto expect_fresh = [&](const char* after) {
    for (int i = 0; i < 4; ++i) {
      std::vector<float> autograd;
      {
        nn::NoGradGuard no_grad;
        autograd = model->EncodeContinuous(corpus[i])->value();
      }
      const std::vector<float> fast = model->Embed(corpus[i]);
      EXPECT_EQ(0, std::memcmp(fast.data(), autograd.data(),
                               fast.size() * sizeof(float)))
          << "after " << after << ", trip " << i;
    }
  };
  expect_fresh("construction");
  const auto initial = model->SnapshotParameters();
  const auto initial_probe = model->Embed(probe);

  Rng other_rng(77);
  auto other = std::move(Traj2Hash::Create(cfg, corpus, other_rng).value());
  const std::string path =
      (std::filesystem::temp_directory_path() / "t2h_fresh_test.bin").string();
  ASSERT_TRUE(other->Save(path).ok());
  ASSERT_TRUE(model->Load(path).ok());
  std::remove(path.c_str());
  expect_fresh("Load");
  EXPECT_EQ(model->Embed(probe), other->Embed(probe));
  EXPECT_NE(model->Embed(probe), initial_probe);

  model->RestoreParameters(initial);
  expect_fresh("RestoreParameters");
  EXPECT_EQ(model->Embed(probe), initial_probe);

  auto n2v = std::make_unique<embedding::Node2vecGridEmbedding>(
      model->fine_grid().num_x(), model->fine_grid().num_y(), cfg.dim, rng);
  model->UseGridRepresentation(std::move(n2v), rng);
  expect_fresh("UseGridRepresentation");
  const auto swapped_probe = model->Embed(probe);
  EXPECT_NE(swapped_probe, initial_probe);

  TrainingData data;
  data.seeds.assign(corpus.begin(), corpus.begin() + 16);
  data.seed_distances = dist::PairwiseMatrix(
      data.seeds, dist::GetDistance(dist::Measure::kFrechet));
  data.triplet_corpus = corpus;
  Trainer trainer(model.get(), TrainerOptions{.triplets_per_step = 2,
                                              .refine_epochs = 0});
  ASSERT_TRUE(trainer.Fit(data, rng).ok());
  expect_fresh("one trainer epoch");
  EXPECT_NE(model->Embed(probe), swapped_probe);
}

TEST(ModelTest, SaveLoadRoundTrip) {
  Rng rng(10);
  const auto corpus = Corpus(6);
  auto model = std::move(Traj2Hash::Create(TinyConfig(), corpus, rng).value());
  const auto before = model->Embed(corpus[1]);
  const std::string path =
      (std::filesystem::temp_directory_path() / "t2h_model_test.bin").string();
  ASSERT_TRUE(model->Save(path).ok());

  Rng rng2(999);  // different init
  auto loaded = std::move(Traj2Hash::Create(TinyConfig(), corpus, rng2).value());
  EXPECT_NE(loaded->Embed(corpus[1]), before);
  ASSERT_TRUE(loaded->Load(path).ok());
  EXPECT_EQ(loaded->Embed(corpus[1]), before);
  std::remove(path.c_str());
}

TEST(ModelTest, LoadRejectsArchitectureMismatch) {
  Rng rng(12);
  const auto corpus = Corpus(6);
  auto model = std::move(Traj2Hash::Create(TinyConfig(), corpus, rng).value());
  const std::string path =
      (std::filesystem::temp_directory_path() / "t2h_fingerprint.bin")
          .string();
  ASSERT_TRUE(model->Save(path).ok());

  Traj2HashConfig other = TinyConfig();
  other.read_out = ReadOut::kMean;  // different architecture
  Rng rng2(13);
  auto mismatched =
      std::move(Traj2Hash::Create(other, corpus, rng2).value());
  const Status s = mismatched->Load(path);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(ModelTest, LoadRejectsTruncatedAndBitFlippedFiles) {
  Rng rng(14);
  const auto corpus = Corpus(6);
  auto model = std::move(Traj2Hash::Create(TinyConfig(), corpus, rng).value());
  const std::string path =
      (std::filesystem::temp_directory_path() / "t2h_corrupt_model.bin")
          .string();
  ASSERT_TRUE(model->Save(path).ok());
  std::string contents;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    contents = buf.str();
  }

  Rng rng2(15);
  auto victim = std::move(Traj2Hash::Create(TinyConfig(), corpus, rng2).value());
  const auto before = victim->Embed(corpus[0]);

  // Truncation: the checksum no longer matches.
  {
    std::ofstream out(path, std::ios::binary);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size() / 2));
  }
  EXPECT_EQ(victim->Load(path).code(), StatusCode::kDataLoss);

  // Single bit flip deep in the tensor payload.
  std::string flipped = contents;
  flipped[flipped.size() - 5] ^= 0x20;
  {
    std::ofstream out(path, std::ios::binary);
    out.write(flipped.data(), static_cast<std::streamsize>(flipped.size()));
  }
  EXPECT_EQ(victim->Load(path).code(), StatusCode::kDataLoss);

  // Failed loads must leave the model parameters untouched.
  EXPECT_EQ(victim->Embed(corpus[0]), before);
  std::remove(path.c_str());
}

TEST(ModelTest, LoadAcceptsLegacyUnchecksummedFormat) {
  Rng rng(16);
  const auto corpus = Corpus(6);
  auto model = std::move(Traj2Hash::Create(TinyConfig(), corpus, rng).value());
  const auto expected = model->Embed(corpus[1]);
  const std::string path =
      (std::filesystem::temp_directory_path() / "t2h_legacy_model.bin")
          .string();
  ASSERT_TRUE(model->Save(path).ok());
  std::string v3;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    v3 = buf.str();
  }
  // The v2 layout is the v3 layout minus the version+crc words and with the
  // old magic, so a legacy file can be synthesised from a fresh save.
  const uint64_t legacy_magic = 0x54324841534832ull;  // "T2HASH2"
  std::string v2(reinterpret_cast<const char*>(&legacy_magic),
                 sizeof(legacy_magic));
  v2.append(v3, sizeof(uint64_t) + 2 * sizeof(uint32_t), std::string::npos);
  {
    std::ofstream out(path, std::ios::binary);
    out.write(v2.data(), static_cast<std::streamsize>(v2.size()));
  }

  Rng rng2(17);
  auto loaded = std::move(Traj2Hash::Create(TinyConfig(), corpus, rng2).value());
  ASSERT_TRUE(loaded->Load(path).ok());
  EXPECT_EQ(loaded->Embed(corpus[1]), expected);
  std::remove(path.c_str());
}

TEST(ModelTest, LoadRejectsGarbageAndMissing) {
  Rng rng(11);
  const auto corpus = Corpus(6);
  auto model = std::move(Traj2Hash::Create(TinyConfig(), corpus, rng).value());
  EXPECT_FALSE(model->Load("/nonexistent/m.bin").ok());
  const std::string path =
      (std::filesystem::temp_directory_path() / "t2h_garbage.bin").string();
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a model";
  }
  EXPECT_FALSE(model->Load(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace traj2hash::core
