#include "core/model.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/crc32.h"
#include "common/file_util.h"
#include "common/serialize.h"
#include "nn/ops.h"

namespace traj2hash::core {

using nn::Tensor;

Result<std::unique_ptr<Traj2Hash>> Traj2Hash::Create(
    const Traj2HashConfig& config,
    const std::vector<traj::Trajectory>& corpus, Rng& rng) {
  if (Status s = config.Validate(); !s.ok()) return s;
  if (corpus.empty()) {
    return Status::InvalidArgument("corpus must be non-empty");
  }
  traj::Normalizer normalizer;
  normalizer.Fit(corpus);
  const traj::BoundingBox box = traj::ComputeBoundingBox(corpus);
  Result<traj::Grid> fine = traj::Grid::Create(box, config.fine_cell_m);
  if (!fine.ok()) return fine.status();
  Result<traj::Grid> coarse = traj::Grid::Create(box, config.coarse_cell_m);
  if (!coarse.ok()) return coarse.status();
  return std::unique_ptr<Traj2Hash>(new Traj2Hash(
      config, std::move(normalizer), fine.value(), coarse.value(), rng));
}

Traj2Hash::Traj2Hash(const Traj2HashConfig& config,
                     traj::Normalizer normalizer, traj::Grid fine_grid,
                     traj::Grid coarse_grid, Rng& rng)
    : config_(config),
      normalizer_(std::move(normalizer)),
      fine_grid_(fine_grid),
      coarse_grid_(coarse_grid) {
  gps_encoder_ = std::make_unique<GpsEncoder>(
      config.dim, config.num_blocks, config.num_heads, config.read_out, rng,
      config.use_layer_norm);
  if (config.use_grid_channel) {
    decomposed_grids_ = std::make_unique<embedding::DecomposedGridEmbedding>(
        fine_grid_.num_x(), fine_grid_.num_y(), config.dim, rng);
    grid_encoder_ = std::make_unique<GridChannelEncoder>(
        decomposed_grids_.get(), config.dim, rng);
    fuse_ = std::make_unique<nn::Linear>(2 * config.dim, config.dim, rng);
  }
  projector_ = std::make_unique<nn::Linear>(config.dim, config.dim / 2, rng,
                                            /*use_bias=*/false);
  projector_full_ = std::make_unique<nn::Linear>(config.dim, config.dim, rng,
                                                 /*use_bias=*/false);
}

double Traj2Hash::PretrainGrids(const embedding::GridPretrainOptions& options,
                                Rng& rng) {
  if (!config_.use_grid_channel || decomposed_grids_ == nullptr) return 0.0;
  return decomposed_grids_->Pretrain(options, rng);
}

void Traj2Hash::UseGridRepresentation(
    std::unique_ptr<embedding::GridRepresentation> representation, Rng& rng) {
  T2H_CHECK_MSG(config_.use_grid_channel,
                "grid channel is ablated; nothing to replace");
  external_grids_ = std::move(representation);
  decomposed_grids_.reset();
  grid_encoder_ = std::make_unique<GridChannelEncoder>(external_grids_.get(),
                                                       config_.dim, rng);
}

std::vector<Tensor> Traj2Hash::TrainableParameters() const {
  std::vector<Tensor> params = gps_encoder_->Parameters();
  auto append = [&params](const std::vector<Tensor>& more) {
    params.insert(params.end(), more.begin(), more.end());
  };
  if (grid_encoder_) append(grid_encoder_->Parameters());
  if (fuse_) append(fuse_->Parameters());
  if (config_.use_rev_aug) {
    append(projector_->Parameters());
  } else {
    append(projector_full_->Parameters());
  }
  return params;
}

Tensor Traj2Hash::EncodeOneDirection(const traj::Trajectory& t) const {
  T2H_CHECK(!t.empty());
  const Tensor h_l = gps_encoder_->Forward(normalizer_.Apply(t));
  if (!config_.use_grid_channel) return h_l;
  const traj::GridTrajectory g = fine_grid_.Map(t);
  const Tensor h_g = grid_encoder_->Forward(g.cells);
  // Eq. 14: h = MLP_f([h_l, h_g]).
  return fuse_->Forward(nn::ConcatCols(h_l, h_g));
}

Tensor Traj2Hash::EncodeContinuous(const traj::Trajectory& t) const {
  const auto [h, h_r] = EncodeFused(t);
  return ProjectFused(h, h_r);
}

std::pair<Tensor, Tensor> Traj2Hash::EncodeFused(
    const traj::Trajectory& t) const {
  const Tensor h = EncodeOneDirection(t);
  if (!config_.use_rev_aug) return {h, nullptr};
  return {h, EncodeOneDirection(traj::Reversed(t))};
}

Tensor Traj2Hash::ProjectFused(const Tensor& h, const Tensor& h_r) const {
  if (!config_.use_rev_aug) {
    T2H_CHECK(h_r == nullptr);
    return projector_full_->Forward(h);
  }
  T2H_CHECK(h_r != nullptr);
  // Eq. 15: h_f = [W_p h, W_p h_r] — Lemma 3 gives the reverse symmetric
  // property to the concatenated representation.
  return nn::ConcatCols(projector_->Forward(h), projector_->Forward(h_r));
}

std::vector<Tensor> Traj2Hash::ProjectorParameters() const {
  return config_.use_rev_aug ? projector_->Parameters()
                             : projector_full_->Parameters();
}

std::vector<float> Traj2Hash::Embed(const traj::Trajectory& t) const {
  // The inference twin of EncodeContinuous (DESIGN.md §8): the same
  // arithmetic over plain buffers, so the result is bitwise equal to
  // EncodeContinuous(t)->value(). Both directions are stacked as rows of one
  // [dirs, width] feature matrix, so fuse and projection run once.
  T2H_CHECK(!t.empty());
  const int d = config_.dim;
  const int dirs = config_.use_rev_aug ? 2 : 1;
  const int width = grid_encoder_ ? 2 * d : d;  // [h_l, h_g] or h_l
  std::vector<traj::Point> points = normalizer_.Apply(t);
  std::vector<traj::Cell> cells;
  if (grid_encoder_) cells = fine_grid_.Map(t).cells;
  std::vector<float> features(static_cast<size_t>(dirs) * width), fused;
  for (int dir = 0; dir < dirs; ++dir) {
    if (dir == 1) {
      // T^r: normalising and grid-mapping are per point, so reversing
      // their outputs equals encoding traj::Reversed(t).
      std::reverse(points.begin(), points.end());
      std::reverse(cells.begin(), cells.end());
    }
    float* row = features.data() + static_cast<size_t>(dir) * width;
    gps_encoder_->Embed(points, row);
    if (grid_encoder_) grid_encoder_->Embed(cells, row + d);
  }
  const float* h = features.data();
  if (fuse_) {
    // Eq. 14: h = MLP_f([h_l, h_g]).
    fused.resize(static_cast<size_t>(dirs) * d);
    fuse_->Apply(features.data(), dirs, fused.data());
    h = fused.data();
  }
  // Eq. 15: the rows [W_p h; W_p h_r] laid end to end are [W_p h, W_p h_r].
  std::vector<float> out(d);
  (config_.use_rev_aug ? projector_ : projector_full_)
      ->Apply(h, dirs, out.data());
  return out;
}

std::vector<std::vector<float>> Traj2Hash::EmbedBatch(
    const std::vector<traj::Trajectory>& ts, ThreadPool* pool) const {
  std::vector<std::vector<float>> out(ts.size());
  if (pool == nullptr || pool->num_threads() <= 1 || ts.size() <= 1) {
    for (size_t i = 0; i < ts.size(); ++i) out[i] = Embed(ts[i]);
    return out;
  }
  // Contiguous chunks, a few per worker so uneven trip lengths still
  // balance, instead of one std::function per trip.
  const size_t chunks =
      std::min(ts.size(), static_cast<size_t>(pool->num_threads()) * 4);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(chunks);
  for (size_t c = 0; c < chunks; ++c) {
    const size_t begin = ts.size() * c / chunks;
    const size_t end = ts.size() * (c + 1) / chunks;
    tasks.push_back([this, &ts, &out, begin, end] {
      for (size_t i = begin; i < end; ++i) out[i] = Embed(ts[i]);
    });
  }
  pool->RunAll(std::move(tasks));
  return out;
}

Tensor Traj2Hash::RelaxedCode(const Tensor& h_f) const {
  return nn::Tanh(nn::Scale(h_f, beta_));
}

search::Code Traj2Hash::HashCode(const traj::Trajectory& t) const {
  return search::PackSigns(Embed(t));
}

std::vector<Tensor> Traj2Hash::PersistentTensors() const {
  std::vector<Tensor> all = gps_encoder_->Parameters();
  auto append = [&all](const std::vector<Tensor>& more) {
    all.insert(all.end(), more.begin(), more.end());
  };
  if (grid_encoder_) append(grid_encoder_->Parameters());
  if (fuse_) append(fuse_->Parameters());
  append(projector_->Parameters());
  append(projector_full_->Parameters());
  if (decomposed_grids_) append(decomposed_grids_->Parameters());
  return all;
}

std::vector<std::vector<float>> Traj2Hash::SnapshotParameters() const {
  std::vector<std::vector<float>> snapshot;
  for (const Tensor& p : PersistentTensors()) snapshot.push_back(p->value());
  return snapshot;
}

void Traj2Hash::RestoreParameters(
    const std::vector<std::vector<float>>& snapshot) {
  const std::vector<Tensor> tensors = PersistentTensors();
  T2H_CHECK_EQ(tensors.size(), snapshot.size());
  for (size_t i = 0; i < tensors.size(); ++i) {
    T2H_CHECK_EQ(tensors[i]->value().size(), snapshot[i].size());
    tensors[i]->value() = snapshot[i];
  }
}

namespace {

/// Structural fingerprint of the architecture-affecting config fields, so a
/// Load against a differently-shaped model fails with a clear message
/// instead of a tensor-size mismatch.
uint64_t ConfigFingerprint(const Traj2HashConfig& cfg) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull;
    h *= 1099511628211ull;
  };
  mix(static_cast<uint64_t>(cfg.dim));
  mix(static_cast<uint64_t>(cfg.num_blocks));
  mix(static_cast<uint64_t>(cfg.num_heads));
  mix(static_cast<uint64_t>(cfg.read_out));
  mix(cfg.use_layer_norm ? 1 : 0);
  mix(cfg.use_grid_channel ? 1 : 0);
  mix(cfg.use_rev_aug ? 1 : 0);
  return h;
}

// Model file layout, version 3 ("T2HASH3", DESIGN.md §11):
//   u64 magic | u32 version | u32 crc32 of everything after it |
//   u64 config fingerprint | u64 tensor count | count tensors of
//   { u64 n, n floats }.
// Version 2 ("T2HASH2") is the same minus version/crc; Load still reads it
// so checkpoints written before checksumming was added keep working, but
// they get no corruption detection.
constexpr uint64_t kModelMagicV2 = 0x54324841534832ull;  // "T2HASH2"
constexpr uint64_t kModelMagicV3 = 0x54324841534833ull;  // "T2HASH3"
constexpr uint32_t kModelVersion = 3;

}  // namespace

Status Traj2Hash::Save(const std::string& path) const {
  const std::vector<Tensor> tensors = PersistentTensors();
  std::string buffer;
  AppendPod(buffer, kModelMagicV3);
  AppendPod(buffer, kModelVersion);
  const size_t crc_pos = buffer.size();
  AppendPod(buffer, uint32_t{0});  // CRC placeholder, patched below
  AppendPod(buffer, ConfigFingerprint(config_));
  AppendPod(buffer, static_cast<uint64_t>(tensors.size()));
  for (const Tensor& t : tensors) {
    AppendPod(buffer, static_cast<uint64_t>(t->value().size()));
    buffer.append(reinterpret_cast<const char*>(t->value().data()),
                  t->value().size() * sizeof(float));
  }
  const uint32_t crc = Crc32(buffer.data() + crc_pos + sizeof(uint32_t),
                             buffer.size() - crc_pos - sizeof(uint32_t));
  std::memcpy(buffer.data() + crc_pos, &crc, sizeof(crc));
  return AtomicWriteFile(path, buffer);
}

Status Traj2Hash::Load(const std::string& path) {
  Result<std::string> read = ReadFileToString(path);
  if (!read.ok()) return read.status();
  const std::string& buffer = read.value();

  PayloadReader header(buffer, 0);
  const auto magic = header.Read<uint64_t>();
  bool checksummed = false;
  if (header.ok() && magic == kModelMagicV3) {
    checksummed = true;
    const auto version = header.Read<uint32_t>();
    const auto stored_crc = header.Read<uint32_t>();
    if (!header.ok()) {
      return Status::DataLoss("truncated model file header: " + path);
    }
    if (version != kModelVersion) {
      return Status::FailedPrecondition(
          "model file " + path + " has format version " +
          std::to_string(version) + ", this build reads version " +
          std::to_string(kModelVersion));
    }
    constexpr size_t kHeaderEnd =
        sizeof(uint64_t) + sizeof(uint32_t) + sizeof(uint32_t);
    const uint32_t actual_crc =
        Crc32(buffer.data() + kHeaderEnd, buffer.size() - kHeaderEnd);
    if (actual_crc != stored_crc) {
      return Status::DataLoss("model file checksum mismatch (torn write or "
                              "bit-flip corruption): " + path);
    }
  } else if (!header.ok() || magic != kModelMagicV2) {
    return Status::InvalidArgument("not a Traj2Hash model file: " + path);
  }

  PayloadReader reader = header;
  const auto fingerprint = reader.Read<uint64_t>();
  const auto count = reader.Read<uint64_t>();
  if (reader.ok() && fingerprint != ConfigFingerprint(config_)) {
    return Status::FailedPrecondition(
        "model file was saved with a different architecture config (dim/"
        "blocks/heads/read-out/ablation flags): " + path);
  }
  const std::vector<Tensor> tensors = PersistentTensors();
  if (reader.ok() && count != tensors.size()) {
    return Status::InvalidArgument(
        "model file has " + std::to_string(count) + " tensors, expected " +
        std::to_string(tensors.size()) + " (config mismatch?)");
  }
  // Parse into staging buffers and install only on full success, so a
  // corrupt file never leaves the model half-overwritten.
  std::vector<std::vector<float>> staged(tensors.size());
  for (size_t i = 0; reader.ok() && i < tensors.size(); ++i) {
    const auto n = reader.Read<uint64_t>();
    if (reader.ok() && n != tensors[i]->value().size()) {
      return Status::InvalidArgument("tensor size mismatch in " + path);
    }
    staged[i].resize(n);
    reader.ReadBytes(staged[i].data(), n * sizeof(float));
  }
  if (!reader.at_end()) {
    // With a valid checksum the bytes are authentic, so an overrun or
    // trailing garbage means the writer and reader disagree structurally;
    // without one it is most likely plain truncation. Either way: data loss.
    return checksummed
               ? Status::DataLoss("model file payload is malformed: " + path)
               : Status::DataLoss("truncated model file: " + path);
  }
  for (size_t i = 0; i < tensors.size(); ++i) {
    tensors[i]->value() = std::move(staged[i]);
  }
  return Status::Ok();
}

}  // namespace traj2hash::core
