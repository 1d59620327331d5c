#include "core/encoders.h"

#include <algorithm>

#include "nn/kernels.h"
#include "nn/ops.h"

namespace traj2hash::core {
namespace {

int CheckedDim(const embedding::GridRepresentation* representation) {
  T2H_CHECK(representation != nullptr);
  return representation->dim();
}

}  // namespace

using nn::Tensor;

GpsEncoder::GpsEncoder(int dim, int num_blocks, int num_heads,
                       ReadOut read_out, Rng& rng, bool use_layer_norm)
    : dim_(dim), read_out_(read_out), positions_(kCachedPositions, dim) {
  input_proj_ = std::make_unique<nn::Linear>(2, dim, rng);
  RegisterChild(*input_proj_);
  for (int i = 0; i < num_blocks; ++i) {
    blocks_.push_back(std::make_unique<nn::EncoderBlock>(
        dim, num_heads, 2 * dim, rng, use_layer_norm));
    RegisterChild(*blocks_.back());
  }
  if (read_out_ == ReadOut::kCls) {
    cls_ = RegisterParameter(nn::MakeTensor(1, dim, true));
    nn::GaussianInit(cls_, 0.1f, rng);
  }
}

Tensor GpsEncoder::Forward(
    const std::vector<traj::Point>& normalized) const {
  T2H_CHECK(!normalized.empty());
  const int n = static_cast<int>(normalized.size());
  Tensor coords = nn::MakeTensor(n, 2, false);
  for (int i = 0; i < n; ++i) {
    coords->at(i, 0) = static_cast<float>(normalized[i].x);
    coords->at(i, 1) = static_cast<float>(normalized[i].y);
  }
  // Eq. 10: e_l = MLP_e(Normalize(lat, lon)); normalisation happened
  // upstream (the encoder sees already-normalised coordinates).
  Tensor x = input_proj_->Forward(coords);
  if (read_out_ == ReadOut::kCls) {
    x = nn::ConcatRows(cls_, x);
  }
  x = nn::Add(x, nn::PositionalEncoding(x->rows(), x->cols()));
  for (const auto& block : blocks_) {
    x = block->Forward(x);
  }
  switch (read_out_) {
    case ReadOut::kLowerBound:
      // Eq. 13: the first point's embedding is the trajectory embedding,
      // anchoring the representation on the Lemma 1 lower bound.
      return nn::SliceRows(x, 0, 1);
    case ReadOut::kCls:
      return nn::SliceRows(x, 0, 1);
    case ReadOut::kMean:
      return nn::MeanRows(x);
  }
  T2H_CHECK_MSG(false, "unknown read-out");
  return {};
}

void GpsEncoder::Embed(const std::vector<traj::Point>& normalized,
                       float* out) const {
  T2H_CHECK(!normalized.empty());
  const int n = static_cast<int>(normalized.size());
  const int cls_rows = read_out_ == ReadOut::kCls ? 1 : 0;
  const int rows = n + cls_rows;
  const auto coords = nn::Scratch(2L * n);
  for (int i = 0; i < n; ++i) {
    coords[2 * i] = static_cast<float>(normalized[i].x);
    coords[2 * i + 1] = static_cast<float>(normalized[i].y);
  }
  const auto x_buf = nn::Scratch(static_cast<long>(rows) * dim_);
  const auto y_buf = nn::Scratch(static_cast<long>(rows) * dim_);
  float *x = x_buf.get(), *y = y_buf.get();
  input_proj_->Apply(coords.get(), n, x + static_cast<long>(cls_rows) * dim_);
  if (cls_rows == 1) std::copy_n(cls_->value().data(), dim_, x);
  positions_.AddTo(x, rows);
  // A first-token read-out keeps row 0 only, so the last block computes
  // just that row (all rows still serve as keys and values).
  int live_rows = rows;
  for (size_t b = 0; b < blocks_.size(); ++b) {
    if (b + 1 == blocks_.size() && read_out_ != ReadOut::kMean) live_rows = 1;
    blocks_[b]->Apply(x, rows, live_rows, y);
    std::swap(x, y);
  }
  if (read_out_ == ReadOut::kMean) {
    nn::kernels::MeanRowsFwd(x, out, rows, dim_);
  } else {
    std::copy_n(x, dim_, out);
  }
}

GridChannelEncoder::GridChannelEncoder(
    const embedding::GridRepresentation* representation, int dim, Rng& rng)
    : representation_(representation),
      dim_(dim),
      positions_(kCachedPositions, CheckedDim(representation)) {
  // Eq. 9: MLP_g is a two-layer fully connected network with ReLU.
  mlp_ = std::make_unique<nn::Mlp>(
      std::vector<int>{representation->dim(), dim, dim}, rng);
  RegisterChild(*mlp_);
}

Tensor GridChannelEncoder::Forward(
    const std::vector<traj::Cell>& cells) const {
  T2H_CHECK(!cells.empty());
  Tensor e = representation_->SequenceEmbedding(cells);
  // Eq. 8: add sinusoidal positions, then MLP + mean pooling (Eq. 9).
  e = nn::Add(e, nn::PositionalEncoding(e->rows(), e->cols()));
  return nn::MeanRows(mlp_->Forward(e));
}

void GridChannelEncoder::Embed(const std::vector<traj::Cell>& cells,
                               float* out) const {
  T2H_CHECK(!cells.empty());
  const int n = static_cast<int>(cells.size());
  const auto e = nn::Scratch(static_cast<long>(n) * positions_.dim());
  representation_->SequenceEmbeddingInto(cells, e.get());
  positions_.AddTo(e.get(), n);
  const auto h = nn::Scratch(static_cast<long>(n) * dim_);
  mlp_->Apply(e.get(), n, h.get());
  nn::kernels::MeanRowsFwd(h.get(), out, n, dim_);
}

}  // namespace traj2hash::core
