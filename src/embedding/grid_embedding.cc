#include "embedding/grid_embedding.h"

#include <algorithm>
#include <cmath>

#include "nn/adam.h"
#include "nn/ops.h"

namespace traj2hash::embedding {
namespace {

using nn::Tensor;

/// -log(sigmoid(x)) = log(1 + exp(-x)), built from primitives. Inputs are
/// small dot products during pre-training, so the naive form is stable.
Tensor NegLogSigmoid(const Tensor& x) {
  return nn::Log(nn::AddScalar(nn::Exp(nn::Scale(x, -1.0f)), 1.0f));
}

}  // namespace

DecomposedGridEmbedding::DecomposedGridEmbedding(int num_x, int num_y, int dim,
                                                 Rng& rng)
    : num_x_(num_x), num_y_(num_y), dim_(dim) {
  T2H_CHECK(num_x > 0 && num_y > 0 && dim > 0);
  x_table_ = std::make_unique<nn::Embedding>(num_x, dim, rng);
  y_table_ = std::make_unique<nn::Embedding>(num_y, dim, rng);
  RegisterChild(*x_table_);
  RegisterChild(*y_table_);
}

Tensor DecomposedGridEmbedding::CellEmbedding(const traj::Cell& c) const {
  return nn::Add(x_table_->Forward({c.x}), y_table_->Forward({c.y}));
}

Tensor DecomposedGridEmbedding::SequenceEmbedding(
    const std::vector<traj::Cell>& cells) const {
  T2H_CHECK(!cells.empty());
  std::vector<int> xs, ys;
  xs.reserve(cells.size());
  ys.reserve(cells.size());
  for (const traj::Cell& c : cells) {
    T2H_CHECK(c.x >= 0 && c.x < num_x_ && c.y >= 0 && c.y < num_y_);
    xs.push_back(c.x);
    ys.push_back(c.y);
  }
  // Eq. 5: e_g = com(e_x, e_y) with com = sum.
  Tensor e = nn::Add(x_table_->Forward(xs), y_table_->Forward(ys));
  return frozen_ ? nn::Detach(e) : e;
}

void DecomposedGridEmbedding::SequenceEmbeddingInto(
    const std::vector<traj::Cell>& cells, float* out) const {
  T2H_CHECK(!cells.empty());
  const float* xt = x_table_->table()->value().data();
  const float* yt = y_table_->table()->value().data();
  for (size_t r = 0; r < cells.size(); ++r) {
    const traj::Cell& c = cells[r];
    T2H_CHECK(c.x >= 0 && c.x < num_x_ && c.y >= 0 && c.y < num_y_);
    const float* __restrict xrow = xt + static_cast<long>(c.x) * dim_;
    const float* __restrict yrow = yt + static_cast<long>(c.y) * dim_;
    float* __restrict orow = out + static_cast<long>(r) * dim_;
    for (int d = 0; d < dim_; ++d) orow[d] = xrow[d] + yrow[d];
  }
}

double DecomposedGridEmbedding::Pretrain(const GridPretrainOptions& options,
                                         Rng& rng) {
  T2H_CHECK(!frozen_);
  T2H_CHECK(options.radius >= 1);
  T2H_CHECK_MSG(num_x_ > 1 || num_y_ > 1,
                "grid must have at least two cells to sample neighbours");
  nn::Adam optimizer(Parameters(), nn::AdamOptions{.lr = options.lr});
  double last_epoch_loss = 0.0;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    double epoch_loss = 0.0;
    for (int s = 0; s < options.samples_per_epoch; ++s) {
      const traj::Cell anchor{rng.UniformInt(0, num_x_ - 1),
                              rng.UniformInt(0, num_y_ - 1)};
      Tensor anchor_e = CellEmbedding(anchor);
      Tensor loss;
      for (int k = 0; k < options.num_neighbors; ++k) {
        // Eq. 7: a neighbour is the anchor shifted by a uniform offset
        // inside the radius; the decomposition makes sampling O(1).
        traj::Cell pos = anchor;
        do {
          pos.x = anchor.x + rng.UniformInt(-options.radius, options.radius);
          pos.y = anchor.y + rng.UniformInt(-options.radius, options.radius);
        } while ((pos.x == anchor.x && pos.y == anchor.y) || pos.x < 0 ||
                 pos.x >= num_x_ || pos.y < 0 || pos.y >= num_y_);
        const Tensor pos_dot = nn::Dot(anchor_e, CellEmbedding(pos));
        const Tensor term = options.logistic ? NegLogSigmoid(pos_dot)
                                             : nn::Scale(pos_dot, -1.0f);
        loss = loss ? nn::Add(loss, term) : term;
      }
      for (int k = 0; k < options.num_noise; ++k) {
        // Noise cells are sampled uniformly outside the neighbourhood. On a
        // grid no larger than the neighbourhood, fall back to any non-anchor
        // cell after a bounded number of rejections.
        traj::Cell neg = anchor;
        for (int attempt = 0; attempt < 32; ++attempt) {
          neg.x = rng.UniformInt(0, num_x_ - 1);
          neg.y = rng.UniformInt(0, num_y_ - 1);
          if (std::abs(neg.x - anchor.x) > options.radius ||
              std::abs(neg.y - anchor.y) > options.radius) {
            break;
          }
        }
        if (neg.x == anchor.x && neg.y == anchor.y) continue;
        const Tensor neg_dot = nn::Dot(anchor_e, CellEmbedding(neg));
        const Tensor term = options.logistic
                                ? NegLogSigmoid(nn::Scale(neg_dot, -1.0f))
                                : neg_dot;
        loss = loss ? nn::Add(loss, term) : term;
      }
      epoch_loss += loss->value()[0];
      nn::Backward(loss);
      optimizer.Step();
    }
    last_epoch_loss = epoch_loss / options.samples_per_epoch;
  }
  Freeze();
  return last_epoch_loss;
}

}  // namespace traj2hash::embedding
