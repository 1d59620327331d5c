#include "embedding/node2vec.h"

#include <algorithm>
#include <cmath>

#include "nn/ops.h"

namespace traj2hash::embedding {
namespace {

float Sigmoidf(float x) { return 1.0f / (1.0f + std::exp(-x)); }

}  // namespace

Node2vecGridEmbedding::Node2vecGridEmbedding(int num_x, int num_y, int dim,
                                             Rng& rng)
    : num_x_(num_x), num_y_(num_y), dim_(dim) {
  T2H_CHECK(num_x > 0 && num_y > 0 && dim > 0);
  const size_t n = static_cast<size_t>(num_x) * num_y * dim;
  center_.resize(n);
  context_.resize(n);
  const float scale = 0.5f / dim;
  for (float& v : center_) v = static_cast<float>(rng.Uniform(-scale, scale));
  for (float& v : context_) v = static_cast<float>(rng.Uniform(-scale, scale));
}

void Node2vecGridEmbedding::NeighborsOf(int node, std::vector<int>& out) const {
  out.clear();
  const traj::Cell c = CellOfNode(node);
  for (int dy = -1; dy <= 1; ++dy) {
    for (int dx = -1; dx <= 1; ++dx) {
      if (dx == 0 && dy == 0) continue;
      const int nx = c.x + dx;
      const int ny = c.y + dy;
      if (nx < 0 || nx >= num_x_ || ny < 0 || ny >= num_y_) continue;
      out.push_back(NodeId({nx, ny}));
    }
  }
}

std::vector<int> Node2vecGridEmbedding::Walk(int start,
                                             const Node2vecOptions& options,
                                             Rng& rng) const {
  std::vector<int> walk = {start};
  std::vector<int> nbrs, prev_nbrs;
  std::vector<double> weights;
  int prev = -1;
  int curr = start;
  for (int step = 1; step < options.walk_length; ++step) {
    NeighborsOf(curr, nbrs);
    if (nbrs.empty()) break;
    int next;
    if (prev < 0) {
      next = nbrs[rng.UniformInt(0, static_cast<int>(nbrs.size()) - 1)];
    } else {
      // Node2vec bias: weight 1/p to return to `prev`, 1 for common
      // neighbours of prev and curr, 1/q otherwise.
      NeighborsOf(prev, prev_nbrs);
      weights.clear();
      double total = 0.0;
      for (const int candidate : nbrs) {
        double w;
        if (candidate == prev) {
          w = 1.0 / options.p;
        } else if (std::find(prev_nbrs.begin(), prev_nbrs.end(), candidate) !=
                   prev_nbrs.end()) {
          w = 1.0;
        } else {
          w = 1.0 / options.q;
        }
        weights.push_back(w);
        total += w;
      }
      double pick = rng.Uniform(0.0, total);
      size_t idx = 0;
      for (; idx + 1 < weights.size(); ++idx) {
        pick -= weights[idx];
        if (pick <= 0.0) break;
      }
      next = nbrs[idx];
    }
    walk.push_back(next);
    prev = curr;
    curr = next;
  }
  return walk;
}

int64_t Node2vecGridEmbedding::Train(const Node2vecOptions& options,
                                     Rng& rng) {
  T2H_CHECK_EQ(options.dim, dim_);
  const int num_nodes = num_x_ * num_y_;
  int64_t pairs = 0;
  std::vector<int> order(num_nodes);
  for (int i = 0; i < num_nodes; ++i) order[i] = i;
  std::vector<float> grad_center(dim_);
  for (int round = 0; round < options.num_walks; ++round) {
    rng.Shuffle(order);
    for (const int start : order) {
      const std::vector<int> walk = Walk(start, options, rng);
      for (size_t i = 0; i < walk.size(); ++i) {
        const int center = walk[i];
        float* wc = &center_[static_cast<size_t>(center) * dim_];
        const size_t lo = i > static_cast<size_t>(options.window)
                              ? i - options.window
                              : 0;
        const size_t hi = std::min(walk.size() - 1, i + options.window);
        for (size_t j = lo; j <= hi; ++j) {
          if (j == i) continue;
          ++pairs;
          std::fill(grad_center.begin(), grad_center.end(), 0.0f);
          // Positive context update: gradient of -log s(wc . ctx).
          {
            float* ctx = &context_[static_cast<size_t>(walk[j]) * dim_];
            float dot = 0.0f;
            for (int d = 0; d < dim_; ++d) dot += wc[d] * ctx[d];
            const float coeff = Sigmoidf(dot) - 1.0f;
            for (int d = 0; d < dim_; ++d) {
              grad_center[d] += coeff * ctx[d];
              ctx[d] -= options.lr * coeff * wc[d];
            }
          }
          // Negative samples: gradient of -log s(-wc . ctx).
          for (int neg = 0; neg < options.num_negatives; ++neg) {
            const int neg_node = rng.UniformInt(0, num_nodes - 1);
            if (neg_node == walk[j]) continue;
            float* ctx = &context_[static_cast<size_t>(neg_node) * dim_];
            float dot = 0.0f;
            for (int d = 0; d < dim_; ++d) dot += wc[d] * ctx[d];
            const float coeff = Sigmoidf(dot);
            for (int d = 0; d < dim_; ++d) {
              grad_center[d] += coeff * ctx[d];
              ctx[d] -= options.lr * coeff * wc[d];
            }
          }
          for (int d = 0; d < dim_; ++d) {
            wc[d] -= options.lr * grad_center[d];
          }
        }
      }
    }
  }
  return pairs;
}

nn::Tensor Node2vecGridEmbedding::SequenceEmbedding(
    const std::vector<traj::Cell>& cells) const {
  T2H_CHECK(!cells.empty());
  nn::Tensor out = nn::MakeTensor(static_cast<int>(cells.size()), dim_, false);
  SequenceEmbeddingInto(cells, out->value().data());
  return out;
}

void Node2vecGridEmbedding::SequenceEmbeddingInto(
    const std::vector<traj::Cell>& cells, float* out) const {
  for (size_t r = 0; r < cells.size(); ++r) {
    std::copy_n(EmbeddingOf(cells[r]), dim_, out + r * dim_);
  }
}

const float* Node2vecGridEmbedding::EmbeddingOf(const traj::Cell& c) const {
  T2H_CHECK(c.x >= 0 && c.x < num_x_ && c.y >= 0 && c.y < num_y_);
  return &center_[static_cast<size_t>(NodeId(c)) * dim_];
}

}  // namespace traj2hash::embedding
