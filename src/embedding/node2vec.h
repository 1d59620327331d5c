#ifndef TRAJ2HASH_EMBEDDING_NODE2VEC_H_
#define TRAJ2HASH_EMBEDDING_NODE2VEC_H_

#include <vector>

#include "common/rng.h"
#include "embedding/grid_embedding.h"
#include "traj/grid.h"

namespace traj2hash::embedding {

/// Node2vec hyper-parameters. Defaults follow §V-D's Fig. 7 study: walk
/// length 80, 10 walks per node, window 10, return parameter p = 1,
/// in-out parameter q = 1.
struct Node2vecOptions {
  int dim = 64;
  int walk_length = 80;
  int num_walks = 10;
  int window = 10;
  double p = 1.0;  ///< return parameter
  double q = 1.0;  ///< in-out parameter
  int num_negatives = 2;
  float lr = 0.025f;
};

/// Node2vec over the grid lattice, the baseline grid representation of
/// Fig. 7. Every cell has its own embedding (a full O(d * Nx * Ny) table),
/// which is exactly the memory/training-time cost the decomposed
/// representation avoids. Cells are nodes; edges connect 8-neighbouring
/// cells. Training is skip-gram with negative sampling over biased random
/// walks, with hand-rolled SGD for throughput.
class Node2vecGridEmbedding : public GridRepresentation {
 public:
  Node2vecGridEmbedding(int num_x, int num_y, int dim, Rng& rng);

  /// Runs walks + skip-gram training. Returns the number of center/context
  /// pairs processed (a proxy for training cost, reported in Fig. 7's
  /// efficiency comparison).
  int64_t Train(const Node2vecOptions& options, Rng& rng);

  /// [n, dim] constant embedding of a cell sequence (node2vec tables are
  /// not fine-tuned downstream, matching the frozen decomposed tables).
  nn::Tensor SequenceEmbedding(
      const std::vector<traj::Cell>& cells) const override;

  void SequenceEmbeddingInto(const std::vector<traj::Cell>& cells,
                             float* out) const override;

  int dim() const override { return dim_; }

  /// Raw embedding row of a cell (length dim()).
  const float* EmbeddingOf(const traj::Cell& c) const;

 private:
  int NodeId(const traj::Cell& c) const { return c.y * num_x_ + c.x; }
  traj::Cell CellOfNode(int id) const { return {id % num_x_, id / num_x_}; }

  /// Neighbouring node ids under 8-connectivity.
  void NeighborsOf(int node, std::vector<int>& out) const;

  /// One biased (p, q) random walk starting at `start`.
  std::vector<int> Walk(int start, const Node2vecOptions& options,
                        Rng& rng) const;

  int num_x_;
  int num_y_;
  int dim_;
  std::vector<float> center_;   // [num_nodes * dim] center vectors
  std::vector<float> context_;  // [num_nodes * dim] context vectors
};

}  // namespace traj2hash::embedding

#endif  // TRAJ2HASH_EMBEDDING_NODE2VEC_H_
