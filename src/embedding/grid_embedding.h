#ifndef TRAJ2HASH_EMBEDDING_GRID_EMBEDDING_H_
#define TRAJ2HASH_EMBEDDING_GRID_EMBEDDING_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/layers.h"
#include "nn/tensor.h"
#include "traj/grid.h"

namespace traj2hash::embedding {

/// Interface for grid-cell representation providers, so Traj2Hash's grid
/// channel can swap the decomposed representation for node2vec (Fig. 7) or
/// anything else.
class GridRepresentation {
 public:
  virtual ~GridRepresentation() = default;

  /// Embedding of a cell sequence: [cells.size(), dim()].
  virtual nn::Tensor SequenceEmbedding(
      const std::vector<traj::Cell>& cells) const = 0;

  /// Inference twin of SequenceEmbedding: writes the same values, bitwise,
  /// to out[cells.size(), dim()] without building a tensor.
  virtual void SequenceEmbeddingInto(const std::vector<traj::Cell>& cells,
                                     float* out) const = 0;

  virtual int dim() const = 0;
};

/// Options for the NCE grid pre-training (§IV-C, Eq. 6-7).
struct GridPretrainOptions {
  int radius = 5;          ///< neighbourhood radius r
  int num_neighbors = 1;   ///< N_p sampled neighbours per anchor
  int num_noise = 1;       ///< N_n sampled noise cells per anchor
  int samples_per_epoch = 20000;
  int epochs = 3;
  float lr = 1e-3f;
  /// The paper's Eq. 6 is the linear NCE form -e·e_p + e·e_n, which is
  /// unbounded below; we default to the standard bounded logistic NCE
  /// (-log s(e·e_p) - log s(-e·e_n)) whose gradient equals Eq. 6's at the
  /// origin. Set false to train with the literal Eq. 6.
  bool logistic = true;
};

/// The light-weight decomposed grid representation (§IV-C): a cell (x, y)
/// is embedded as e_x + e_y from two coordinate tables, reducing parameters
/// from O(d * Nx * Ny) to O(d * (Nx + Ny)). Pre-trained with NCE against
/// spatial neighbours, then frozen ("the spatial information may be poisoned
/// after updating").
class DecomposedGridEmbedding : public nn::Module, public GridRepresentation {
 public:
  DecomposedGridEmbedding(int num_x, int num_y, int dim, Rng& rng);

  /// NCE pre-training (Eq. 6-7) and freeze. Returns the final mean loss.
  double Pretrain(const GridPretrainOptions& options, Rng& rng);

  /// [n, dim] embedding of a cell sequence. Returns a detached constant
  /// after Freeze() so no gradient flows into the tables.
  nn::Tensor SequenceEmbedding(
      const std::vector<traj::Cell>& cells) const override;

  /// e_x + e_y per cell from the live table values.
  void SequenceEmbeddingInto(const std::vector<traj::Cell>& cells,
                             float* out) const override;

  int dim() const override { return dim_; }

  /// Freezes the tables (SequenceEmbedding detaches from the graph).
  void Freeze() { frozen_ = true; }
  bool frozen() const { return frozen_; }

  int num_x() const { return num_x_; }
  int num_y() const { return num_y_; }

 private:
  /// e_g for one cell as a graph node (used during pre-training).
  nn::Tensor CellEmbedding(const traj::Cell& c) const;

  int num_x_;
  int num_y_;
  int dim_;
  bool frozen_ = false;
  std::unique_ptr<nn::Embedding> x_table_;
  std::unique_ptr<nn::Embedding> y_table_;
};

}  // namespace traj2hash::embedding

#endif  // TRAJ2HASH_EMBEDDING_GRID_EMBEDDING_H_
