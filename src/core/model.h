#ifndef TRAJ2HASH_CORE_MODEL_H_
#define TRAJ2HASH_CORE_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/config.h"
#include "core/encoders.h"
#include "embedding/grid_embedding.h"
#include "search/code.h"
#include "traj/grid.h"
#include "traj/normalizer.h"

namespace traj2hash::core {

/// The Traj2Hash model (§IV): two-channel trajectory encoder + hash layer.
///
/// Construction fits the data-dependent pieces (Gaussian normaliser, fine and
/// coarse grids) on a corpus; `PretrainGrids` runs the NCE pre-training of
/// the decomposed grid representation (frozen afterwards); `Trainer` (see
/// trainer.h) optimises everything else end-to-end.
class Traj2Hash {
 public:
  /// Builds a model whose normaliser/grids are fitted on `corpus`.
  /// `corpus` is only used for statistics, not trained on. Returns
  /// InvalidArgument for bad configs or an empty corpus.
  static Result<std::unique_ptr<Traj2Hash>> Create(
      const Traj2HashConfig& config,
      const std::vector<traj::Trajectory>& corpus, Rng& rng);

  /// NCE pre-training of the decomposed grid embedding (§IV-C); the tables
  /// are frozen afterwards. Returns the final mean NCE loss. No-op returning
  /// 0 when the grid channel is ablated.
  double PretrainGrids(const embedding::GridPretrainOptions& options,
                       Rng& rng);

  /// Replaces the grid representation (Fig. 7 swaps in node2vec). Must be
  /// called before training; rebuilds the grid-channel MLP.
  void UseGridRepresentation(
      std::unique_ptr<embedding::GridRepresentation> representation,
      Rng& rng);

  /// Encodes a trajectory to its final representation h_f (Eq. 15) as a
  /// [1, dim] tensor attached to the autograd graph. Training path only;
  /// inference goes through Embed.
  nn::Tensor EncodeContinuous(const traj::Trajectory& t) const;

  /// Fused pre-projection features of Eq. 14: `first` is h(T); `second` is
  /// h(T^r), or null when reverse augmentation is ablated. Exposed so the
  /// trainer can cache encoder outputs and cheaply refine the projector
  /// (see TrainerOptions::refine_epochs).
  std::pair<nn::Tensor, nn::Tensor> EncodeFused(
      const traj::Trajectory& t) const;

  /// Applies the hash-layer projection (Eq. 15) to fused features from
  /// EncodeFused: h_f = [W_p h, W_p h_r] (or the full-width projection when
  /// reverse augmentation is off; `h_r` must then be null).
  nn::Tensor ProjectFused(const nn::Tensor& h, const nn::Tensor& h_r) const;

  /// Parameters of the hash-layer projection only (W_p or its full-width
  /// ablation variant).
  std::vector<nn::Tensor> ProjectorParameters() const;

  /// h_f values only (for retrieval and serving), from the inference-only
  /// forward: plain float buffers, no tensors and no tape, positions from a
  /// table built once, and the last encoder block pruned to the row a
  /// first-token read-out keeps. Bitwise equal to
  /// EncodeContinuous(t)->value() on every kernel backend (DESIGN.md §8).
  /// Reads the live parameter values on every call, so it reflects Load,
  /// RestoreParameters, UseGridRepresentation and optimizer steps at once.
  /// Thread-safe: scratch is owned per call and parameters are only read, so
  /// any number of threads may call it concurrently (but not concurrently
  /// with a mutator).
  std::vector<float> Embed(const traj::Trajectory& t) const;

  /// Embeds a whole corpus, giving each `pool` task a contiguous chunk of
  /// trajectories (nullptr or a single-thread pool falls back to a serial
  /// loop on the caller). Output order matches input order, and every row
  /// equals Embed of its trajectory bitwise.
  std::vector<std::vector<float>> EmbedBatch(
      const std::vector<traj::Trajectory>& ts, ThreadPool* pool) const;

  /// Training-time relaxed hash code tanh(beta * h_f) (HashNet
  /// continuation of Eq. 16).
  nn::Tensor RelaxedCode(const nn::Tensor& h_f) const;

  /// Inference-time binary code z = sign(h_f) (Eq. 16).
  search::Code HashCode(const traj::Trajectory& t) const;

  /// Continuation parameter beta; the trainer increases it every epoch.
  void set_beta(float beta) { beta_ = beta; }
  float beta() const { return beta_; }

  const Traj2HashConfig& config() const { return config_; }
  const traj::Grid& fine_grid() const { return fine_grid_; }
  const traj::Grid& coarse_grid() const { return coarse_grid_; }
  const traj::Normalizer& normalizer() const { return normalizer_; }

  /// All trainable parameters (grid tables excluded: they are frozen after
  /// pre-training, as the paper prescribes). Recomputed on every call so a
  /// grid-representation swap is reflected.
  std::vector<nn::Tensor> TrainableParameters() const;

  /// Every parameter tensor that can receive gradients during training —
  /// trainables plus the grid tables, which keep requires_grad even once
  /// frozen (an unfrozen table takes NCE-style grads through the encoder).
  /// This is the set the trainer registers in per-unit nn::GradSinks so that
  /// concurrent backward passes never touch a shared grad buffer directly.
  std::vector<nn::Tensor> AllParameters() const { return PersistentTensors(); }

  /// Deep copies of all parameter values (including frozen grid tables),
  /// used for best-on-validation model selection and Save().
  std::vector<std::vector<float>> SnapshotParameters() const;

  /// Restores values captured by SnapshotParameters(). Shapes must match.
  void RestoreParameters(const std::vector<std::vector<float>>& snapshot);

  /// Serialises parameter values (binary). The loading model must be built
  /// with the same config and corpus statistics.
  Status Save(const std::string& path) const;
  Status Load(const std::string& path);

 private:
  Traj2Hash(const Traj2HashConfig& config, traj::Normalizer normalizer,
            traj::Grid fine_grid, traj::Grid coarse_grid, Rng& rng);

  /// Fused single-direction embedding h (Eq. 14) of a trajectory.
  nn::Tensor EncodeOneDirection(const traj::Trajectory& t) const;

  /// Parameter tensors covered by snapshots/saves: trainables + grid tables.
  std::vector<nn::Tensor> PersistentTensors() const;

  Traj2HashConfig config_;
  traj::Normalizer normalizer_;
  traj::Grid fine_grid_;
  traj::Grid coarse_grid_;
  float beta_ = 1.0f;

  // Grid representation is intentionally NOT a registered child: its tables
  // are excluded from Parameters() because they are frozen after NCE.
  std::unique_ptr<embedding::DecomposedGridEmbedding> decomposed_grids_;
  std::unique_ptr<embedding::GridRepresentation> external_grids_;

  std::unique_ptr<GpsEncoder> gps_encoder_;
  std::unique_ptr<GridChannelEncoder> grid_encoder_;
  std::unique_ptr<nn::Linear> fuse_;       // MLP_f (Eq. 14)
  std::unique_ptr<nn::Linear> projector_;  // W_p (Eq. 15), dim -> dim/2
  std::unique_ptr<nn::Linear> projector_full_;  // used when rev-aug is off
};

}  // namespace traj2hash::core

#endif  // TRAJ2HASH_CORE_MODEL_H_
