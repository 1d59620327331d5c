#ifndef TRAJ2HASH_NN_LAYERS_H_
#define TRAJ2HASH_NN_LAYERS_H_

#include <memory>
#include <vector>

#include "nn/module.h"
#include "nn/ops.h"

namespace traj2hash::nn {

/// Fully connected layer `y = x W + b` with optional bias.
class Linear : public Module {
 public:
  Linear(int in_dim, int out_dim, Rng& rng, bool use_bias = true);

  /// x: [n, in_dim] -> [n, out_dim].
  Tensor Forward(const Tensor& x) const;

  /// Inference twin of Forward over plain row-major buffers: writes
  /// y[n, out_dim] = x[n, in_dim] W + b, reading the live parameter values.
  /// Bit-identical to Forward's value row for row, for any n (see the row
  /// contract of kernels::MatMulAccum).
  void Apply(const float* x, int n, float* y) const;

  int in_dim() const { return weight_->rows(); }
  int out_dim() const { return weight_->cols(); }

 private:
  Tensor weight_;
  Tensor bias_;  // null when use_bias == false
};

/// Multi-layer perceptron with ReLU on hidden layers (Eq. 9/11's MLP_g and
/// MLP^k are two-layer instances; Eq. 10's MLP_e is a one-layer instance).
class Mlp : public Module {
 public:
  /// `dims` lists layer widths, e.g. {64, 64, 64} builds two linear layers.
  Mlp(const std::vector<int>& dims, Rng& rng);

  Tensor Forward(const Tensor& x) const;

  /// Inference twin of Forward: x [n, dims.front()] -> y [n, dims.back()].
  void Apply(const float* x, int n, float* y) const;

 private:
  std::vector<std::unique_ptr<Linear>> layers_;
};

/// Embedding table with row lookup (used by coordinate embeddings and
/// baseline token embeddings).
class Embedding : public Module {
 public:
  Embedding(int num_embeddings, int dim, Rng& rng);

  /// Returns [indices.size(), dim].
  Tensor Forward(const std::vector<int>& indices) const;

  const Tensor& table() const { return table_; }

 private:
  Tensor table_;
};

/// Standard multi-head scaled dot-product self-attention (Eq. 12 with the
/// multi-head strategy of Vaswani et al.). `dim` must be divisible by
/// `num_heads`.
class MultiHeadAttention : public Module {
 public:
  MultiHeadAttention(int dim, int num_heads, Rng& rng);

  /// x: [n, dim] -> [n, dim].
  Tensor Forward(const Tensor& x) const;

  /// Inference twin of Forward for the first `q_rows` query rows: keys and
  /// values cover all n rows of x, and y is [q_rows, dim], bit-identical to
  /// rows [0, q_rows) of Forward's value.
  void Apply(const float* x, int n, int q_rows, float* y) const;

  int dim() const { return num_heads_ * head_dim_; }

 private:
  int num_heads_;
  int head_dim_;
  std::unique_ptr<Linear> wq_, wk_, wv_, wo_;
};

/// Layer normalisation with learnable scale and shift:
///   y = gamma * (x - mean) / sigma + beta, per row.
/// Not part of the paper's Eq. 12 (which uses bare residuals); provided as
/// the library's standard stabiliser and an optional EncoderBlock extension.
class LayerNorm : public Module {
 public:
  LayerNorm(int dim, Rng& rng);

  Tensor Forward(const Tensor& x) const;

  /// Inference twin of Forward: x [n, dim] -> y [n, dim].
  void Apply(const float* x, int n, float* y) const;

 private:
  Tensor gamma_;  // [1, dim], initialised to ones
  Tensor beta_;   // [1, dim], initialised to zeros
};

/// One pre-residual encoder block (Eq. 12):
///   x <- x + Attn(x);  x <- x + MLP(x).
/// With `use_layer_norm`, each sublayer input is pre-normalised (pre-LN
/// transformer) — an extension beyond the paper, off by default.
class EncoderBlock : public Module {
 public:
  EncoderBlock(int dim, int num_heads, int hidden_dim, Rng& rng,
               bool use_layer_norm = false);

  Tensor Forward(const Tensor& x) const;

  /// Inference twin of Forward that computes only the first `out_rows`
  /// output rows (every row still serves as key and value): x [n, dim] ->
  /// y [out_rows, dim], bit-identical to those rows of Forward's value.
  /// `y` must not alias `x`.
  void Apply(const float* x, int n, int out_rows, float* y) const;

 private:
  std::unique_ptr<MultiHeadAttention> attn_;
  std::unique_ptr<Mlp> mlp_;
  std::unique_ptr<LayerNorm> norm_attn_;  // null unless use_layer_norm
  std::unique_ptr<LayerNorm> norm_mlp_;
};

/// Gated recurrent unit cell, the backbone of the RNN baselines (NeuTraj,
/// NT-No-SAM, t2vec, CL-TSim).
class GruCell : public Module {
 public:
  GruCell(int in_dim, int hidden_dim, Rng& rng);

  /// One step: x [1, in_dim], h [1, hidden] -> new h [1, hidden].
  Tensor Forward(const Tensor& x, const Tensor& h) const;

  /// Zero initial hidden state (constant).
  Tensor InitialState() const { return Constant(1, hidden_dim_, 0.0f); }

  int hidden_dim() const { return hidden_dim_; }

 private:
  int hidden_dim_;
  std::unique_ptr<Linear> xz_, hz_, xr_, hr_, xh_, hh_;
};

/// Per-call scratch for the inference path: `n` uninitialised floats owned
/// by the calling function, so concurrent calls share nothing. Not
/// thread_local on purpose: long-lived per-thread buffers raised resident
/// memory from 51 to 78 MB, with the same bytes in use, in a serving probe
/// (3 engine set-ups of 20k inserts and 2,000 queries each; DESIGN.md §8).
inline std::unique_ptr<float[]> Scratch(long n) {
  return std::make_unique_for_overwrite<float[]>(n);
}

/// Sinusoidal positional encoding (Eq. 8), returned as a constant [n, dim]
/// tensor to be added to a sequence representation.
Tensor PositionalEncoding(int n, int dim);

/// The first `rows` rows of PositionalEncoding(·, dim), computed once at
/// construction and immutable afterwards, so concurrent readers need no
/// synchronisation. Inference adds positions from here instead of
/// recomputing pow/sin/cos per call.
class PositionTable {
 public:
  PositionTable(int rows, int dim);

  /// x[r, :] += PE(r, :) for r in [0, n), bit-identical to adding
  /// PositionalEncoding(n, dim). Rows past the table are computed into
  /// call-local scratch.
  void AddTo(float* x, int n) const;

  int rows() const { return rows_; }
  int dim() const { return dim_; }

 private:
  int rows_;
  int dim_;
  std::vector<float> table_;  // [rows, dim]
};

}  // namespace traj2hash::nn

#endif  // TRAJ2HASH_NN_LAYERS_H_
