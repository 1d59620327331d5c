#include "nn/layers.h"

#include <algorithm>
#include <cmath>

#include "nn/kernels.h"

namespace traj2hash::nn {
namespace {

// Layer-norm stabiliser, shared by the autograd and inference paths.
constexpr float kLayerNormEpsilon = 1e-5f;

/// Rows [first, first + n) of the sinusoidal encoding of width `dim`,
/// written to out[n, dim]. The one formula behind PositionalEncoding and
/// PositionTable, so the two agree bitwise.
void PositionalEncodingRows(int first, int n, int dim, float* out) {
  for (int r = 0; r < n; ++r) {
    const int pos = first + r;
    float* row = out + static_cast<long>(r) * dim;
    for (int k = 0; 2 * k < dim; ++k) {
      const double rate =
          std::pow(10000.0, 2.0 * k / static_cast<double>(dim));
      row[2 * k] = static_cast<float>(std::sin(pos / rate));
      if (2 * k + 1 < dim) {
        row[2 * k + 1] = static_cast<float>(std::cos(pos / rate));
      }
    }
  }
}

}  // namespace

Linear::Linear(int in_dim, int out_dim, Rng& rng, bool use_bias) {
  weight_ = RegisterParameter(MakeTensor(in_dim, out_dim, true));
  XavierInit(weight_, rng);
  if (use_bias) {
    bias_ = RegisterParameter(MakeTensor(1, out_dim, true));
  }
}

Tensor Linear::Forward(const Tensor& x) const {
  Tensor y = MatMul(x, weight_);
  if (bias_) y = AddRowBroadcast(y, bias_);
  return y;
}

void Linear::Apply(const float* x, int n, float* y) const {
  const int in = in_dim(), out = out_dim();
  std::fill(y, y + static_cast<long>(n) * out, 0.0f);
  kernels::MatMulAccum(x, weight_->value().data(), y, n, in, out);
  if (!bias_) return;
  const float* __restrict b = bias_->value().data();
  for (int r = 0; r < n; ++r) {
    float* __restrict row = y + static_cast<long>(r) * out;
    for (int c = 0; c < out; ++c) row[c] += b[c];
  }
}

Mlp::Mlp(const std::vector<int>& dims, Rng& rng) {
  T2H_CHECK_GE(dims.size(), 2u);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.push_back(std::make_unique<Linear>(dims[i], dims[i + 1], rng));
    RegisterChild(*layers_.back());
  }
}

Tensor Mlp::Forward(const Tensor& x) const {
  Tensor h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i]->Forward(h);
    if (i + 1 < layers_.size()) h = Relu(h);
  }
  return h;
}

void Mlp::Apply(const float* x, int n, float* y) const {
  std::unique_ptr<float[]> hidden;
  const float* in = x;
  for (size_t i = 0; i + 1 < layers_.size(); ++i) {
    const long size = static_cast<long>(n) * layers_[i]->out_dim();
    std::unique_ptr<float[]> h = Scratch(size);
    layers_[i]->Apply(in, n, h.get());
    for (long j = 0; j < size; ++j) h[j] = h[j] > 0.0f ? h[j] : 0.0f;  // Relu
    hidden = std::move(h);
    in = hidden.get();
  }
  layers_.back()->Apply(in, n, y);
}

Embedding::Embedding(int num_embeddings, int dim, Rng& rng) {
  table_ = RegisterParameter(MakeTensor(num_embeddings, dim, true));
  GaussianInit(table_, 0.1f, rng);
}

Tensor Embedding::Forward(const std::vector<int>& indices) const {
  return GatherRows(table_, indices);
}

MultiHeadAttention::MultiHeadAttention(int dim, int num_heads, Rng& rng)
    : num_heads_(num_heads), head_dim_(dim / num_heads) {
  T2H_CHECK_EQ(head_dim_ * num_heads, dim);
  wq_ = std::make_unique<Linear>(dim, dim, rng, /*use_bias=*/false);
  wk_ = std::make_unique<Linear>(dim, dim, rng, /*use_bias=*/false);
  wv_ = std::make_unique<Linear>(dim, dim, rng, /*use_bias=*/false);
  wo_ = std::make_unique<Linear>(dim, dim, rng);
  RegisterChild(*wq_);
  RegisterChild(*wk_);
  RegisterChild(*wv_);
  RegisterChild(*wo_);
}

Tensor MultiHeadAttention::Forward(const Tensor& x) const {
  const Tensor q = wq_->Forward(x);
  const Tensor k = wk_->Forward(x);
  const Tensor v = wv_->Forward(x);
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  Tensor merged;
  for (int h = 0; h < num_heads_; ++h) {
    const int c0 = h * head_dim_;
    const int c1 = c0 + head_dim_;
    const Tensor qh = SliceCols(q, c0, c1);
    const Tensor kh = SliceCols(k, c0, c1);
    const Tensor vh = SliceCols(v, c0, c1);
    const Tensor scores = Scale(MatMul(qh, Transpose(kh)), scale);
    const Tensor out_h = MatMul(SoftmaxRows(scores), vh);
    merged = merged ? ConcatCols(merged, out_h) : out_h;
  }
  return wo_->Forward(merged);
}

void MultiHeadAttention::Apply(const float* x, int n, int q_rows,
                               float* y) const {
  const int dim = this->dim(), hd = head_dim_;
  const auto q_buf = Scratch(static_cast<long>(q_rows) * dim);
  const auto k_buf = Scratch(static_cast<long>(n) * dim);
  const auto v_buf = Scratch(static_cast<long>(n) * dim);
  const auto qh_buf = Scratch(static_cast<long>(q_rows) * hd);
  const auto kt_buf = Scratch(static_cast<long>(hd) * n);
  const auto vh_buf = Scratch(static_cast<long>(n) * hd);
  const auto scores_buf = Scratch(static_cast<long>(q_rows) * n);
  const auto probs_buf = Scratch(static_cast<long>(q_rows) * n);
  const auto head_buf = Scratch(static_cast<long>(q_rows) * hd);
  const auto merged_buf = Scratch(static_cast<long>(q_rows) * dim);
  float *q = q_buf.get(), *k = k_buf.get(), *v = v_buf.get();
  float *qh = qh_buf.get(), *kt = kt_buf.get(), *vh = vh_buf.get();
  float *scores = scores_buf.get(), *probs = probs_buf.get();
  float *head = head_buf.get(), *merged = merged_buf.get();
  wq_->Apply(x, q_rows, q);
  wk_->Apply(x, n, k);
  wv_->Apply(x, n, v);
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  // Same per-head operands as Forward (contiguous column slices, K^T), so
  // every MatMulAccum call sees the same k and m and each element folds in
  // the same chain.
  for (int h = 0; h < num_heads_; ++h) {
    const int c0 = h * hd;
    for (int r = 0; r < q_rows; ++r) {
      std::copy_n(q + static_cast<long>(r) * dim + c0, hd,
                  qh + static_cast<long>(r) * hd);
    }
    for (int r = 0; r < n; ++r) {
      const float* krow = k + static_cast<long>(r) * dim + c0;
      for (int c = 0; c < hd; ++c) kt[static_cast<long>(c) * n + r] = krow[c];
      std::copy_n(v + static_cast<long>(r) * dim + c0, hd,
                  vh + static_cast<long>(r) * hd);
    }
    std::fill(scores, scores + static_cast<long>(q_rows) * n, 0.0f);
    kernels::MatMulAccum(qh, kt, scores, q_rows, hd, n);
    for (long i = 0; i < static_cast<long>(q_rows) * n; ++i) {
      scores[i] = scores[i] * scale;
    }
    kernels::SoftmaxRowsFwd(scores, probs, q_rows, n);
    std::fill(head, head + static_cast<long>(q_rows) * hd, 0.0f);
    kernels::MatMulAccum(probs, vh, head, q_rows, n, hd);
    for (int r = 0; r < q_rows; ++r) {
      std::copy_n(head + static_cast<long>(r) * hd, hd,
                  merged + static_cast<long>(r) * dim + c0);
    }
  }
  wo_->Apply(merged, q_rows, y);
}

LayerNorm::LayerNorm(int dim, Rng& rng) {
  (void)rng;  // deterministic init; kept for signature uniformity
  gamma_ = RegisterParameter(MakeTensor(1, dim, true));
  std::fill(gamma_->value().begin(), gamma_->value().end(), 1.0f);
  beta_ = RegisterParameter(MakeTensor(1, dim, true));
}

Tensor LayerNorm::Forward(const Tensor& x) const {
  const Tensor normalized = NormalizeRows(x, kLayerNormEpsilon);
  // Broadcast gamma/beta over rows: scale via elementwise trick — expand by
  // matmul with ones is wasteful, so tile through AddRowBroadcast and Mul
  // with a gathered row repeated per row.
  Tensor gamma_rows = GatherRows(gamma_, std::vector<int>(x->rows(), 0));
  const Tensor scaled = Mul(normalized, gamma_rows);
  return AddRowBroadcast(scaled, beta_);
}

void LayerNorm::Apply(const float* x, int n, float* y) const {
  const int dim = gamma_->cols();
  kernels::NormalizeRowsFwd(x, y, nullptr, n, dim, kLayerNormEpsilon);
  const float* __restrict g = gamma_->value().data();
  const float* __restrict b = beta_->value().data();
  for (int r = 0; r < n; ++r) {
    float* __restrict row = y + static_cast<long>(r) * dim;
    // Two roundings, as Forward's Mul then AddRowBroadcast.
    for (int c = 0; c < dim; ++c) {
      const float scaled = row[c] * g[c];
      row[c] = scaled + b[c];
    }
  }
}

EncoderBlock::EncoderBlock(int dim, int num_heads, int hidden_dim, Rng& rng,
                           bool use_layer_norm) {
  attn_ = std::make_unique<MultiHeadAttention>(dim, num_heads, rng);
  mlp_ = std::make_unique<Mlp>(std::vector<int>{dim, hidden_dim, dim}, rng);
  RegisterChild(*attn_);
  RegisterChild(*mlp_);
  if (use_layer_norm) {
    norm_attn_ = std::make_unique<LayerNorm>(dim, rng);
    norm_mlp_ = std::make_unique<LayerNorm>(dim, rng);
    RegisterChild(*norm_attn_);
    RegisterChild(*norm_mlp_);
  }
}

Tensor EncoderBlock::Forward(const Tensor& x) const {
  const Tensor attn_in = norm_attn_ ? norm_attn_->Forward(x) : x;
  const Tensor attended = Add(x, attn_->Forward(attn_in));
  const Tensor mlp_in = norm_mlp_ ? norm_mlp_->Forward(attended) : attended;
  return Add(attended, mlp_->Forward(mlp_in));
}

void EncoderBlock::Apply(const float* x, int n, int out_rows, float* y) const {
  const int dim = attn_->dim();
  std::unique_ptr<float[]> attn_in_buf, mlp_in_buf;
  const float* attn_in = x;
  if (norm_attn_) {
    attn_in_buf = Scratch(static_cast<long>(n) * dim);
    norm_attn_->Apply(x, n, attn_in_buf.get());
    attn_in = attn_in_buf.get();
  }
  const long out_size = static_cast<long>(out_rows) * dim;
  const auto attended_buf = Scratch(out_size);
  float* attended = attended_buf.get();
  attn_->Apply(attn_in, n, out_rows, attended);
  for (long i = 0; i < out_size; ++i) attended[i] = x[i] + attended[i];
  const float* mlp_in = attended;
  if (norm_mlp_) {
    mlp_in_buf = Scratch(out_size);
    norm_mlp_->Apply(attended, out_rows, mlp_in_buf.get());
    mlp_in = mlp_in_buf.get();
  }
  mlp_->Apply(mlp_in, out_rows, y);
  for (long i = 0; i < out_size; ++i) y[i] = attended[i] + y[i];
}

GruCell::GruCell(int in_dim, int hidden_dim, Rng& rng)
    : hidden_dim_(hidden_dim) {
  xz_ = std::make_unique<Linear>(in_dim, hidden_dim, rng);
  hz_ = std::make_unique<Linear>(hidden_dim, hidden_dim, rng, false);
  xr_ = std::make_unique<Linear>(in_dim, hidden_dim, rng);
  hr_ = std::make_unique<Linear>(hidden_dim, hidden_dim, rng, false);
  xh_ = std::make_unique<Linear>(in_dim, hidden_dim, rng);
  hh_ = std::make_unique<Linear>(hidden_dim, hidden_dim, rng, false);
  RegisterChild(*xz_);
  RegisterChild(*hz_);
  RegisterChild(*xr_);
  RegisterChild(*hr_);
  RegisterChild(*xh_);
  RegisterChild(*hh_);
}

Tensor GruCell::Forward(const Tensor& x, const Tensor& h) const {
  const Tensor z = Sigmoid(Add(xz_->Forward(x), hz_->Forward(h)));
  const Tensor r = Sigmoid(Add(xr_->Forward(x), hr_->Forward(h)));
  const Tensor candidate = Tanh(Add(xh_->Forward(x), hh_->Forward(Mul(r, h))));
  // h' = (1 - z) * h + z * candidate
  const Tensor one_minus_z = AddScalar(Scale(z, -1.0f), 1.0f);
  return Add(Mul(one_minus_z, h), Mul(z, candidate));
}

Tensor PositionalEncoding(int n, int dim) {
  Tensor pe = MakeTensor(n, dim, false);
  PositionalEncodingRows(0, n, dim, pe->value().data());
  return pe;
}

PositionTable::PositionTable(int rows, int dim)
    : rows_(rows), dim_(dim), table_(static_cast<size_t>(rows) * dim) {
  PositionalEncodingRows(0, rows, dim, table_.data());
}

void PositionTable::AddTo(float* x, int n) const {
  const int cached = std::min(n, rows_);
  kernels::AddInto(x, table_.data(), cached * dim_);
  if (n == cached) return;
  std::vector<float> extra(static_cast<size_t>(n - cached) * dim_);
  PositionalEncodingRows(cached, n - cached, dim_, extra.data());
  kernels::AddInto(x + static_cast<long>(cached) * dim_, extra.data(),
                   (n - cached) * dim_);
}

}  // namespace traj2hash::nn
