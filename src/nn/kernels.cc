#include "nn/kernels.h"

#include <algorithm>
#include <cmath>

#include "common/cpu_features.h"
#include "nn/kernels_backend.h"

namespace traj2hash::nn::kernels {
namespace {

/// One slot per KernelIsa value; unavailable backends alias the scalar
/// entry, but dispatch can only reach them if common/cpu_features reported
/// the ISA available — SetKernelIsa / the env override refuse otherwise, so
/// the alias is a safety net, never a silent fallback.
const Backend* const kBackends[kNumKernelIsas] = {
    &ScalarBackend(),
#if defined(T2H_HAVE_SSE2_BACKEND)
    &Sse2Backend(),
#else
    &ScalarBackend(),
#endif
#if defined(T2H_HAVE_AVX2_BACKEND)
    &Avx2Backend(),
#else
    &ScalarBackend(),
#endif
};

inline const Backend& Active() { return *kBackends[KernelIsaIndex()]; }

}  // namespace

void MatMulAccum(const float* a, const float* b, float* c, int n, int k,
                 int m) {
  Active().matmul_accum(a, b, c, n, k, m);
}

void MatMulGradA(const float* dc, const float* b, float* da, int n, int k,
                 int m) {
  Active().matmul_grad_a(dc, b, da, n, k, m);
}

void MatMulGradB(const float* a, const float* dc, float* db, int n, int k,
                 int m) {
  Active().matmul_grad_b(a, dc, db, n, k, m);
}

void AddInto(float* dst, const float* src, int n) {
  Active().add_into(dst, src, n);
}

void SubInto(float* dst, const float* src, int n) {
  Active().sub_into(dst, src, n);
}

void AxpyInto(float* dst, const float* src, float s, int n) {
  Active().axpy_into(dst, src, s, n);
}

void MulInto(float* dst, const float* a, const float* b, int n) {
  Active().mul_into(dst, a, b, n);
}

float Dot(const float* a, const float* b, int n) {
  return Active().dot(a, b, n);
}

// Softmax fwd/bwd and the row-statistics loops below are NOT dispatched:
// row reductions dominated by exp()/sqrt() or too short to vectorise, so
// SIMD buys little, and keeping one implementation makes them bit-identical
// across every ISA selection by construction. The autograd ops and the
// inference encoder both call them, so the two paths share every leaf loop.

void SoftmaxRowsFwd(const float* x, float* out, int rows, int cols) {
  for (int r = 0; r < rows; ++r) {
    const float* __restrict xrow = x + static_cast<long>(r) * cols;
    float* __restrict orow = out + static_cast<long>(r) * cols;
    float max_v = xrow[0];
    for (int c = 1; c < cols; ++c) max_v = std::max(max_v, xrow[c]);
    float sum = 0.0f;
    for (int c = 0; c < cols; ++c) {
      const float e = std::exp(xrow[c] - max_v);
      orow[c] = e;
      sum += e;
    }
    // Per-element divide (not reciprocal-multiply): keeps the output
    // bit-identical to the pre-kernel implementation.
    for (int c = 0; c < cols; ++c) orow[c] /= sum;
  }
}

void SoftmaxRowsBwd(const float* y, const float* dy, float* dx, int rows,
                    int cols) {
  for (int r = 0; r < rows; ++r) {
    const float* __restrict yrow = y + static_cast<long>(r) * cols;
    const float* __restrict dyrow = dy + static_cast<long>(r) * cols;
    float* __restrict dxrow = dx + static_cast<long>(r) * cols;
    float dot = 0.0f;
    for (int c = 0; c < cols; ++c) dot += dyrow[c] * yrow[c];
    for (int c = 0; c < cols; ++c) dxrow[c] += yrow[c] * (dyrow[c] - dot);
  }
}

void NormalizeRowsFwd(const float* x, float* out, float* inv_sigma, int rows,
                      int cols, float epsilon) {
  for (int r = 0; r < rows; ++r) {
    const float* __restrict xrow = x + static_cast<long>(r) * cols;
    float* __restrict orow = out + static_cast<long>(r) * cols;
    float mean = 0.0f;
    for (int j = 0; j < cols; ++j) mean += xrow[j];
    mean /= cols;
    float var = 0.0f;
    for (int j = 0; j < cols; ++j) {
      const float d = xrow[j] - mean;
      var += d * d;
    }
    var /= cols;
    const float is = 1.0f / std::sqrt(var + epsilon);
    if (inv_sigma != nullptr) inv_sigma[r] = is;
    for (int j = 0; j < cols; ++j) orow[j] = (xrow[j] - mean) * is;
  }
}

void MeanRowsFwd(const float* x, float* out, int rows, int cols) {
  const float inv_n = 1.0f / static_cast<float>(rows);
  for (int c = 0; c < cols; ++c) {
    // Column reduction with r ascending, matching the pre-kernel op.
    float acc = 0.0f;
    for (int r = 0; r < rows; ++r) acc += x[static_cast<long>(r) * cols + c];
    out[c] = acc * inv_n;
  }
}

}  // namespace traj2hash::nn::kernels
