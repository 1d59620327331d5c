#ifndef TRAJ2HASH_NN_KERNELS_H_
#define TRAJ2HASH_NN_KERNELS_H_

namespace traj2hash::nn::kernels {

/// Raw-pointer micro-kernels backing the hot ops in ops.cc.
///
/// Each entry point dispatches to a per-ISA backend (scalar / SSE2 / AVX2)
/// selected once per process by common/cpu_features — see DESIGN.md §14 and
/// kernels_backend.h. Determinism contract (DESIGN.md §8 + §14):
///  - every backend is deterministic: same inputs → bit-identical outputs,
///    for any blocking, call-site batching, or thread count;
///  - AddInto/SubInto/AxpyInto/MulInto are bit-identical ACROSS backends
///    (one mul rounding + one add rounding per element; SIMD paths never
///    use FMA for these);
///  - MatMul*/Dot fix a per-backend accumulation order (scalar = the
///    ascending-index naive order, unchanged from the pre-dispatch seed;
///    SIMD = lane-parallel chains + a fixed-order horizontal fold), so
///    results agree across backends to a relative epsilon (~1e-4 at this
///    repo's dims) but not bitwise;
///  - SoftmaxRowsFwd/Bwd, NormalizeRowsFwd and MeanRowsFwd are not
///    dispatched at all — one implementation, identical under every ISA
///    selection;
///  - MatMulAccum computes each output element in one ascending-k chain
///    seeded from C whose shape depends only on (k, m, column), never on
///    the row count or the row's position: an n-row call equals, bitwise,
///    any split of it into row groups (down to one-row calls). The
///    inference encoder relies on this to prune rows and stack rows
///    (DESIGN.md §8).
/// Do not add nondeterministic shortcuts (e.g. data-dependent blocking) to
/// any backend: per-path reproducibility is what training and serving rely
/// on.
///
/// All kernels ACCUMULATE into their destination (`+=`), matching autograd
/// semantics; forward paths pass a zero-initialised destination.

/// C[n,m] += A[n,k] * B[k,m].
void MatMulAccum(const float* a, const float* b, float* c, int n, int k,
                 int m);

/// dA[n,k] += dC[n,m] * B[k,m]^T (row-dot form: both operands row-contiguous).
void MatMulGradA(const float* dc, const float* b, float* da, int n, int k,
                 int m);

/// dB[k,m] += A[n,k]^T * dC[n,m] (outer-product form, r ascending).
void MatMulGradB(const float* a, const float* dc, float* db, int n, int k,
                 int m);

/// dst[i] += src[i].
void AddInto(float* dst, const float* src, int n);

/// dst[i] -= src[i].
void SubInto(float* dst, const float* src, int n);

/// dst[i] += s * src[i].
void AxpyInto(float* dst, const float* src, float s, int n);

/// dst[i] += a[i] * b[i].
void MulInto(float* dst, const float* a, const float* b, int n);

/// Ascending-index dot product of two contiguous vectors.
float Dot(const float* a, const float* b, int n);

/// out[r,:] = softmax(x[r,:]) per row, max-subtracted for stability.
void SoftmaxRowsFwd(const float* x, float* out, int rows, int cols);

/// dx[r,:] += y[r,:] * (dy[r,:] - <dy[r,:], y[r,:]>) per row (softmax VJP).
void SoftmaxRowsBwd(const float* y, const float* dy, float* dx, int rows,
                    int cols);

/// out[r,:] = (x[r,:] - mean_r) * inv_sigma_r per row, the statistics part
/// of layer normalisation; inv_sigma_r = 1 / sqrt(var_r + epsilon) is also
/// written to `inv_sigma[r]` unless it is null.
void NormalizeRowsFwd(const float* x, float* out, float* inv_sigma, int rows,
                      int cols, float epsilon);

/// out[c] = (sum over r ascending of x[r,c]) * (1 / rows): the mean-pooling
/// read-out.
void MeanRowsFwd(const float* x, float* out, int rows, int cols);

}  // namespace traj2hash::nn::kernels

#endif  // TRAJ2HASH_NN_KERNELS_H_
