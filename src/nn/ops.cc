#include "nn/ops.h"

#include <cmath>

#include "nn/kernels.h"

namespace traj2hash::nn {
namespace {

/// Allocates the output node and wires parents/backward only when a parent
/// tracks gradients AND grad mode is enabled on this thread.
///
/// `make_backward` is a factory returning the backward closure; it is only
/// invoked on the taped path, so the inference path pays for neither the
/// parents vector nor the std::function allocation (nor the shared_ptr
/// refcount bumps of the closure captures).
template <typename BackwardFactory, typename... Parents>
Tensor MakeOp(int rows, int cols, BackwardFactory&& make_backward,
              const Parents&... parents) {
  const bool needs_grad = GradEnabled() && (parents->requires_grad() || ...);
  Tensor out = MakeTensor(rows, cols, needs_grad);
  if (needs_grad) {
    out->set_parents(std::vector<Tensor>{parents...});
    out->set_backward(make_backward());
  }
  return out;
}

/// Element-wise unary op helper: forward maps value, backward multiplies the
/// upstream gradient by `dfn(input_value, output_value)`.
template <typename FwdFn, typename GradFn>
Tensor Unary(const Tensor& a, FwdFn fwd, GradFn dfn) {
  Tensor out = MakeOp(
      a->rows(), a->cols(),
      [&] {
        return [a, dfn](TensorImpl& self) {
          const int n = self.size();
          const float* __restrict g = self.grad().data();
          const float* __restrict av = a->value().data();
          const float* __restrict ov = self.value().data();
          float* __restrict ga = a->grad().data();
          for (int i = 0; i < n; ++i) ga[i] += g[i] * dfn(av[i], ov[i]);
        };
      },
      a);
  const int n = a->size();
  const float* __restrict av = a->value().data();
  float* __restrict ov = out->value().data();
  for (int i = 0; i < n; ++i) ov[i] = fwd(av[i]);
  return out;
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  T2H_CHECK_EQ(a->cols(), b->rows());
  const int n = a->rows(), k = a->cols(), m = b->cols();
  Tensor out = MakeOp(
      n, m,
      [&] {
        return [a, b](TensorImpl& self) {
          const int n = a->rows(), k = a->cols(), m = b->cols();
          const float* dc = self.grad().data();
          if (a->requires_grad()) {
            kernels::MatMulGradA(dc, b->value().data(), a->grad().data(), n,
                                 k, m);
          }
          if (b->requires_grad()) {
            kernels::MatMulGradB(a->value().data(), dc, b->grad().data(), n,
                                 k, m);
          }
        };
      },
      a, b);
  kernels::MatMulAccum(a->value().data(), b->value().data(),
                       out->value().data(), n, k, m);
  return out;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  T2H_CHECK(a->rows() == b->rows() && a->cols() == b->cols());
  Tensor out = MakeOp(
      a->rows(), a->cols(),
      [&] {
        return [a, b](TensorImpl& self) {
          const int n = self.size();
          const float* g = self.grad().data();
          if (a->requires_grad()) kernels::AddInto(a->grad().data(), g, n);
          if (b->requires_grad()) kernels::AddInto(b->grad().data(), g, n);
        };
      },
      a, b);
  const int n = out->size();
  const float* __restrict av = a->value().data();
  const float* __restrict bv = b->value().data();
  float* __restrict ov = out->value().data();
  for (int i = 0; i < n; ++i) ov[i] = av[i] + bv[i];
  return out;
}

Tensor AddRowBroadcast(const Tensor& a, const Tensor& row) {
  T2H_CHECK_EQ(row->rows(), 1);
  T2H_CHECK_EQ(a->cols(), row->cols());
  const int rows = a->rows(), cols = a->cols();
  Tensor out = MakeOp(
      rows, cols,
      [&] {
        return [a, row](TensorImpl& self) {
          const int rows = self.rows(), cols = self.cols();
          const float* g = self.grad().data();
          if (a->requires_grad()) {
            kernels::AddInto(a->grad().data(), g, rows * cols);
          }
          if (row->requires_grad()) {
            float* grow = row->grad().data();
            for (int r = 0; r < rows; ++r) {
              kernels::AddInto(grow, g + static_cast<long>(r) * cols, cols);
            }
          }
        };
      },
      a, row);
  const float* __restrict av = a->value().data();
  const float* __restrict rv = row->value().data();
  float* __restrict ov = out->value().data();
  for (int r = 0; r < rows; ++r) {
    const float* __restrict arow = av + static_cast<long>(r) * cols;
    float* __restrict orow = ov + static_cast<long>(r) * cols;
    for (int c = 0; c < cols; ++c) orow[c] = arow[c] + rv[c];
  }
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  T2H_CHECK(a->rows() == b->rows() && a->cols() == b->cols());
  Tensor out = MakeOp(
      a->rows(), a->cols(),
      [&] {
        return [a, b](TensorImpl& self) {
          const int n = self.size();
          const float* g = self.grad().data();
          if (a->requires_grad()) kernels::AddInto(a->grad().data(), g, n);
          if (b->requires_grad()) kernels::SubInto(b->grad().data(), g, n);
        };
      },
      a, b);
  const int n = out->size();
  const float* __restrict av = a->value().data();
  const float* __restrict bv = b->value().data();
  float* __restrict ov = out->value().data();
  for (int i = 0; i < n; ++i) ov[i] = av[i] - bv[i];
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  T2H_CHECK(a->rows() == b->rows() && a->cols() == b->cols());
  Tensor out = MakeOp(
      a->rows(), a->cols(),
      [&] {
        return [a, b](TensorImpl& self) {
          const int n = self.size();
          const float* g = self.grad().data();
          if (a->requires_grad()) {
            kernels::MulInto(a->grad().data(), g, b->value().data(), n);
          }
          if (b->requires_grad()) {
            kernels::MulInto(b->grad().data(), g, a->value().data(), n);
          }
        };
      },
      a, b);
  const int n = out->size();
  const float* __restrict av = a->value().data();
  const float* __restrict bv = b->value().data();
  float* __restrict ov = out->value().data();
  for (int i = 0; i < n; ++i) ov[i] = av[i] * bv[i];
  return out;
}

Tensor Div(const Tensor& a, const Tensor& b) {
  T2H_CHECK(a->rows() == b->rows() && a->cols() == b->cols());
  Tensor out = MakeOp(
      a->rows(), a->cols(),
      [&] {
        return [a, b](TensorImpl& self) {
          const int n = self.size();
          const float* __restrict g = self.grad().data();
          const float* __restrict av = a->value().data();
          const float* __restrict bv = b->value().data();
          if (a->requires_grad()) {
            float* __restrict ga = a->grad().data();
            for (int i = 0; i < n; ++i) ga[i] += g[i] * (1.0f / bv[i]);
          }
          if (b->requires_grad()) {
            float* __restrict gb = b->grad().data();
            for (int i = 0; i < n; ++i) {
              const float inv = 1.0f / bv[i];
              gb[i] -= g[i] * av[i] * inv * inv;
            }
          }
        };
      },
      a, b);
  const int n = out->size();
  const float* __restrict av = a->value().data();
  const float* __restrict bv = b->value().data();
  float* __restrict ov = out->value().data();
  for (int i = 0; i < n; ++i) {
    T2H_CHECK_NE(bv[i], 0.0f);
    ov[i] = av[i] / bv[i];
  }
  return out;
}

Tensor Scale(const Tensor& a, float s) {
  Tensor out = MakeOp(
      a->rows(), a->cols(),
      [&] {
        return [a, s](TensorImpl& self) {
          kernels::AxpyInto(a->grad().data(), self.grad().data(), s,
                            self.size());
        };
      },
      a);
  const int n = a->size();
  const float* __restrict av = a->value().data();
  float* __restrict ov = out->value().data();
  for (int i = 0; i < n; ++i) ov[i] = av[i] * s;
  return out;
}

Tensor ScaleByScalar(const Tensor& a, const Tensor& s) {
  T2H_CHECK(s->rows() == 1 && s->cols() == 1);
  Tensor out = MakeOp(
      a->rows(), a->cols(),
      [&] {
        return [a, s](TensorImpl& self) {
          const int n = self.size();
          const float* g = self.grad().data();
          const float sv = s->value()[0];
          if (a->requires_grad()) {
            kernels::AxpyInto(a->grad().data(), g, sv, n);
          }
          if (s->requires_grad()) {
            s->grad()[0] += kernels::Dot(g, a->value().data(), n);
          }
        };
      },
      a, s);
  const int n = a->size();
  const float sv = s->value()[0];
  const float* __restrict av = a->value().data();
  float* __restrict ov = out->value().data();
  for (int i = 0; i < n; ++i) ov[i] = av[i] * sv;
  return out;
}

Tensor AddScalar(const Tensor& a, float s) {
  Tensor out = MakeOp(
      a->rows(), a->cols(),
      [&] {
        return [a](TensorImpl& self) {
          kernels::AddInto(a->grad().data(), self.grad().data(), self.size());
        };
      },
      a);
  const int n = a->size();
  const float* __restrict av = a->value().data();
  float* __restrict ov = out->value().data();
  for (int i = 0; i < n; ++i) ov[i] = av[i] + s;
  return out;
}

Tensor Relu(const Tensor& a) {
  return Unary(
      a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

Tensor Tanh(const Tensor& a) {
  return Unary(
      a, [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0f - y * y; });
}

Tensor Sigmoid(const Tensor& a) {
  return Unary(
      a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float, float y) { return y * (1.0f - y); });
}

Tensor Exp(const Tensor& a) {
  return Unary(
      a, [](float x) { return std::exp(x); },
      [](float, float y) { return y; });
}

Tensor Log(const Tensor& a) {
  return Unary(
      a,
      [](float x) {
        // Negative/zero finite input is a caller bug; NaN is allowed through
        // so divergence surfaces as a non-finite loss, not a process abort.
        T2H_CHECK(!(x <= 0.0f));
        return std::log(x);
      },
      [](float x, float) { return 1.0f / x; });
}

Tensor Sqrt(const Tensor& a) {
  return Unary(
      a,
      [](float x) {
        // Same contract as Log: reject negative finite inputs, let NaN
        // propagate to the trainer's divergence guard.
        T2H_CHECK(!(x < 0.0f));
        return std::sqrt(x);
      },
      [](float, float y) { return 0.5f / std::max(y, 1e-6f); });
}

Tensor SoftmaxRows(const Tensor& a) {
  Tensor out = MakeOp(
      a->rows(), a->cols(),
      [&] {
        return [a](TensorImpl& self) {
          kernels::SoftmaxRowsBwd(self.value().data(), self.grad().data(),
                                  a->grad().data(), self.rows(), self.cols());
        };
      },
      a);
  kernels::SoftmaxRowsFwd(a->value().data(), out->value().data(), a->rows(),
                          a->cols());
  return out;
}

Tensor NormalizeRows(const Tensor& a, float epsilon) {
  const int rows = a->rows();
  const int cols = a->cols();
  // Forward statistics first: the backward closure captures inv_sigma by
  // value, so it must be complete before MakeOp runs.
  std::vector<float> values(static_cast<size_t>(rows) * cols);
  std::vector<float> inv_sigma(rows);
  kernels::NormalizeRowsFwd(a->value().data(), values.data(), inv_sigma.data(),
                            rows, cols, epsilon);
  Tensor out = MakeOp(
      rows, cols,
      [&] {
        return [a, inv_sigma](TensorImpl& self) {
          // dL/dx = (1/sigma) * (g - mean(g) - y * mean(g * y)) per row.
          const int rows = self.rows(), c = self.cols();
          const float* __restrict g = self.grad().data();
          const float* __restrict y = self.value().data();
          float* __restrict ga = a->grad().data();
          for (int r = 0; r < rows; ++r) {
            const float* __restrict grow = g + static_cast<long>(r) * c;
            const float* __restrict yrow = y + static_cast<long>(r) * c;
            float* __restrict garow = ga + static_cast<long>(r) * c;
            float mean_g = 0.0f, mean_gy = 0.0f;
            for (int j = 0; j < c; ++j) {
              mean_g += grow[j];
              mean_gy += grow[j] * yrow[j];
            }
            mean_g /= c;
            mean_gy /= c;
            const float is = inv_sigma[r];
            for (int j = 0; j < c; ++j) {
              garow[j] += is * (grow[j] - mean_g - yrow[j] * mean_gy);
            }
          }
        };
      },
      a);
  out->value() = std::move(values);
  return out;
}

Tensor Transpose(const Tensor& a) {
  const int rows = a->rows(), cols = a->cols();
  Tensor out = MakeOp(
      cols, rows,
      [&] {
        return [a](TensorImpl& self) {
          // self is [cols, rows]; write a's grad rows contiguously.
          const int rows = a->rows(), cols = a->cols();
          const float* g = self.grad().data();
          float* __restrict ga = a->grad().data();
          for (int r = 0; r < rows; ++r) {
            float* __restrict garow = ga + static_cast<long>(r) * cols;
            const float* __restrict gcol = g + r;
            for (int c = 0; c < cols; ++c) {
              garow[c] += gcol[static_cast<long>(c) * rows];
            }
          }
        };
      },
      a);
  const float* av = a->value().data();
  float* __restrict ov = out->value().data();
  for (int r = 0; r < rows; ++r) {
    const float* __restrict arow = av + static_cast<long>(r) * cols;
    for (int c = 0; c < cols; ++c) ov[static_cast<long>(c) * rows + r] = arow[c];
  }
  return out;
}

Tensor ConcatCols(const Tensor& a, const Tensor& b) {
  T2H_CHECK_EQ(a->rows(), b->rows());
  const int rows = a->rows(), c1 = a->cols(), c2 = b->cols();
  Tensor out = MakeOp(
      rows, c1 + c2,
      [&] {
        return [a, b, c1, c2](TensorImpl& self) {
          const int rows = self.rows(), oc = self.cols();
          const float* g = self.grad().data();
          if (a->requires_grad()) {
            float* ga = a->grad().data();
            for (int r = 0; r < rows; ++r) {
              kernels::AddInto(ga + static_cast<long>(r) * c1,
                               g + static_cast<long>(r) * oc, c1);
            }
          }
          if (b->requires_grad()) {
            float* gb = b->grad().data();
            for (int r = 0; r < rows; ++r) {
              kernels::AddInto(gb + static_cast<long>(r) * c2,
                               g + static_cast<long>(r) * oc + c1, c2);
            }
          }
        };
      },
      a, b);
  const float* av = a->value().data();
  const float* bv = b->value().data();
  float* ov = out->value().data();
  const int oc = c1 + c2;
  for (int r = 0; r < rows; ++r) {
    float* __restrict orow = ov + static_cast<long>(r) * oc;
    const float* __restrict arow = av + static_cast<long>(r) * c1;
    const float* __restrict brow = bv + static_cast<long>(r) * c2;
    for (int c = 0; c < c1; ++c) orow[c] = arow[c];
    for (int c = 0; c < c2; ++c) orow[c1 + c] = brow[c];
  }
  return out;
}

Tensor ConcatRows(const Tensor& a, const Tensor& b) {
  T2H_CHECK_EQ(a->cols(), b->cols());
  const int r1 = a->rows(), r2 = b->rows(), cols = a->cols();
  Tensor out = MakeOp(
      r1 + r2, cols,
      [&] {
        return [a, b, r1, r2, cols](TensorImpl& self) {
          const float* g = self.grad().data();
          if (a->requires_grad()) {
            kernels::AddInto(a->grad().data(), g,
                             r1 * cols);
          }
          if (b->requires_grad()) {
            kernels::AddInto(b->grad().data(),
                             g + static_cast<long>(r1) * cols, r2 * cols);
          }
        };
      },
      a, b);
  float* ov = out->value().data();
  kernels::AddInto(ov, a->value().data(), r1 * cols);
  kernels::AddInto(ov + static_cast<long>(r1) * cols, b->value().data(),
                   r2 * cols);
  return out;
}

Tensor SliceRows(const Tensor& a, int r0, int r1) {
  T2H_CHECK(0 <= r0 && r0 < r1 && r1 <= a->rows());
  const int cols = a->cols();
  Tensor out = MakeOp(
      r1 - r0, cols,
      [&] {
        return [a, r0, cols](TensorImpl& self) {
          kernels::AddInto(a->grad().data() + static_cast<long>(r0) * cols,
                           self.grad().data(), self.rows() * cols);
        };
      },
      a);
  const float* __restrict av =
      a->value().data() + static_cast<long>(r0) * cols;
  float* __restrict ov = out->value().data();
  const int n = (r1 - r0) * cols;
  for (int i = 0; i < n; ++i) ov[i] = av[i];
  return out;
}

Tensor SliceCols(const Tensor& a, int c0, int c1) {
  T2H_CHECK(0 <= c0 && c0 < c1 && c1 <= a->cols());
  const int rows = a->rows(), ac = a->cols(), oc = c1 - c0;
  Tensor out = MakeOp(
      rows, oc,
      [&] {
        return [a, c0, ac, oc](TensorImpl& self) {
          const int rows = self.rows();
          const float* g = self.grad().data();
          float* ga = a->grad().data();
          for (int r = 0; r < rows; ++r) {
            kernels::AddInto(ga + static_cast<long>(r) * ac + c0,
                             g + static_cast<long>(r) * oc, oc);
          }
        };
      },
      a);
  const float* av = a->value().data();
  float* ov = out->value().data();
  for (int r = 0; r < rows; ++r) {
    const float* __restrict arow = av + static_cast<long>(r) * ac + c0;
    float* __restrict orow = ov + static_cast<long>(r) * oc;
    for (int c = 0; c < oc; ++c) orow[c] = arow[c];
  }
  return out;
}

Tensor MeanRows(const Tensor& a) {
  const int rows = a->rows(), cols = a->cols();
  const float inv_n = 1.0f / static_cast<float>(rows);
  Tensor out = MakeOp(
      1, cols,
      [&] {
        return [a, inv_n](TensorImpl& self) {
          const int rows = a->rows(), cols = a->cols();
          const float* g = self.grad().data();
          float* ga = a->grad().data();
          for (int r = 0; r < rows; ++r) {
            kernels::AxpyInto(ga + static_cast<long>(r) * cols, g, inv_n,
                              cols);
          }
        };
      },
      a);
  kernels::MeanRowsFwd(a->value().data(), out->value().data(), rows, cols);
  return out;
}

Tensor SumAll(const Tensor& a) {
  Tensor out = MakeOp(
      1, 1,
      [&] {
        return [a](TensorImpl& self) {
          const float g = self.grad()[0];
          const int n = a->size();
          float* __restrict ga = a->grad().data();
          for (int i = 0; i < n; ++i) ga[i] += g;
        };
      },
      a);
  float acc = 0.0f;
  for (const float v : a->value()) acc += v;
  out->value()[0] = acc;
  return out;
}

Tensor GatherRows(const Tensor& table, const std::vector<int>& indices) {
  T2H_CHECK(!indices.empty());
  for (const int i : indices) T2H_CHECK(i >= 0 && i < table->rows());
  const int cols = table->cols();
  Tensor out = MakeOp(
      static_cast<int>(indices.size()), cols,
      [&] {
        return [table, indices](TensorImpl& self) {
          const int cols = self.cols();
          const float* g = self.grad().data();
          float* gt = table->grad().data();
          for (size_t r = 0; r < indices.size(); ++r) {
            kernels::AddInto(gt + static_cast<long>(indices[r]) * cols,
                             g + static_cast<long>(r) * cols, cols);
          }
        };
      },
      table);
  const float* tv = table->value().data();
  float* ov = out->value().data();
  for (size_t r = 0; r < indices.size(); ++r) {
    const float* __restrict trow = tv + static_cast<long>(indices[r]) * cols;
    float* __restrict orow = ov + static_cast<long>(r) * cols;
    for (int c = 0; c < cols; ++c) orow[c] = trow[c];
  }
  return out;
}

Tensor Constant(int rows, int cols, float v) {
  Tensor t = MakeTensor(rows, cols, false);
  std::fill(t->value().begin(), t->value().end(), v);
  return t;
}

Tensor Detach(const Tensor& a) {
  Tensor t = MakeTensor(a->rows(), a->cols(), false);
  t->value() = a->value();
  return t;
}

Tensor Dot(const Tensor& a, const Tensor& b) {
  T2H_CHECK(a->rows() == 1 && b->rows() == 1);
  return SumAll(Mul(a, b));
}

Tensor EuclideanDistance(const Tensor& a, const Tensor& b) {
  Tensor diff = Sub(a, b);
  return Sqrt(AddScalar(SumAll(Mul(diff, diff)), 1e-8f));
}

}  // namespace traj2hash::nn
