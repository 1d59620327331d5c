// Finite-difference gradient verification for every differentiable op.
//
// Each case builds a scalar loss from a parameter tensor through the op
// under test and compares analytic gradients against central differences
// (nn::MaxGradError). A parameterised sweep covers multiple shapes.

#include <cmath>
#include <functional>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/grad_check.h"
#include "nn/ops.h"

namespace traj2hash::nn {
namespace {

constexpr double kTol = 2e-2;  // float forward + 1e-3 step central diff

Tensor RandomTensor(int rows, int cols, Rng& rng, bool requires_grad = true,
                    float scale = 1.0f) {
  Tensor t = MakeTensor(rows, cols, requires_grad);
  for (float& v : t->value()) {
    v = static_cast<float>(rng.Uniform(-scale, scale));
  }
  return t;
}

/// Reduces any tensor to a scalar with non-uniform weights, so gradient
/// errors cannot cancel out.
Tensor WeightedSum(const Tensor& t) {
  Tensor weights = MakeTensor(t->rows(), t->cols(), false);
  for (int i = 0; i < weights->size(); ++i) {
    weights->value()[i] = 0.1f * static_cast<float>(i + 1);
  }
  return SumAll(Mul(t, weights));
}

struct OpCase {
  std::string name;
  // Builds loss(param, other) for a [rows, cols] param.
  std::function<Tensor(const Tensor& param, const Tensor& other)> build;
  float param_scale = 1.0f;
};

// Names the case in test listings; gtest's default byte dump would embed the
// std::string and std::function pointers, so the listed test name would change
// from one process to the next.
void PrintTo(const OpCase& op_case, std::ostream* os) { *os << op_case.name; }

class OpGradTest : public ::testing::TestWithParam<OpCase> {};

TEST_P(OpGradTest, MatchesFiniteDifferences) {
  const OpCase& op_case = GetParam();
  Rng rng(7);
  const Tensor param = RandomTensor(3, 4, rng, true, op_case.param_scale);
  const Tensor other = RandomTensor(3, 4, rng, false);
  const double err = MaxGradError(
      param, [&] { return op_case.build(param, other); });
  EXPECT_LT(err, kTol) << op_case.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, OpGradTest,
    ::testing::Values(
        OpCase{"Add",
               [](const Tensor& p, const Tensor& o) {
                 return WeightedSum(Add(p, o));
               }},
        OpCase{"Sub",
               [](const Tensor& p, const Tensor& o) {
                 return WeightedSum(Sub(p, o));
               }},
        OpCase{"Mul",
               [](const Tensor& p, const Tensor& o) {
                 return WeightedSum(Mul(p, o));
               }},
        OpCase{"MulSelf",  // both parents are the same tensor
               [](const Tensor& p, const Tensor&) {
                 return WeightedSum(Mul(p, p));
               }},
        OpCase{"Div",
               [](const Tensor& p, const Tensor& o) {
                 return WeightedSum(Div(p, AddScalar(Mul(o, o), 1.0f)));
               }},
        OpCase{"Scale",
               [](const Tensor& p, const Tensor&) {
                 return WeightedSum(Scale(p, -2.5f));
               }},
        OpCase{"AddScalar",
               [](const Tensor& p, const Tensor&) {
                 return WeightedSum(AddScalar(p, 3.0f));
               }},
        OpCase{"Relu",
               [](const Tensor& p, const Tensor&) {
                 return WeightedSum(Relu(p));
               }},
        OpCase{"Tanh",
               [](const Tensor& p, const Tensor&) {
                 return WeightedSum(Tanh(p));
               }},
        OpCase{"Sigmoid",
               [](const Tensor& p, const Tensor&) {
                 return WeightedSum(Sigmoid(p));
               }},
        OpCase{"Exp",
               [](const Tensor& p, const Tensor&) {
                 return WeightedSum(Exp(p));
               }},
        OpCase{"Log",
               [](const Tensor& p, const Tensor&) {
                 return WeightedSum(Log(AddScalar(Mul(p, p), 1.0f)));
               }},
        OpCase{"Sqrt",
               [](const Tensor& p, const Tensor&) {
                 return WeightedSum(Sqrt(AddScalar(Mul(p, p), 1.0f)));
               }},
        OpCase{"SoftmaxRows",
               [](const Tensor& p, const Tensor&) {
                 return WeightedSum(SoftmaxRows(p));
               }},
        OpCase{"Transpose",
               [](const Tensor& p, const Tensor&) {
                 return WeightedSum(Transpose(p));
               }},
        OpCase{"ConcatCols",
               [](const Tensor& p, const Tensor& o) {
                 return WeightedSum(ConcatCols(p, o));
               }},
        OpCase{"ConcatRows",
               [](const Tensor& p, const Tensor& o) {
                 return WeightedSum(ConcatRows(p, o));
               }},
        OpCase{"SliceRows",
               [](const Tensor& p, const Tensor&) {
                 return WeightedSum(SliceRows(p, 1, 3));
               }},
        OpCase{"SliceCols",
               [](const Tensor& p, const Tensor&) {
                 return WeightedSum(SliceCols(p, 1, 3));
               }},
        OpCase{"MeanRows",
               [](const Tensor& p, const Tensor&) {
                 return WeightedSum(MeanRows(p));
               }},
        OpCase{"SumAll",
               [](const Tensor& p, const Tensor&) { return SumAll(p); }},
        OpCase{"GatherRows",
               [](const Tensor& p, const Tensor&) {
                 // Repeated index exercises scatter-accumulate.
                 return WeightedSum(GatherRows(p, {0, 2, 2}));
               }},
        OpCase{"ScaleByScalarParamIsVector",
               [](const Tensor& p, const Tensor&) {
                 const Tensor s = SumAll(SliceRows(p, 0, 1));
                 return WeightedSum(ScaleByScalar(SliceRows(p, 1, 3), s));
               }},
        OpCase{"EuclideanDistanceComposite",
               [](const Tensor& p, const Tensor& o) {
                 return EuclideanDistance(SliceRows(p, 0, 1),
                                          SliceRows(o, 1, 2));
               }}),
    [](const ::testing::TestParamInfo<OpCase>& info) {
      return info.param.name;
    });

TEST(MatMulGradTest, BothSides) {
  Rng rng(3);
  const Tensor a = RandomTensor(3, 5, rng);
  const Tensor b = RandomTensor(5, 2, rng);
  const double err_a =
      MaxGradError(a, [&] { return WeightedSum(MatMul(a, b)); });
  const double err_b =
      MaxGradError(b, [&] { return WeightedSum(MatMul(a, b)); });
  EXPECT_LT(err_a, kTol);
  EXPECT_LT(err_b, kTol);
}

TEST(DotGradTest, VectorInputs) {
  Rng rng(4);
  const Tensor a = RandomTensor(1, 6, rng);
  const Tensor b = RandomTensor(1, 6, rng);
  const double err = MaxGradError(a, [&] { return Dot(a, b); });
  EXPECT_LT(err, kTol);
}

TEST(BackwardTest, GradientAccumulatesAcrossCalls) {
  const Tensor p = FromValues(1, 1, {2.0f}, true);
  const Tensor l1 = Mul(p, p);
  Backward(l1);
  const float once = p->grad()[0];
  const Tensor l2 = Mul(p, p);
  Backward(l2);
  EXPECT_FLOAT_EQ(p->grad()[0], 2.0f * once);
}

TEST(BackwardTest, DiamondGraphCountsBothPaths) {
  // loss = p*p + p*p through two distinct intermediate nodes.
  const Tensor p = FromValues(1, 1, {3.0f}, true);
  const Tensor left = Mul(p, p);
  const Tensor right = Mul(p, p);
  Backward(Add(left, right));
  EXPECT_FLOAT_EQ(p->grad()[0], 12.0f);  // d/dp (2 p^2) = 4p
}

TEST(BackwardTest, DeepChainDoesNotOverflowStack) {
  Tensor x = FromValues(1, 4, {0.1f, 0.2f, 0.3f, 0.4f}, true);
  Tensor h = x;
  for (int i = 0; i < 20000; ++i) h = AddScalar(h, 1e-6f);
  Backward(SumAll(h));
  for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(x->grad()[i], 1.0f);
}

}  // namespace
}  // namespace traj2hash::nn
