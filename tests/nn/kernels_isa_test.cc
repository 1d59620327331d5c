// Per-ISA contract tests for nn::kernels (DESIGN.md §14): each available
// backend is forced via ScopedKernelIsa and checked against the scalar
// backend's output — elementwise kernels must match BIT-FOR-BIT on every
// backend (they never reassociate or fuse), while reduction kernels
// (MatMulAccum / MatMulGradA / MatMulGradB / Dot) must be deterministic
// within a backend (two runs bit-identical) and within a small relative
// epsilon of scalar across backends. ISAs the host cannot run are skipped
// visibly ("SKIPPED: no avx2"), never silently downgraded.

#include "nn/kernels.h"

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/cpu_features.h"
#include "common/rng.h"

namespace traj2hash::nn::kernels {
namespace {

std::vector<float> RandomVec(int n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.Uniform(-1.5, 1.5));
  return v;
}

bool BitIdentical(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

double MaxRelDiff(const std::vector<float>& a, const std::vector<float>& b) {
  double worst = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double denom = std::max(1.0, std::fabs(static_cast<double>(a[i])));
    worst = std::max(worst, std::fabs(static_cast<double>(a[i]) - b[i]) / denom);
  }
  return worst;
}

class KernelIsaContractTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    const auto parsed = ParseKernelIsa(GetParam());
    ASSERT_TRUE(parsed.ok());
    isa_ = parsed.value();
    if (!KernelIsaAvailable(isa_)) {
      GTEST_SKIP() << "SKIPPED: no " << GetParam()
                   << " (not compiled in or unsupported by this CPU)";
    }
  }

  KernelIsa isa_ = KernelIsa::kScalar;
};

/// Runs `fn` once under the scalar backend and twice under the tested one;
/// returns {scalar_out, out_run1, out_run2}.
template <typename Fn>
std::vector<std::vector<float>> RunUnderBoth(KernelIsa isa, int out_size,
                                             Fn&& fn) {
  std::vector<std::vector<float>> outs;
  {
    ScopedKernelIsa pin(KernelIsa::kScalar);
    outs.push_back(fn());
  }
  {
    ScopedKernelIsa pin(isa);
    outs.push_back(fn());
    outs.push_back(fn());
  }
  EXPECT_EQ(static_cast<int>(outs[0].size()), out_size);
  return outs;
}

TEST_P(KernelIsaContractTest, ElementwiseKernelsAreBitIdenticalToScalar) {
  Rng rng(101);
  // Sizes straddle every vector width and tail length.
  for (const int n : {1, 3, 4, 7, 8, 16, 33, 100}) {
    const std::vector<float> src = RandomVec(n, rng);
    const std::vector<float> b = RandomVec(n, rng);
    const std::vector<float> dst0 = RandomVec(n, rng);

    const auto add = RunUnderBoth(isa_, n, [&] {
      std::vector<float> dst = dst0;
      AddInto(dst.data(), src.data(), n);
      return dst;
    });
    EXPECT_TRUE(BitIdentical(add[0], add[1])) << "AddInto n=" << n;

    const auto sub = RunUnderBoth(isa_, n, [&] {
      std::vector<float> dst = dst0;
      SubInto(dst.data(), src.data(), n);
      return dst;
    });
    EXPECT_TRUE(BitIdentical(sub[0], sub[1])) << "SubInto n=" << n;

    const auto axpy = RunUnderBoth(isa_, n, [&] {
      std::vector<float> dst = dst0;
      AxpyInto(dst.data(), src.data(), 0.37f, n);
      return dst;
    });
    EXPECT_TRUE(BitIdentical(axpy[0], axpy[1])) << "AxpyInto n=" << n;

    const auto mul = RunUnderBoth(isa_, n, [&] {
      std::vector<float> dst(n);
      MulInto(dst.data(), src.data(), b.data(), n);
      return dst;
    });
    EXPECT_TRUE(BitIdentical(mul[0], mul[1])) << "MulInto n=" << n;
  }
}

TEST_P(KernelIsaContractTest, MatMulKernelsDeterministicAndNearScalar) {
  Rng rng(102);
  constexpr double kRelTol = 1e-4;
  // Shapes hit the 4x16 microkernel, its row/column tails, and tiny cases.
  const int shapes[][3] = {{1, 1, 1},   {2, 3, 5},   {4, 16, 16},
                           {5, 17, 19}, {8, 32, 24}, {13, 40, 33}};
  for (const auto& s : shapes) {
    const int n = s[0], k = s[1], m = s[2];
    const std::vector<float> a = RandomVec(n * k, rng);
    const std::vector<float> b = RandomVec(k * m, rng);
    const std::vector<float> dc = RandomVec(n * m, rng);
    const std::vector<float> c0 = RandomVec(n * m, rng);  // accumulate into

    const auto accum = RunUnderBoth(isa_, n * m, [&] {
      std::vector<float> c = c0;
      MatMulAccum(a.data(), b.data(), c.data(), n, k, m);
      return c;
    });
    EXPECT_TRUE(BitIdentical(accum[1], accum[2]))
        << "MatMulAccum nondeterministic " << n << "x" << k << "x" << m;
    EXPECT_LE(MaxRelDiff(accum[0], accum[1]), kRelTol)
        << "MatMulAccum " << n << "x" << k << "x" << m;

    const auto grad_a = RunUnderBoth(isa_, n * k, [&] {
      std::vector<float> da(static_cast<size_t>(n) * k, 0.25f);
      MatMulGradA(dc.data(), b.data(), da.data(), n, k, m);
      return da;
    });
    EXPECT_TRUE(BitIdentical(grad_a[1], grad_a[2]))
        << "MatMulGradA nondeterministic " << n << "x" << k << "x" << m;
    EXPECT_LE(MaxRelDiff(grad_a[0], grad_a[1]), kRelTol)
        << "MatMulGradA " << n << "x" << k << "x" << m;

    const auto grad_b = RunUnderBoth(isa_, k * m, [&] {
      std::vector<float> db(static_cast<size_t>(k) * m, -0.125f);
      MatMulGradB(a.data(), dc.data(), db.data(), n, k, m);
      return db;
    });
    EXPECT_TRUE(BitIdentical(grad_b[1], grad_b[2]))
        << "MatMulGradB nondeterministic " << n << "x" << k << "x" << m;
    EXPECT_LE(MaxRelDiff(grad_b[0], grad_b[1]), kRelTol)
        << "MatMulGradB " << n << "x" << k << "x" << m;
  }
}

// The row contract the inference encoder relies on to prune rows and stack
// rows (kernels.h, DESIGN.md §8): within one backend, an n-row MatMulAccum
// equals, bitwise, every split of it into consecutive row groups, down to
// one-row calls. All 2^(n-1) splits are tried for each n.
TEST_P(KernelIsaContractTest, MatMulAccumEqualsEveryRowSplit) {
  ScopedKernelIsa pin(isa_);
  Rng rng(104);
  for (const int k : {2, 16, 64, 128}) {
    for (const int m : {16, 23, 32, 64, 128, 192}) {
      const std::vector<float> b = RandomVec(k * m, rng);
      for (int n = 1; n <= 9; ++n) {
        const std::vector<float> a = RandomVec(n * k, rng);
        const std::vector<float> c0 = RandomVec(n * m, rng);  // accumulate into
        std::vector<float> whole = c0;
        MatMulAccum(a.data(), b.data(), whole.data(), n, k, m);
        // Bit r of `cuts` set = a group boundary before row r + 1.
        for (unsigned cuts = 0; cuts < (1u << (n - 1)); ++cuts) {
          std::vector<float> split = c0;
          int r0 = 0;
          for (int r = 1; r <= n; ++r) {
            if (r < n && !(cuts & (1u << (r - 1)))) continue;
            MatMulAccum(a.data() + static_cast<long>(r0) * k, b.data(),
                        split.data() + static_cast<long>(r0) * m, r - r0, k,
                        m);
            r0 = r;
          }
          ASSERT_TRUE(BitIdentical(whole, split))
              << "n=" << n << " k=" << k << " m=" << m << " cuts=" << cuts;
        }
      }
    }
  }
}

TEST_P(KernelIsaContractTest, DotDeterministicAndNearScalar) {
  Rng rng(103);
  for (const int n : {1, 4, 7, 8, 31, 128, 1000}) {
    const std::vector<float> a = RandomVec(n, rng);
    const std::vector<float> b = RandomVec(n, rng);
    float scalar_dot = 0.0f;
    {
      ScopedKernelIsa pin(KernelIsa::kScalar);
      scalar_dot = Dot(a.data(), b.data(), n);
    }
    ScopedKernelIsa pin(isa_);
    const float d1 = Dot(a.data(), b.data(), n);
    const float d2 = Dot(a.data(), b.data(), n);
    EXPECT_EQ(d1, d2) << "Dot nondeterministic n=" << n;
    const double denom = std::max(1.0, std::fabs(static_cast<double>(scalar_dot)));
    EXPECT_LE(std::fabs(static_cast<double>(scalar_dot) - d1) / denom, 1e-4)
        << "Dot n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(AllIsas, KernelIsaContractTest,
                         ::testing::Values("scalar", "sse2", "avx2"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace traj2hash::nn::kernels
