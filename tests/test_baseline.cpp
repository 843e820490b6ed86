// Tests for the host reference solver stack and the platform models.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "baseline/cpu_solver.hpp"
#include "baseline/platform.hpp"
#include "matrix/generators.hpp"
#include "support/rng.hpp"

using namespace graphene;
using namespace graphene::baseline;

TEST(HostIlu, ExactForTriangularProduct) {
  // For a matrix that IS the product of unit-lower and upper triangular
  // factors with no dropped fill, ILU(0) is exact: solve(A x) == x.
  auto g = matrix::poisson2d5(10, 10);
  HostIlu0 ilu(g.matrix);
  Rng rng(5);
  std::vector<double> x(g.matrix.rows()), r(x.size()), z(x.size());
  for (double& v : x) v = rng.uniform(-1, 1);
  // r = M x where M = L*U is close to A; applying solve must approximately
  // invert A (quality check: residual drops by a large factor).
  g.matrix.spmv(x, r);
  ilu.solve(r, z);
  double errNum = 0, errDen = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    errNum += (z[i] - x[i]) * (z[i] - x[i]);
    errDen += x[i] * x[i];
  }
  EXPECT_LT(std::sqrt(errNum / errDen), 0.6);  // strong approximate inverse
}

TEST(HostBiCgStab, ConvergesWithAndWithoutIlu) {
  auto g = matrix::afShellLike(2500);
  Rng rng(11);
  std::vector<double> b(g.matrix.rows());
  for (double& v : b) v = rng.uniform(-1, 1);

  auto plain = hostBiCgStab(g.matrix, b, 1e-9, 4000, false);
  auto ilu = hostBiCgStab(g.matrix, b, 1e-9, 4000, true);
  EXPECT_TRUE(plain.converged);
  EXPECT_TRUE(ilu.converged);
  // Global ILU(0) must cut iterations substantially (§VI-D discussion).
  EXPECT_LT(ilu.iterations * 2, plain.iterations);
  EXPECT_GT(plain.seconds, 0.0);
}

TEST(HostBiCgStab, ResidualHistoryDecreases) {
  auto g = matrix::poisson2d5(24, 24);
  std::vector<double> b(g.matrix.rows(), 1.0);
  auto r = hostBiCgStab(g.matrix, b, 1e-10, 2000, true);
  ASSERT_TRUE(r.converged);
  EXPECT_LE(r.residualHistory.back(), 1e-10);
}

TEST(HostSpmv, MeasurementIsPositiveAndScales) {
  // Each size's time is the fastest of several measurements: a preemption
  // while other processes load the cores can only slow one measurement.
  auto fastest = [](const matrix::CsrMatrix& m) {
    double best = measureHostSpmvSeconds(m, 5, 50);
    for (int repeat = 1; repeat < 7; ++repeat) {
      best = std::min(best, measureHostSpmvSeconds(m, 5, 50));
    }
    return best;
  };
  auto small = matrix::poisson2d5(20, 20);
  auto large = matrix::poisson2d5(80, 80);
  double tSmall = fastest(small.matrix);
  double tLarge = fastest(large.matrix);
  EXPECT_GT(tSmall, 0.0);
  EXPECT_GT(tLarge, tSmall);  // 16x the work
}

TEST(PlatformModel, SpmvIsBandwidthBoundAndOrdersCorrectly) {
  const std::size_t rows = 1'600'000, nnz = 7'700'000;  // G3_circuit scale
  double cpu = spmvSeconds(xeon8470q(), rows, nnz);
  double gpu = spmvSeconds(h100Sxm(), rows, nnz);
  EXPECT_GT(cpu, gpu);           // H100 has ~10x the bandwidth
  EXPECT_GT(cpu / gpu, 5.0);
  EXPECT_LT(cpu / gpu, 20.0);
}

TEST(PlatformModel, GpuTriSolvePaysLevelLaunches) {
  // With many levels the GPU's per-level kernel launches dominate and the
  // CPU becomes the faster tri-solver — the §VI-D effect.
  const std::size_t rows = 500'000, nnz = 17'600'000;
  const std::size_t levels = 700;
  double cpu = triSolveSeconds(xeon8470q(), rows, nnz, levels);
  double gpu = triSolveSeconds(h100Sxm(), rows, nnz, levels);
  EXPECT_GT(gpu, cpu);
  // Without levels (levels=1) the GPU wins again.
  EXPECT_LT(triSolveSeconds(h100Sxm(), rows, nnz, 1),
            triSolveSeconds(xeon8470q(), rows, nnz, 1));
}

TEST(PlatformModel, EnergyUsesBoardPower) {
  EXPECT_DOUBLE_EQ(energyJoules(h100Sxm(), 2.0), 1400.0);
  EXPECT_DOUBLE_EQ(energyJoules(m2000(), 1.0), 420.0);
}

TEST(HostCg, ConvergesAndBeatsUnpreconditioned) {
  auto g = matrix::geoLike(2000, 3, 100.0);
  Rng rng(21);
  std::vector<double> b(g.matrix.rows());
  for (double& v : b) v = rng.uniform(-1, 1);
  auto plain = hostCg(g.matrix, b, 1e-9, 3000, false);
  auto ilu = hostCg(g.matrix, b, 1e-9, 3000, true);
  EXPECT_TRUE(plain.converged);
  EXPECT_TRUE(ilu.converged);
  EXPECT_LT(ilu.iterations, plain.iterations);
}

TEST(HostCg, AgreesWithBiCgStabSolution) {
  auto g = matrix::poisson2d5(20, 20);
  std::vector<double> b(g.matrix.rows(), 1.0);
  auto cg = hostCg(g.matrix, b, 1e-12, 2000, true);
  auto bicg = hostBiCgStab(g.matrix, b, 1e-12, 2000, true);
  EXPECT_TRUE(cg.converged);
  EXPECT_TRUE(bicg.converged);
  // CG does one SpMV + one preconditioner apply per iteration; BiCGStab two
  // of each — comparable iteration counts on SPD systems.
  EXPECT_LT(cg.iterations, 3 * bicg.iterations);
}

TEST(HostGaussSeidel, ConvergesOnDiagonallyDominant) {
  auto g = matrix::poisson2d5(16, 16);
  std::vector<double> b(g.matrix.rows(), 1.0);
  auto r = hostGaussSeidel(g.matrix, b, 1e-8, 5000);
  EXPECT_TRUE(r.converged);
  // Monotone decreasing residual for this SPD system.
  for (std::size_t i = 1; i < r.residualHistory.size(); ++i) {
    EXPECT_LE(r.residualHistory[i], r.residualHistory[i - 1] * 1.0001);
  }
}
