// Multi-IPU pod sessions and the communication-minimizing Krylov path.
//
// Covers: SessionOptions topology resolution (explicit Topology beats
// GRAPHENE_TEST_POD beats plain tiles); pipelined CG (Ghysels-style) is
// convergence-equivalent to classic CG (±1 iterations) while spending
// fewer exchange supersteps per iteration on a pod — the one global
// reduction per iteration overlaps with SpMV + preconditioner; both CG
// variants are bit-identical across host thread counts; the two-level
// (per-IPU partials, then across chips) reduction tree converges; the
// pipelined solver keeps the robustness envelope under fault injection.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "graphene.hpp"

using namespace graphene;
using namespace graphene::solver;

namespace {

struct PodRun {
  SolveSession::Result result;
  double exchangeSupersteps = 0;
  double exchangeSuperstepsPerIter = 0;
};

PodRun runOnPod(const matrix::GeneratedMatrix& g, const char* config,
             const ipu::Topology& topo, std::size_t hostThreads = 0) {
  SolveSession session({.topology = topo, .hostThreads = hostThreads});
  session.load(g).configure(config);
  std::vector<double> rhs(session.matrix().rows(), 1.0);
  PodRun r;
  r.result = session.solve(rhs);
  r.exchangeSupersteps =
      static_cast<double>(session.profile().exchangeSupersteps);
  r.exchangeSuperstepsPerIter =
      r.exchangeSupersteps /
      static_cast<double>(std::max<std::size_t>(1, r.result.solve.iterations));
  return r;
}

constexpr const char* kClassicCg =
    R"({"type": "cg", "tolerance": 1e-5, "maxIterations": 400})";
constexpr const char* kPipelinedCg =
    R"({"type": "cg", "pipelined": true, "tolerance": 1e-5,
        "maxIterations": 400})";

}  // namespace

TEST(PodSession, ExplicitTopologyBeatsEnvBeatsTiles) {
  // The whole suite may run under an ambient GRAPHENE_TEST_POD (the pod CI
  // job does exactly that) — stash it so this test controls the variable.
  const char* ambientRaw = std::getenv("GRAPHENE_TEST_POD");
  const std::string ambient = ambientRaw != nullptr ? ambientRaw : "";
  ::unsetenv("GRAPHENE_TEST_POD");

  // Plain tiles: a single chip.
  ipu::Topology plain = resolveSessionTopology({.tiles = 32});
  EXPECT_EQ(plain.numIpus(), 1u);
  EXPECT_EQ(plain.totalTiles(), 32u);

  // GRAPHENE_TEST_POD=4 splits the same budget across four chips.
  ::setenv("GRAPHENE_TEST_POD", "4", 1);
  ipu::Topology env = resolveSessionTopology({.tiles = 32});
  EXPECT_EQ(env.numIpus(), 4u);
  EXPECT_EQ(env.tilesPerIpu(), 8u);
  EXPECT_EQ(env.totalTiles(), 32u);

  // An explicit topology wins over the environment.
  ipu::Topology forced = resolveSessionTopology(
      {.tiles = 32, .topology = ipu::Topology::pod(2, 8)});
  EXPECT_EQ(forced.numIpus(), 2u);
  EXPECT_EQ(forced.totalTiles(), 16u);

  // A pod size that does not divide the budget falls back to one chip.
  ::setenv("GRAPHENE_TEST_POD", "5", 1);
  ipu::Topology indivisible = resolveSessionTopology({.tiles = 32});
  EXPECT_EQ(indivisible.numIpus(), 1u);

  if (ambient.empty()) {
    ::unsetenv("GRAPHENE_TEST_POD");
  } else {
    ::setenv("GRAPHENE_TEST_POD", ambient.c_str(), 1);
  }
}

TEST(PodSession, PodSolveMatchesSingleChipSolution) {
  const matrix::GeneratedMatrix g = matrix::poisson2d5(12, 12);
  PodRun one = runOnPod(g, kClassicCg, ipu::Topology::singleIpu(16));
  PodRun pod = runOnPod(g, kClassicCg, ipu::Topology::pod(4, 4));
  ASSERT_EQ(one.result.solve.status, SolveStatus::Converged);
  ASSERT_EQ(pod.result.solve.status, SolveStatus::Converged);
  ASSERT_EQ(one.result.x.size(), pod.result.x.size());
  // Different partitions reorder float32 sums, so equality is approximate —
  // but both must solve the same system.
  for (std::size_t i = 0; i < one.result.x.size(); ++i) {
    EXPECT_NEAR(one.result.x[i], pod.result.x[i], 1e-4) << "row " << i;
  }
}

TEST(PipelinedCg, ConvergenceEquivalentToClassicCg) {
  const ipu::Topology pod = ipu::Topology::pod(2, 16);
  for (const auto& g : {matrix::poisson2d5(16, 16),
                        matrix::poisson3d7(8, 8, 8)}) {
    PodRun classic = runOnPod(g, kClassicCg, pod);
    PodRun piped = runOnPod(g, kPipelinedCg, pod);
    ASSERT_EQ(classic.result.solve.status, SolveStatus::Converged);
    ASSERT_EQ(piped.result.solve.status, SolveStatus::Converged);
    const auto a = static_cast<long>(classic.result.solve.iterations);
    const auto b = static_cast<long>(piped.result.solve.iterations);
    EXPECT_LE(std::labs(a - b), 1) << "classic " << a << " vs pipelined " << b;
    EXPECT_LT(piped.result.solve.finalResidual, 1e-5);
  }
}

TEST(PipelinedCg, FewerExchangeSuperstepsPerIterationOnPod) {
  // The point of PIPECG: one fused reduction (overlapped with SpMV + M⁻¹)
  // instead of three dependent reduction rounds per iteration, so on a pod
  // every iteration crosses the IPU-Link fabric fewer times.
  const matrix::GeneratedMatrix g = matrix::poisson3d7(10, 10, 10);
  const ipu::Topology pod = ipu::Topology::pod(4, 8);
  PodRun classic = runOnPod(g, kClassicCg, pod);
  PodRun piped = runOnPod(g, kPipelinedCg, pod);
  ASSERT_EQ(classic.result.solve.status, SolveStatus::Converged);
  ASSERT_EQ(piped.result.solve.status, SolveStatus::Converged);
  EXPECT_LT(piped.exchangeSuperstepsPerIter,
            0.8 * classic.exchangeSuperstepsPerIter)
      << "pipelined " << piped.exchangeSuperstepsPerIter << "/iter vs classic "
      << classic.exchangeSuperstepsPerIter << "/iter";
}

TEST(PipelinedCg, BitIdenticalAcrossHostThreadCounts) {
  const matrix::GeneratedMatrix g = matrix::poisson2d5(14, 14);
  const ipu::Topology pod = ipu::Topology::pod(2, 8);
  for (const char* config : {kClassicCg, kPipelinedCg}) {
    PodRun t1 = runOnPod(g, config, pod, /*hostThreads=*/1);
    PodRun t8 = runOnPod(g, config, pod, /*hostThreads=*/8);
    ASSERT_EQ(t1.result.solve.status, SolveStatus::Converged);
    EXPECT_EQ(t1.result.solve.iterations, t8.result.solve.iterations);
    EXPECT_EQ(t1.result.solve.finalResidual, t8.result.solve.finalResidual);
    ASSERT_EQ(t1.result.x.size(), t8.result.x.size());
    for (std::size_t i = 0; i < t1.result.x.size(); ++i) {
      ASSERT_EQ(t1.result.x[i], t8.result.x[i])
          << "row " << i << " differs between 1 and 8 host threads";
    }
  }
}

TEST(PipelinedCg, TwoLevelReductionConverges) {
  // The 4x8 pod reduces in two levels; one 32-tile chip reduces flat.
  const matrix::GeneratedMatrix g = matrix::poisson3d7(8, 8, 8);
  PodRun flat = runOnPod(g, kPipelinedCg, ipu::Topology::singleIpu(32));
  PodRun twoLevel = runOnPod(g, kPipelinedCg, ipu::Topology::pod(4, 8));
  ASSERT_EQ(flat.result.solve.status, SolveStatus::Converged);
  ASSERT_EQ(twoLevel.result.solve.status, SolveStatus::Converged);
  // Different summation trees: convergence-equivalent, not bit-equal.
  const auto a = static_cast<long>(flat.result.solve.iterations);
  const auto b = static_cast<long>(twoLevel.result.solve.iterations);
  EXPECT_LE(std::labs(a - b), 2);
  EXPECT_LT(twoLevel.result.solve.finalResidual, 1e-5);
}

TEST(PipelinedCg, ChaosBitflipScanOnPod) {
  // The chaos contract on a pod: a finite flip of the pipelined residual at
  // any scanned superstep must end converged-for-real — never a silently
  // wrong answer, never an endless oscillation. Silent finite corruption is
  // PIPECG's weak spot (it sits below the divergence threshold and evades
  // ABFT timing, but wrecks the direction recurrences' conjugacy); the
  // stagnation guard + checkpoint restart is the envelope that must catch
  // it, and at least one scanned flip must actually need that recovery.
  const matrix::GeneratedMatrix g = matrix::poisson2d5(12, 12);
  std::size_t recovered = 0;
  for (std::size_t superstep = 16; superstep <= 48; superstep += 4) {
    SolveSession session({.topology = ipu::Topology::pod(2, 8)});
    session.load(g)
        .configure(R"({
          "type": "cg", "pipelined": true, "tolerance": 1e-5,
          "maxIterations": 400,
          "robustness": {"abft": true, "abftTolerance": 1e-3,
                         "maxRestarts": 3, "checkpointEvery": 8}
        })")
        .withFaultPlan(json::parse(R"({"seed": )" +
                                   std::to_string(superstep) +
                                   R"(, "faults": [{"type": "bitflip",
          "tensor": "pcg_r", "bit": 22, "probability": 1.0, "count": 1,
          "superstep": )" + std::to_string(superstep) + R"(}]})"));
    std::vector<double> rhs(session.matrix().rows(), 1.0);
    auto result = session.solve(rhs);
    ASSERT_EQ(result.solve.status, SolveStatus::Converged)
        << "flip at superstep " << superstep;
    if (result.solve.restarts > 0 ||
        session.profile().metrics.counter("resilience.abft.mismatches") > 0) {
      ++recovered;
    }
    // Converged must mean converged-for-real: check on the host.
    std::vector<double> ax(g.matrix.rows());
    g.matrix.spmv(result.x, ax);
    double maxErr = 0;
    for (std::size_t i = 0; i < ax.size(); ++i) {
      maxErr = std::max(maxErr, std::abs(ax[i] - rhs[i]));
    }
    EXPECT_LT(maxErr, 1e-2) << "silently wrong answer, flip at superstep "
                            << superstep;
  }
  EXPECT_GE(recovered, 1u)
      << "no scanned flip exercised the recovery envelope";
}
