// End-to-end solver tests on the simulated IPU: distributed SpMV, halo
// exchange, preconditioners, PBiCGStab and MPIR.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "graph/engine.hpp"
#include "matrix/generators.hpp"
#include "partition/partitioner.hpp"
#include "solver/krylov_guard.hpp"
#include "solver/solvers.hpp"
#include "support/rng.hpp"
#include "support/trace.hpp"

using namespace graphene;
using namespace graphene::solver;
using dsl::Context;
using dsl::Expression;
using dsl::Tensor;

namespace {

DistMatrix makeDistMatrix(const matrix::GeneratedMatrix& g,
                          std::size_t tiles) {
  auto layout =
      partition::Partitioner(ipu::Topology::singleIpu(tiles)).layout(g);
  return DistMatrix(g.matrix, std::move(layout));
}

std::vector<double> randomVector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

/// Runs `solverJson` on A x = b; returns the true relative residual computed
/// on the host in double precision from the read-back solution.
struct SolveResult {
  double trueRelResidual;
  std::vector<IterationRecord> history;
  std::vector<IterationRecord> trueHistory;  // MPIR only
  double extRelResidual = -1.0;              // MPIR only (extended x)
  std::size_t iluFactorizeSupersteps = 0;
};

SolveResult runSolve(const matrix::GeneratedMatrix& g, std::size_t tiles,
                     const std::string& solverJson, std::uint64_t seed = 42) {
  Context ctx(ipu::IpuTarget::testTarget(tiles));
  DistMatrix A = makeDistMatrix(g, tiles);
  Tensor x = A.makeVector(DType::Float32, "x");
  Tensor b = A.makeVector(DType::Float32, "b");
  auto solver = makeSolverFromString(solverJson);
  solver->apply(A, x, b);

  graph::Engine engine(ctx.graph());
  A.upload(engine);
  auto bHost = randomVector(g.matrix.rows(), seed);
  // The device stores float32 coefficients; the reference residual below
  // must be computed against the system the device actually solves.
  for (double& v : bHost) v = static_cast<double>(static_cast<float>(v));
  A.writeVector(engine, b, bHost);
  engine.run(ctx.program());

  SolveResult result{};
  std::vector<double> xHost;
  auto* mpir = dynamic_cast<MpirSolver*>(solver.get());
  if (mpir && mpir->extendedSolution()) {
    xHost = A.readVector(engine, *mpir->extendedSolution());
    result.trueHistory = mpir->trueResidualHistory();
  } else {
    xHost = A.readVector(engine, x);
  }
  std::vector<double> Ax(xHost.size());
  g.matrix.spmv(xHost, Ax);
  double num = 0, den = 0;
  for (std::size_t i = 0; i < Ax.size(); ++i) {
    num += (bHost[i] - Ax[i]) * (bHost[i] - Ax[i]);
    den += bHost[i] * bHost[i];
  }
  result.trueRelResidual = std::sqrt(num / den);
  result.history = solver->history();
  const auto& stats = engine.profile().superstepStats;
  if (auto it = stats.find("ilu_factorize"); it != stats.end()) {
    result.iluFactorizeSupersteps = it->second.supersteps;
  }
  return result;
}

}  // namespace

// ---------------------------------------------------------------------------
// Distributed SpMV
// ---------------------------------------------------------------------------

struct SpmvCase {
  const char* name;
  matrix::GeneratedMatrix (*make)();
  std::size_t tiles;
};

matrix::GeneratedMatrix spmvPoisson2d() { return matrix::poisson2d5(13, 11); }
matrix::GeneratedMatrix spmvPoisson3d() { return matrix::poisson3d7(6, 5, 7); }
matrix::GeneratedMatrix spmvCircuit() { return matrix::g3CircuitLike(900); }
matrix::GeneratedMatrix spmvShell() { return matrix::afShellLike(700); }

class DistributedSpmv : public ::testing::TestWithParam<SpmvCase> {};

TEST_P(DistributedSpmv, MatchesHostCsrWithinFloat32) {
  const SpmvCase& c = GetParam();
  auto g = c.make();
  Context ctx(ipu::IpuTarget::testTarget(c.tiles));
  DistMatrix A = makeDistMatrix(g, c.tiles);
  Tensor x = A.makeVector(DType::Float32, "x");
  Tensor y = A.makeVector(DType::Float32, "y");
  A.spmv(y, x);

  graph::Engine engine(ctx.graph());
  A.upload(engine);
  auto xHost = randomVector(g.matrix.rows(), 7);
  A.writeVector(engine, x, xHost);
  engine.run(ctx.program());

  auto yGot = A.readVector(engine, y);
  std::vector<double> yRef(xHost.size());
  g.matrix.spmv(xHost, yRef);
  double scale = 0;
  for (double v : yRef) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 0; i < yRef.size(); ++i) {
    EXPECT_NEAR(yGot[i], yRef[i], 1e-5 * std::max(scale, 1.0))
        << c.name << " row " << i;
  }
  // Exchange happened: with >1 tile there must be halo traffic.
  if (c.tiles > 1) {
    EXPECT_GT(engine.profile().exchangedBytes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DistributedSpmv,
    ::testing::Values(SpmvCase{"poisson2d_4t", &spmvPoisson2d, 4},
                      SpmvCase{"poisson2d_1t", &spmvPoisson2d, 1},
                      SpmvCase{"poisson3d_8t", &spmvPoisson3d, 8},
                      SpmvCase{"circuit_6t", &spmvCircuit, 6},
                      SpmvCase{"shell_5t", &spmvShell, 5}),
    [](const ::testing::TestParamInfo<SpmvCase>& info) {
      return info.param.name;
    });

TEST(DistributedSpmv, ExtendedResidualIsExtendedPrecise) {
  // r = b − A·x in double-word must resolve differences far below float32.
  auto g = matrix::poisson2d5(8, 8);
  Context ctx(ipu::IpuTarget::testTarget(4));
  DistMatrix A = makeDistMatrix(g, 4);
  Tensor x = A.makeVector(DType::DoubleWord, "x");
  Tensor b = A.makeVector(DType::DoubleWord, "b");
  Tensor r = A.makeVector(DType::DoubleWord, "r");
  A.residualExt(r, b, x);

  graph::Engine engine(ctx.graph());
  A.upload(engine);
  auto xHost = randomVector(g.matrix.rows(), 3);
  // b = A x + 1e-9 — the residual must be ~1e-9, invisible to float32.
  std::vector<double> bHost(xHost.size());
  g.matrix.spmv(xHost, bHost);
  for (double& v : bHost) v += 1e-9;
  A.writeVector(engine, x, xHost);
  A.writeVector(engine, b, bHost);
  engine.run(ctx.program());

  auto rGot = A.readVector(engine, r);
  for (double v : rGot) {
    EXPECT_NEAR(v, 1e-9, 2e-10);
  }
}

// ---------------------------------------------------------------------------
// Solvers
// ---------------------------------------------------------------------------

TEST(Solvers, JacobiReducesResidual) {
  auto g = matrix::poisson2d5(10, 10);
  auto res = runSolve(g, 4, R"({"type":"jacobi","iterations":200})");
  EXPECT_LT(res.trueRelResidual, 0.5);  // Jacobi is slow but must progress
}

TEST(Solvers, GaussSeidelConvergesOnPoisson) {
  auto g = matrix::poisson2d5(12, 12);
  auto res = runSolve(
      g, 4, R"({"type":"gauss-seidel","sweeps":1,"tolerance":1e-5,
               "maxIterations":2000})");
  EXPECT_LT(res.trueRelResidual, 1e-4);
  EXPECT_FALSE(res.history.empty());
  // Residual history must be decreasing overall.
  EXPECT_LT(res.history.back().residual, res.history.front().residual);
}

TEST(Solvers, BiCgStabUnpreconditionedConverges) {
  auto g = matrix::poisson2d5(16, 16);
  auto res = runSolve(
      g, 4, R"({"type":"bicgstab","maxIterations":400,"tolerance":1e-6})");
  EXPECT_LT(res.trueRelResidual, 1e-4);
}

TEST(Solvers, IluPreconditioningAcceleratesBiCgStab) {
  auto g = matrix::poisson2d5(16, 16);
  auto plain = runSolve(
      g, 4, R"({"type":"bicgstab","maxIterations":500,"tolerance":1e-5})");
  auto ilu = runSolve(
      g, 4, R"({"type":"bicgstab","maxIterations":500,"tolerance":1e-5,
                "preconditioner":{"type":"ilu"}})");
  EXPECT_LT(ilu.trueRelResidual, 1e-4);
  EXPECT_LT(ilu.history.size(), plain.history.size())
      << "ILU(0) must reduce the iteration count";
}

TEST(Solvers, DiluPreconditioningWorks) {
  auto g = matrix::poisson2d5(16, 16);
  auto plain = runSolve(
      g, 4, R"({"type":"bicgstab","maxIterations":500,"tolerance":1e-5})");
  auto dilu = runSolve(
      g, 4, R"({"type":"bicgstab","maxIterations":500,"tolerance":1e-5,
                "preconditioner":{"type":"dilu"}})");
  EXPECT_LT(dilu.trueRelResidual, 1e-4);
  EXPECT_LT(dilu.history.size(), plain.history.size());
}

TEST(Solvers, GaussSeidelAsPreconditioner) {
  auto g = matrix::poisson2d5(16, 16);
  auto gs = runSolve(
      g, 4, R"({"type":"bicgstab","maxIterations":500,"tolerance":1e-5,
                "preconditioner":{"type":"gauss-seidel","sweeps":2}})");
  EXPECT_LT(gs.trueRelResidual, 1e-4);
}

TEST(Solvers, SingleTileMatchesMultiTileIterationCounts) {
  // The distributed solver must behave like a solver (not diverge) at
  // several decompositions; iteration counts may differ (block-Jacobi
  // preconditioning) but all must converge.
  auto g = matrix::poisson2d5(16, 16);
  for (std::size_t tiles : {1u, 2u, 8u}) {
    auto res = runSolve(
        g, tiles, R"({"type":"bicgstab","maxIterations":600,"tolerance":1e-5,
                     "preconditioner":{"type":"ilu"}})");
    EXPECT_LT(res.trueRelResidual, 1e-4) << tiles << " tiles";
  }
}

// ---------------------------------------------------------------------------
// MPIR (§V-B / §VI-C)
// ---------------------------------------------------------------------------

TEST(Mpir, DoubleWordReachesBeyondFloat32) {
  auto g = matrix::poisson2d5(12, 12);
  auto res = runSolve(
      g, 4,
      R"({"type":"mpir","extendedType":"doubleword","maxRefinements":25,
          "tolerance":1e-12,
          "inner":{"type":"bicgstab","maxIterations":25,"tolerance":0,
                   "preconditioner":{"type":"ilu"}}})");
  // The extended solution must be far below the float32 stall (~1e-6).
  EXPECT_LT(res.trueRelResidual, 1e-10);
}

TEST(Mpir, SoftDoubleReachesEvenFurther) {
  auto g = matrix::poisson2d5(12, 12);
  auto res = runSolve(
      g, 4,
      R"({"type":"mpir","extendedType":"float64","maxRefinements":25,
          "tolerance":1e-14,
          "inner":{"type":"bicgstab","maxIterations":25,"tolerance":0,
                   "preconditioner":{"type":"ilu"}}})");
  EXPECT_LT(res.trueRelResidual, 1e-12);
}

TEST(Mpir, PlainFloat32RefinementStalls) {
  // extendedType float32 = the paper's "IR" configuration: no precision
  // gain, the true residual stalls near single precision.
  auto g = matrix::poisson2d5(12, 12);
  auto res = runSolve(
      g, 4,
      R"({"type":"mpir","extendedType":"float32","maxRefinements":25,
          "tolerance":1e-12,
          "inner":{"type":"bicgstab","maxIterations":25,"tolerance":0,
                   "preconditioner":{"type":"ilu"}}})");
  EXPECT_GT(res.trueRelResidual, 1e-9);  // cannot reach double-word depths
  EXPECT_LT(res.trueRelResidual, 1e-3);  // but float32 level is reached
}

TEST(Mpir, TrueResidualHistoryIsRecorded) {
  auto g = matrix::poisson2d5(10, 10);
  auto res = runSolve(
      g, 4,
      R"({"type":"mpir","extendedType":"doubleword","maxRefinements":8,
          "tolerance":1e-12,
          "inner":{"type":"bicgstab","maxIterations":20,"tolerance":0,
                   "preconditioner":{"type":"ilu"}}})");
  ASSERT_GE(res.trueHistory.size(), 2u);
  EXPECT_LT(res.trueHistory.back().residual,
            res.trueHistory.front().residual);
}

// MPIR emits its inner solver's setup once, outside the refinement loop, so
// the ILU(0) factorisation runs once per solve however many refinements
// follow: as often as in one plain ILU-BiCGStab solve.
TEST(Mpir, FactorisesTheInnerIluOncePerSolve) {
  auto g = matrix::poisson2d5(10, 10);
  auto mpir = runSolve(
      g, 4,
      R"({"type":"mpir","extendedType":"doubleword","maxRefinements":8,
          "tolerance":1e-12,
          "inner":{"type":"bicgstab","maxIterations":20,"tolerance":0,
                   "preconditioner":{"type":"ilu"}}})");
  auto single = runSolve(
      g, 4,
      R"({"type":"bicgstab","maxIterations":20,"tolerance":0,
          "preconditioner":{"type":"ilu"}})");
  ASSERT_GE(mpir.trueHistory.size(), 2u);
  EXPECT_GT(single.iluFactorizeSupersteps, 0u);
  EXPECT_EQ(mpir.iluFactorizeSupersteps, single.iluFactorizeSupersteps);
}

// ---------------------------------------------------------------------------
// Stationary sweeps against their zero-start formulation
// ---------------------------------------------------------------------------

namespace {

using EmitSweeps = std::function<void(DistMatrix&, Tensor&, Tensor&)>;

/// What one application of emitted sweeps leaves behind.
struct SweepRun {
  std::vector<double> z;
  double spmvs = 0;   // SpMV compute sets run (`spmv.count`)
  double cycles = 0;  // simulated cycles of the whole run
  std::vector<std::size_t> samples;  // iteration indices of trace samples
};

/// Emits `emit(A, z, r)` once on `topology`, runs it with r a seeded random
/// vector and reads z back.
SweepRun runSweeps(const matrix::GeneratedMatrix& g,
                   const ipu::Topology& topology, const EmitSweeps& emit) {
  Context ctx(topology.target());
  DistMatrix A(g.matrix, partition::Partitioner(topology).layout(g));
  Tensor z = A.makeVector(DType::Float32, "z");
  Tensor r = A.makeVector(DType::Float32, "r");
  emit(A, z, r);

  graph::Engine engine(ctx.graph());
  support::TraceSink sink;
  engine.setTraceSink(&sink);
  A.upload(engine);
  A.writeVector(engine, r, randomVector(g.matrix.rows(), 11));
  engine.run(ctx.program());

  SweepRun run{A.readVector(engine, z),
               engine.profile().metrics.counter("spmv.count"),
               engine.simCycles(),
               {}};
  for (const support::TraceEvent& ev : sink.events()) {
    if (ev.kind == support::TraceKind::Iteration) {
      run.samples.push_back(ev.iteration);
    }
  }
  return run;
}

/// Damped Jacobi in its zero-start formulation: z = 0, then k full sweeps,
/// the first of which multiplies A by zero.
EmitSweeps zeroStartJacobi(std::size_t k, float omega) {
  return [=](DistMatrix& a, Tensor& z, Tensor& r) {
    z = Expression(0.0f);
    Tensor res = a.makeVector(DType::Float32, "ref_res");
    dsl::Repeat(k, [&] {
      a.spmv(res, z);
      res = Expression(r) - Expression(res);
      z = Expression(z) +
          Expression(omega) * Expression(res) / Expression(a.diagonal());
    });
  };
}

/// Richardson in its zero-start formulation: z = 0, then k full sweeps.
EmitSweeps zeroStartRichardson(std::size_t k, float omega) {
  return [=](DistMatrix& a, Tensor& z, Tensor& r) {
    z = Expression(0.0f);
    Tensor res = a.makeVector(DType::Float32, "ref_res");
    dsl::Repeat(k, [&] {
      a.spmv(res, z);
      z = Expression(z) + Expression(omega) * (Expression(r) - Expression(res));
    });
  };
}

EmitSweeps applying(std::shared_ptr<Solver> solver) {
  return [solver](DistMatrix& a, Tensor& z, Tensor& r) {
    solver->apply(a, z, r);
  };
}

/// poisson2d5 with a seeded reaction term added to its diagonal, like the
/// matrices of the `timestep` benchmark: on the plain stencil every
/// division by the diagonal (4) is exact, which would hide an update that
/// divides before it scales.
matrix::GeneratedMatrix reactionPoisson2d() {
  matrix::GeneratedMatrix g = matrix::poisson2d5(13, 11);
  Rng rng(5);
  const auto rowPtr = g.matrix.rowPtr();
  const auto col = g.matrix.colIdx();
  const auto val = g.matrix.values();
  for (std::size_t r = 0; r < g.matrix.rows(); ++r) {
    for (std::size_t k = rowPtr[r]; k < rowPtr[r + 1]; ++k) {
      if (static_cast<std::size_t>(col[k]) == r) val[k] += rng.uniform(0, 1);
    }
  }
  g.name += "+reaction";
  return g;
}

/// The solver's z equals the zero-start formulation's, element for element
/// (`==`, so only the sign of an exact zero may differ), after one SpMV
/// fewer and in fewer simulated cycles.
void expectSameSweeps(const char* name, const EmitSweeps& reference,
                      const EmitSweeps& solver, std::size_t k) {
  for (const matrix::GeneratedMatrix& g :
       {matrix::poisson2d5(13, 11), reactionPoisson2d()}) {
    for (const ipu::Topology& topology :
         {ipu::Topology::singleIpu(6), ipu::Topology::pod(4, 4)}) {
      SCOPED_TRACE(testing::Message() << name << " k=" << k << " on "
                                      << g.name << ", "
                                      << topology.numIpus() << " chip(s)");
      const SweepRun ref = runSweeps(g, topology, reference);
      const SweepRun got = runSweeps(g, topology, solver);
      ASSERT_EQ(got.z.size(), ref.z.size());
      for (std::size_t i = 0; i < ref.z.size(); ++i) {
        ASSERT_EQ(got.z[i], ref.z[i]) << "row " << i;
      }
      EXPECT_EQ(ref.spmvs, static_cast<double>(k));
      EXPECT_EQ(got.spmvs, static_cast<double>(k > 0 ? k - 1 : 0));
      if (k > 0) {
        EXPECT_LT(got.cycles, ref.cycles);
      }
    }
  }
}

}  // namespace

TEST(StationarySweeps, JacobiMatchesItsZeroStartFormulation) {
  for (float omega : {1.0f, 0.7f}) {
    for (std::size_t k = 0; k <= 3; ++k) {
      expectSameSweeps("jacobi", zeroStartJacobi(k, omega),
                       applying(std::make_shared<JacobiSolver>(k, omega)), k);
    }
  }
}

TEST(StationarySweeps, RichardsonMatchesItsZeroStartFormulation) {
  for (float omega : {1.0f, 0.7f}) {
    for (std::size_t k = 0; k <= 3; ++k) {
      expectSameSweeps("richardson", zeroStartRichardson(k, omega),
                       applying(std::make_shared<RichardsonSolver>(k, omega)),
                       k);
    }
  }
}

TEST(StationarySweeps, RichardsonSamplesEverySweepFromTheFirst) {
  // The closed-form first sweep records its sample like the others, so a
  // trace still counts the sweeps 1..n.
  const matrix::GeneratedMatrix g = matrix::poisson2d5(13, 11);
  for (std::size_t k : {1, 4}) {
    const SweepRun run =
        runSweeps(g, ipu::Topology::singleIpu(6),
                  applying(std::make_shared<RichardsonSolver>(k, 0.5f)));
    std::vector<std::size_t> expected(k);
    for (std::size_t i = 0; i < k; ++i) expected[i] = i + 1;
    EXPECT_EQ(run.samples, expected);
  }
}

// ---------------------------------------------------------------------------
// Krylov solvers against their separate-dot formulation
// ---------------------------------------------------------------------------

namespace {

/// Classic PCG with its three dot products as separate reductions per
/// iteration: (p, Ap), (r, z), then (r, r).
class SeparateDotCg final : public Solver {
 public:
  SeparateDotCg(std::size_t maxIterations, double tolerance,
                RobustnessOptions robust)
      : maxIterations_(maxIterations), tolerance_(tolerance),
        precond_(makeSolverFromString(R"({"type": "jacobi"})")),
        robust_(robust) {}
  std::string name() const override { return "cg"; }
  Solver* preconditioner() override { return precond_.get(); }

  void apply(DistMatrix& a, Tensor& x, Tensor& b) override {
    using dsl::Dot;
    precond_->ensureSetup(a);
    if (robust_.abft) a.enableAbft(robust_.abftTolerance);
    x = Expression(0.0f);
    Tensor r = a.makeVector(DType::Float32, "cg_resid");
    r = Expression(b);
    Tensor z = a.makeVector(DType::Float32, "cg_z");
    precond_->apply(a, z, r);
    Tensor p = a.makeVector(DType::Float32, "cg_p");
    p = Expression(z);
    Tensor Ap = a.makeVector(DType::Float32, "cg_Ap");
    Tensor bNormSq = Dot(b, b);
    Tensor rz = Tensor(Dot(r, z));
    Tensor rzNew = Tensor::scalar(DType::Float32, "cg_rznew");
    Tensor alpha = Tensor::scalar(DType::Float32, "cg_alpha");
    Tensor beta = Tensor::scalar(DType::Float32, "cg_beta");
    Tensor denom = Tensor::scalar(DType::Float32, "cg_denom");
    Tensor resNormSq = Tensor(Expression(bNormSq));
    Tensor iter = Tensor::scalar(DType::Int32, "cg_iter");
    iter = Expression(0);
    KrylovGuard guard(a, {x, b, bNormSq, resNormSq, iter},
                      {"cg", "cg", "cg.restarts"}, robust_, tolerance_,
                      history_, result_);
    dsl::While(guard.arm(maxIterations_), [&] {
      guard.restartIf([&] {
        a.spmv(Ap, x);
        r = Expression(b) - Expression(Ap);
        precond_->apply(a, z, r);
        p = Expression(z);
        rz = Dot(r, z);
        resNormSq = Dot(r, r);
      });
      a.spmv(Ap, p);
      denom = Dot(p, Ap);
      alpha = dsl::Select(Abs(Expression(denom)) > Expression(0.0f),
                          Expression(rz) / Expression(denom),
                          Expression(0.0f));
      x = Expression(x) + Expression(alpha) * Expression(p);
      r = Expression(r) - Expression(alpha) * Expression(Ap);
      precond_->apply(a, z, r);
      rzNew = Dot(r, z);
      beta = dsl::Select(Abs(Expression(rz)) > Expression(0.0f),
                         Expression(rzNew) / Expression(rz),
                         Expression(0.0f));
      p = Expression(z) + Expression(beta) * Expression(p);
      rz = Expression(rzNew);
      iter = Expression(iter) + 1;
      resNormSq = Dot(r, r);
      guard.duplicateResidual(r);
      guard.endIteration();
    });
    guard.finish(Ap);
  }

 private:
  std::size_t maxIterations_;
  double tolerance_;
  std::unique_ptr<Solver> precond_;
  RobustnessOptions robust_;
};

/// Preconditioned BiCGStab with its five dot products as separate
/// reductions per iteration: rho = (r̂, r) at the top, (r̂, Ay), (t, t),
/// (t, s), then (r, r).
class SeparateDotBiCgStab final : public Solver {
 public:
  SeparateDotBiCgStab(std::size_t maxIterations, double tolerance,
                      RobustnessOptions robust)
      : maxIterations_(maxIterations), tolerance_(tolerance),
        precond_(makeSolverFromString(R"({"type": "ilu"})")),
        robust_(robust) {}
  std::string name() const override { return "bicgstab"; }
  Solver* preconditioner() override { return precond_.get(); }

  void apply(DistMatrix& a, Tensor& x, Tensor& b) override {
    using dsl::Dot;
    precond_->ensureSetup(a);
    if (robust_.abft) a.enableAbft(robust_.abftTolerance);
    x = Expression(0.0f);
    Tensor rA0 = a.makeVector(DType::Float32, "bicg_shadow");
    rA0 = Expression(b);
    Tensor rA = a.makeVector(DType::Float32, "bicg_resid");
    rA = Expression(b);
    Tensor pA = a.makeVector(DType::Float32, "bicg_p");
    pA = Expression(0.0f);
    Tensor yA = a.makeVector(DType::Float32, "bicg_y");
    Tensor zA = a.makeVector(DType::Float32, "bicg_z");
    Tensor AyA = a.makeVector(DType::Float32, "bicg_Ay");
    AyA = Expression(0.0f);
    Tensor sA = a.makeVector(DType::Float32, "bicg_s");
    Tensor tA = a.makeVector(DType::Float32, "bicg_t");
    Tensor bNormSq = Dot(b, b);
    Tensor rA0rAold = Tensor(Expression(bNormSq));
    Tensor rA0rA = Tensor::scalar(DType::Float32, "bicg_rho");
    Tensor alpha = Tensor::scalar(DType::Float32, "bicg_alpha");
    alpha = Expression(1.0f);
    Tensor omega = Tensor::scalar(DType::Float32, "bicg_omega");
    omega = Expression(1.0f);
    Tensor beta = Tensor::scalar(DType::Float32, "bicg_beta");
    Tensor resNormSq = Tensor(Expression(bNormSq));
    Tensor iter = Tensor::scalar(DType::Int32, "bicg_iter");
    iter = Expression(0);
    KrylovGuard guard(a, {x, b, bNormSq, resNormSq, iter},
                      {"bicgstab", "bicg", "bicgstab.restarts"}, robust_,
                      tolerance_, history_, result_,
                      {.breakdownRho = rA0rA.id()});
    Tensor denom = Tensor::scalar(DType::Float32, "bicg_denom");
    Tensor tt = Tensor::scalar(DType::Float32, "bicg_tt");
    dsl::While(guard.arm(maxIterations_), [&] {
      guard.restartIf([&] {
        a.spmv(sA, x);
        rA = Expression(b) - Expression(sA);
        rA0 = Expression(rA);
        pA = Expression(0.0f);
        AyA = Expression(0.0f);
        alpha = Expression(1.0f);
        omega = Expression(1.0f);
        rA0rAold = Dot(rA, rA);
        resNormSq = Expression(rA0rAold);
      });
      rA0rA = Dot(rA0, rA);
      beta = dsl::Select(Abs(Expression(rA0rAold)) * Abs(Expression(omega)) >
                             Expression(0.0f),
                         (Expression(rA0rA) / Expression(rA0rAold)) *
                             (Expression(alpha) / Expression(omega)),
                         Expression(0.0f));
      pA = Expression(rA) + Expression(beta) * (Expression(pA) -
                                                Expression(omega) *
                                                    Expression(AyA));
      precond_->apply(a, yA, pA);
      a.spmv(AyA, yA);
      denom = Dot(rA0, AyA);
      alpha = dsl::Select(Abs(Expression(denom)) > Expression(0.0f),
                          Expression(rA0rA) / Expression(denom),
                          Expression(0.0f));
      sA = Expression(rA) - Expression(alpha) * Expression(AyA);
      precond_->apply(a, zA, sA);
      a.spmv(tA, zA);
      tt = Dot(tA, tA);
      omega = dsl::Select(Expression(tt) > Expression(0.0f),
                          Dot(tA, sA) / Expression(tt), Expression(0.0f));
      x = Expression(x) + Expression(alpha) * Expression(yA) +
          Expression(omega) * Expression(zA);
      rA = Expression(sA) - Expression(omega) * Expression(tA);
      rA0rAold = Expression(rA0rA);
      iter = Expression(iter) + 1;
      resNormSq = Dot(rA, rA);
      guard.duplicateResidual(rA);
      guard.endIteration();
    });
    guard.finish(tA);
  }

 private:
  std::size_t maxIterations_;
  double tolerance_;
  std::unique_ptr<Solver> precond_;
  RobustnessOptions robust_;
};

using MakeKrylov = std::function<std::unique_ptr<Solver>(
    std::size_t maxIterations, double tolerance, RobustnessOptions robust)>;

/// What one solve leaves behind.
struct KrylovRun {
  std::vector<double> x;
  std::vector<IterationRecord> history;
  /// Global reductions run, each counted once (its partial, leader and
  /// final combine compute sets together), the ABFT SpMV checksum folds
  /// left out.
  double reductions = 0;
};

KrylovRun runKrylov(const matrix::GeneratedMatrix& g,
                    const ipu::Topology& topology, Solver& solver) {
  Context ctx(topology.target());
  DistMatrix A(g.matrix, partition::Partitioner(topology).layout(g));
  Tensor x = A.makeVector(DType::Float32, "x");
  Tensor b = A.makeVector(DType::Float32, "b");
  solver.apply(A, x, b);
  const double stepsPerReduction =
      topology.numIpus() > 1 && topology.tilesPerIpu() > 1 ? 3 : 2;

  graph::Engine engine(ctx.graph());
  A.upload(engine);
  A.writeVector(engine, b, randomVector(g.matrix.rows(), 3));
  engine.run(ctx.program());
  const ipu::Profile& prof = engine.profile();
  const auto reduce = prof.superstepStats.find("reduce");
  const double reduceSteps =
      reduce == prof.superstepStats.end()
          ? 0.0
          : static_cast<double>(reduce->second.supersteps);
  return {A.readVector(engine, x), solver.history(),
          reduceSteps / stepsPerReduction -
              prof.metrics.counter("resilience.abft.checks")};
}

/// Global reductions per iteration: the difference of two fixed-length
/// runs, so the reductions before and after the loop cancel.
double reductionsPerIteration(const matrix::GeneratedMatrix& g,
                              const ipu::Topology& topology,
                              const MakeKrylov& make,
                              const RobustnessOptions& robust) {
  auto shortRun = make(3, 0.0, robust);
  auto longRun = make(7, 0.0, robust);
  return (runKrylov(g, topology, *longRun).reductions -
          runKrylov(g, topology, *shortRun).reductions) /
         4.0;
}

/// The solver's x and residual history equal the separate-dot
/// formulation's bit for bit, on one chip and on a pod, with and without
/// ABFT, in `dots` global reductions per iteration (plus ABFT's duplicate
/// of (r, r)) against the reference's `referenceDots`.
void expectSameKrylov(const MakeKrylov& reference, const MakeKrylov& solver,
                      double referenceDots, double dots) {
  const matrix::GeneratedMatrix g = reactionPoisson2d();
  for (const ipu::Topology& topology :
       {ipu::Topology::singleIpu(6), ipu::Topology::pod(4, 4)}) {
    for (bool abft : {false, true}) {
      SCOPED_TRACE(testing::Message() << topology.numIpus() << " chip(s)"
                                      << (abft ? ", ABFT" : ""));
      RobustnessOptions robust;
      robust.abft = abft;
      auto ref = reference(300, 1e-6, robust);
      auto got = solver(300, 1e-6, robust);
      const KrylovRun refRun = runKrylov(g, topology, *ref);
      const KrylovRun gotRun = runKrylov(g, topology, *got);
      EXPECT_EQ(got->result().status, SolveStatus::Converged);
      ASSERT_EQ(gotRun.history.size(), refRun.history.size());
      for (std::size_t i = 0; i < refRun.history.size(); ++i) {
        EXPECT_EQ(gotRun.history[i].iteration, refRun.history[i].iteration);
        EXPECT_EQ(gotRun.history[i].residual, refRun.history[i].residual)
            << "iteration " << i + 1;
      }
      ASSERT_EQ(gotRun.x.size(), refRun.x.size());
      for (std::size_t i = 0; i < refRun.x.size(); ++i) {
        ASSERT_EQ(gotRun.x[i], refRun.x[i]) << "row " << i;
      }
      const double dup = abft ? 1.0 : 0.0;
      EXPECT_EQ(reductionsPerIteration(g, topology, reference, robust),
                referenceDots + dup);
      EXPECT_EQ(reductionsPerIteration(g, topology, solver, robust),
                dots + dup);
    }
  }
}

}  // namespace

TEST(KrylovDots, CgMatchesItsSeparateDotFormulation) {
  expectSameKrylov(
      [](std::size_t n, double tol, RobustnessOptions robust) {
        return std::make_unique<SeparateDotCg>(n, tol, robust);
      },
      [](std::size_t n, double tol, RobustnessOptions robust) {
        return std::make_unique<CgSolver>(
            n, tol, makeSolverFromString(R"({"type": "jacobi"})"), robust);
      },
      3, 2);
}

TEST(KrylovDots, BiCgStabMatchesItsSeparateDotFormulation) {
  expectSameKrylov(
      [](std::size_t n, double tol, RobustnessOptions robust) {
        return std::make_unique<SeparateDotBiCgStab>(n, tol, robust);
      },
      [](std::size_t n, double tol, RobustnessOptions robust) {
        return std::make_unique<BiCgStabSolver>(
            n, tol, makeSolverFromString(R"({"type": "ilu"})"), robust);
      },
      5, 3);
}

// ---------------------------------------------------------------------------
// Config factory
// ---------------------------------------------------------------------------

TEST(SolverConfig, RejectsUnknownTypes) {
  EXPECT_THROW(makeSolverFromString(R"({"type":"qr"})"), Error);
  EXPECT_THROW(makeSolverFromString(R"({"noType":1})"), Error);
  EXPECT_THROW(makeSolverFromString(R"({"type":"mpir"})"), Error);  // no inner
  EXPECT_THROW(
      makeSolverFromString(
          R"({"type":"mpir","extendedType":"quad","inner":{"type":"ilu"}})"),
      Error);
}

TEST(SolverConfig, BuildsNestedHierarchies) {
  auto s = makeSolverFromString(
      R"({"type":"mpir","inner":
           {"type":"bicgstab","preconditioner":
             {"type":"bicgstab","maxIterations":3,"tolerance":0,
              "preconditioner":{"type":"jacobi"}}}})");
  EXPECT_EQ(s->name(), "mpir");
  auto* mpir = dynamic_cast<MpirSolver*>(s.get());
  ASSERT_NE(mpir, nullptr);
  EXPECT_EQ(mpir->inner()->name(), "bicgstab");
  auto* bicg = dynamic_cast<BiCgStabSolver*>(mpir->inner());
  ASSERT_NE(bicg, nullptr);
  EXPECT_EQ(bicg->preconditioner()->name(), "bicgstab");
}

TEST(DistMatrixIo, VectorRoundTripPreservesGlobalOrder) {
  auto g = matrix::poisson3d7(6, 6, 6);
  Context ctx(ipu::IpuTarget::testTarget(8));
  DistMatrix A = makeDistMatrix(g, 8);
  Tensor v = A.makeVector(DType::Float32, "v");
  graph::Engine engine(ctx.graph());
  std::vector<double> data(g.matrix.rows());
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<double>(i) * 0.5;
  }
  A.writeVector(engine, v, data);
  auto back = A.readVector(engine, v);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_DOUBLE_EQ(back[i], data[i]) << "row " << i;
  }
}

TEST(DistMatrixIo, ExtendedVectorRoundTripKeepsPrecision) {
  auto g = matrix::poisson2d5(8, 8);
  Context ctx(ipu::IpuTarget::testTarget(4));
  DistMatrix A = makeDistMatrix(g, 4);
  Tensor v = A.makeVector(DType::DoubleWord, "v");
  graph::Engine engine(ctx.graph());
  std::vector<double> data(g.matrix.rows());
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = 1.0 + 1e-12 * i;
  A.writeVector(engine, v, data);
  auto back = A.readVector(engine, v);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(back[i], data[i], 1e-14);
  }
}

TEST(DistMatrixIo, SpmvWithoutExchangeUsesStaleHalo) {
  // exchange=false must reuse whatever the halo buffer last held (the
  // compute-only mode of the scaling benches) — verified by running once
  // with exchange, changing x, and running without.
  auto g = matrix::poisson2d5(8, 8);
  Context ctx(ipu::IpuTarget::testTarget(4));
  DistMatrix A = makeDistMatrix(g, 4);
  Tensor x = A.makeVector(DType::Float32, "x");
  Tensor y1 = A.makeVector(DType::Float32, "y1");
  Tensor y2 = A.makeVector(DType::Float32, "y2");
  A.spmv(y1, x, /*exchange=*/true);
  A.spmv(y2, x, /*exchange=*/false);

  graph::Engine engine(ctx.graph());
  A.upload(engine);
  std::vector<double> xv(g.matrix.rows(), 1.0);
  A.writeVector(engine, x, xv);
  engine.run(ctx.program());
  // Same x for both: stale halo equals fresh halo here, results identical.
  EXPECT_EQ(A.readVector(engine, y1), A.readVector(engine, y2));
}

TEST(DistMatrixIo, RejectsWrongMappings) {
  auto g = matrix::poisson2d5(6, 6);
  Context ctx(ipu::IpuTarget::testTarget(4));
  DistMatrix A = makeDistMatrix(g, 4);
  // One element short: a genuinely different mapping from the owned one.
  Tensor wrong(DType::Float32, g.matrix.rows() - 1, "wrong");
  graph::Engine engine(ctx.graph());
  std::vector<double> data(g.matrix.rows(), 0.0);
  EXPECT_THROW(A.haloExchange(wrong), Error);
  EXPECT_THROW(A.writeVector(engine, wrong, data), Error);
  std::vector<double> tooShort(3);
  Tensor ok = A.makeVector(DType::Float32, "ok");
  EXPECT_THROW(A.writeVector(engine, ok, tooShort), Error);
}

TEST(DistMatrixIo, HaloSplitSeparatesOwnedFromHaloColumns) {
  auto g = matrix::poisson2d5(8, 8);
  Context ctx(ipu::IpuTarget::testTarget(4));
  DistMatrix A = makeDistMatrix(g, 4);
  // Structural invariant behind the two-run SpMV codelet: within every row,
  // all owned-column entries precede all halo entries.
  for (const auto& local : A.tileLocal()) {
    for (std::size_t i = 0; i < local.numOwned; ++i) {
      bool seenHalo = false;
      for (std::size_t k = local.rowPtr[i]; k < local.rowPtr[i + 1]; ++k) {
        bool isHalo =
            static_cast<std::size_t>(local.col[k]) >= local.numOwned;
        if (seenHalo) {
          EXPECT_TRUE(isHalo) << "row " << i;
        }
        seenHalo |= isHalo;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Structured solve outcomes (SolveStatus / SolveResult)
// ---------------------------------------------------------------------------

namespace {

/// Like runSolve, but keeps the solver alive so result() can be inspected.
std::unique_ptr<Solver> solveAndKeep(const matrix::GeneratedMatrix& g,
                                     std::size_t tiles,
                                     const std::string& solverJson,
                                     bool execute = true) {
  Context ctx(ipu::IpuTarget::testTarget(tiles));
  DistMatrix A = makeDistMatrix(g, tiles);
  Tensor x = A.makeVector(DType::Float32, "x");
  Tensor b = A.makeVector(DType::Float32, "b");
  auto solver = makeSolverFromString(solverJson);
  solver->apply(A, x, b);
  if (!execute) return solver;
  graph::Engine engine(ctx.graph());
  A.upload(engine);
  A.writeVector(engine, b, randomVector(g.matrix.rows(), 42));
  engine.run(ctx.program());
  return solver;
}

}  // namespace

TEST(SolveStatusReporting, NotRunBeforeExecution) {
  auto g = matrix::poisson2d5(8, 8);
  auto solver = solveAndKeep(
      g, 4, R"({"type":"cg","maxIterations":50,"tolerance":1e-6})",
      /*execute=*/false);
  EXPECT_EQ(solver->result().status, SolveStatus::NotRun);
}

TEST(SolveStatusReporting, CgReportsConverged) {
  auto g = matrix::poisson2d5(8, 8);
  auto solver = solveAndKeep(
      g, 4, R"({"type":"cg","maxIterations":500,"tolerance":1e-6})");
  const solver::SolveResult& r = solver->result();
  EXPECT_EQ(r.status, SolveStatus::Converged);
  EXPECT_GT(r.iterations, 0u);
  EXPECT_GE(r.finalResidual, 0.0);
  EXPECT_LE(r.finalResidual, 1e-6);
  EXPECT_EQ(r.restarts, 0u);
  EXPECT_EQ(std::string(toString(r.status)), "converged");
}

TEST(SolveStatusReporting, BiCgStabReportsConverged) {
  auto g = matrix::poisson2d5(8, 8);
  auto solver = solveAndKeep(
      g, 4, R"({"type":"bicgstab","maxIterations":500,"tolerance":1e-6})");
  EXPECT_EQ(solver->result().status, SolveStatus::Converged);
}

TEST(SolveStatusReporting, ExhaustedBudgetReportsMaxIterations) {
  auto g = matrix::poisson2d5(12, 12);
  auto solver = solveAndKeep(
      g, 4, R"({"type":"cg","maxIterations":3,"tolerance":1e-12})");
  const solver::SolveResult& r = solver->result();
  EXPECT_EQ(r.status, SolveStatus::MaxIterations);
  EXPECT_EQ(r.iterations, 3u);
  EXPECT_GT(r.finalResidual, 1e-12);
}

TEST(SolveStatusReporting, MpirReportsConverged) {
  auto g = matrix::poisson2d5(10, 10);
  auto solver = solveAndKeep(
      g, 4,
      R"({"type":"mpir","extendedType":"doubleword","maxRefinements":25,
          "tolerance":1e-11,
          "inner":{"type":"bicgstab","maxIterations":25,"tolerance":0,
                   "preconditioner":{"type":"ilu"}}})");
  const solver::SolveResult& r = solver->result();
  EXPECT_EQ(r.status, SolveStatus::Converged);
  EXPECT_LE(r.finalResidual, 1e-11);
  EXPECT_EQ(r.rollbacks, 0u);  // clean run: no recovery taken
}

TEST(SolveStatusReporting, RobustnessOptionsParseFromJson) {
  RobustnessOptions defaults = parseRobustness(json::parse(R"({})"));
  EXPECT_EQ(defaults.maxRestarts, 2u);
  EXPECT_EQ(defaults.checkpointEvery, 8u);
  EXPECT_EQ(defaults.maxRollbacks, 3u);

  RobustnessOptions custom = parseRobustness(json::parse(R"({
    "robustness": {"maxRestarts": 5, "checkpointEvery": 4,
                   "maxRollbacks": 7, "divergenceFactor": 1e6,
                   "breakdownTolerance": 1e-20,
                   "residualGrowthFactor": 50.0}
  })"));
  EXPECT_EQ(custom.maxRestarts, 5u);
  EXPECT_EQ(custom.checkpointEvery, 4u);
  EXPECT_EQ(custom.maxRollbacks, 7u);
  EXPECT_DOUBLE_EQ(custom.divergenceFactor, 1e6);
  EXPECT_DOUBLE_EQ(custom.breakdownTolerance, 1e-20);
  EXPECT_DOUBLE_EQ(custom.residualGrowthFactor, 50.0);

  EXPECT_THROW(parseRobustness(json::parse(
                   R"({"robustness": {"residualGrowthFactor": 0.5}})")),
               Error);
}
