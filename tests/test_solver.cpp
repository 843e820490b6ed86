// End-to-end solver tests on the simulated IPU: distributed SpMV, halo
// exchange, preconditioners, PBiCGStab and MPIR.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "graph/engine.hpp"
#include "matrix/generators.hpp"
#include "partition/partitioner.hpp"
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
