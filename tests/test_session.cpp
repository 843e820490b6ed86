// SolveSession facade and the strictly validated solver-config factory.
//
// Covers: the load → configure → solve flow (result, history, trace and
// profile all populated); calls out of order fail with messages naming the
// missing step; repeated solves on one session are independent; unknown or
// ill-typed config keys are rejected naming the offending key and listing
// the valid ones (both makeSolver and makeSolverFromString); the
// preconditioner() chain walk; GRAPHENE_NO_HALO_REORDER=0 leaves the halo
// reordering on; the end-to-end benchmark's solver configs never take the
// interpreter's generic walk.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "dsl/interpreter.hpp"
#include "graphene.hpp"

using namespace graphene;
using namespace graphene::solver;

namespace {

/// EXPECT_THROW with a message-content check.
template <typename Fn>
std::string messageOf(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

std::size_t iterationEvents(const support::TraceSink& trace) {
  std::size_t n = 0;
  for (const auto& ev : trace.events()) {
    n += ev.kind == support::TraceKind::Iteration ? 1 : 0;
  }
  return n;
}

}  // namespace

TEST(SolveSession, OneStopSolveFlow) {
  SolveSession session({.tiles = 4});
  session.load(matrix::poisson2d5(8, 8)).configure(R"({
    "type": "cg", "tolerance": 1e-6, "maxIterations": 200
  })");
  std::vector<double> rhs(session.matrix().rows(), 1.0);
  auto result = session.solve(rhs);

  EXPECT_EQ(result.solve.status, SolveStatus::Converged);
  EXPECT_EQ(result.x.size(), rhs.size());
  EXPECT_FALSE(result.history.empty());
  EXPECT_GT(result.simulatedSeconds, 0.0);
  EXPECT_LT(result.solve.finalResidual, 1e-5);

  // Observability comes along for free: the trace saw every iteration and
  // every compute superstep the profile counted.
  ASSERT_EQ(session.trace().dropped(), 0u);
  EXPECT_EQ(iterationEvents(session.trace()), result.history.size());
  EXPECT_EQ(support::traceComputeCycles(session.trace()),
            session.profile().computeCycles);
  EXPECT_TRUE(session.traceChromeJson().isObject());

  // x actually solves the system (checked on the host in double).
  const auto& A = matrix::poisson2d5(8, 8).matrix;
  std::vector<double> ax(A.rows());
  A.spmv(result.x, ax);
  double maxErr = 0;
  for (std::size_t i = 0; i < ax.size(); ++i) {
    maxErr = std::max(maxErr, std::abs(ax[i] - rhs[i]));
  }
  EXPECT_LT(maxErr, 1e-3);
}

TEST(SolveSession, RepeatedSolvesAreIndependent) {
  SolveSession session({.tiles = 4});
  session.load(matrix::poisson2d5(8, 8)).configure(R"({
    "type": "cg", "tolerance": 1e-6, "maxIterations": 200
  })");
  std::vector<double> rhs(session.matrix().rows(), 1.0);
  auto first = session.solve(rhs);
  auto second = session.solve(rhs);

  // Same program, fresh engine: bit-identical outcome, history not
  // accumulated across solves, trace re-armed.
  EXPECT_EQ(first.x, second.x);
  EXPECT_EQ(first.history.size(), second.history.size());
  EXPECT_EQ(iterationEvents(session.trace()), second.history.size());
}

TEST(SolveSession, HaloReorderEnvZeroMeansOff) {
  // Boolean GRAPHENE_* switches treat "0" like unset: the §IV blockwise halo
  // exchange stays, so the solve emits exactly the exchange instructions of
  // a solve with the variable unset. The per-cell baseline shows the count
  // tells the two exchange plans apart.
  const char* ambientRaw = std::getenv("GRAPHENE_NO_HALO_REORDER");
  const bool hadAmbient = ambientRaw != nullptr;
  const std::string ambient = hadAmbient ? ambientRaw : "";
  auto exchangeInstructions = [](SessionOptions options) {
    SolveSession session(options);
    session.load(matrix::poisson2d5(12, 12)).configure(R"({
      "type": "cg", "tolerance": 1e-6, "maxIterations": 200
    })");
    std::vector<double> rhs(session.matrix().rows(), 1.0);
    session.solve(rhs);
    return session.profile().exchangeInstructions;
  };
  ::unsetenv("GRAPHENE_NO_HALO_REORDER");
  const std::size_t unset = exchangeInstructions({.tiles = 8});
  const std::size_t perCell =
      exchangeInstructions({.tiles = 8, .perCellHalo = true});
  ::setenv("GRAPHENE_NO_HALO_REORDER", "0", 1);
  const std::size_t zero = exchangeInstructions({.tiles = 8});
  if (hadAmbient) {
    ::setenv("GRAPHENE_NO_HALO_REORDER", ambient.c_str(), 1);
  } else {
    ::unsetenv("GRAPHENE_NO_HALO_REORDER");
  }
  EXPECT_LT(unset, perCell);
  EXPECT_EQ(zero, unset);
}

TEST(SolveSession, OrderingErrorsNameTheMissingStep) {
  {
    SolveSession s;
    std::vector<double> rhs(10, 1.0);
    EXPECT_NE(messageOf([&] { s.solve(rhs); }).find("load()"),
              std::string::npos);
    EXPECT_NE(messageOf([&] { s.matrix(); }).find("load()"),
              std::string::npos);
    EXPECT_NE(messageOf([&] { s.solver(); }).find("configure()"),
              std::string::npos);
    EXPECT_NE(messageOf([&] { s.profile(); }).find("solve()"),
              std::string::npos);
  }
  {
    SolveSession s({.tiles = 4});
    s.load(matrix::poisson2d5(8, 8));
    std::vector<double> rhs(s.matrix().rows(), 1.0);
    EXPECT_NE(messageOf([&] { s.solve(rhs); }).find("configure()"),
              std::string::npos);
    EXPECT_THROW(s.load(matrix::poisson2d5(8, 8)), Error);  // only once
    // Wrong-sized rhs is caught before anything runs.
    s.configure(R"({"type": "cg"})");
    std::vector<double> bad(3, 1.0);
    EXPECT_NE(messageOf([&] { s.solve(bad); }).find("rows"),
              std::string::npos);
  }
}

TEST(ConfigValidation, UnknownKeyNamesItAndListsValidOnes) {
  const char* text = R"({"type": "cg", "tolerence": 1e-6})";
  std::string msg = messageOf([&] { makeSolverFromString(text); });
  EXPECT_NE(msg.find("tolerence"), std::string::npos) << msg;
  EXPECT_NE(msg.find("tolerance"), std::string::npos) << msg;     // listed
  EXPECT_NE(msg.find("maxIterations"), std::string::npos) << msg; // listed

  // Same through the pre-parsed entry point.
  json::Object cfg;
  cfg["type"] = "jacobi";
  cfg["sweeps"] = 2;  // gauss-seidel key, not a jacobi key
  std::string msg2 = messageOf([&] { makeSolver(json::Value(cfg)); });
  EXPECT_NE(msg2.find("sweeps"), std::string::npos) << msg2;
  EXPECT_NE(msg2.find("iterations"), std::string::npos) << msg2;
}

TEST(ConfigValidation, WrongTypeNamesTheKey) {
  std::string msg = messageOf(
      [&] { makeSolverFromString(R"({"type": "cg", "tolerance": "tight"})"); });
  EXPECT_NE(msg.find("tolerance"), std::string::npos) << msg;
  EXPECT_NE(msg.find("number"), std::string::npos) << msg;

  // Nested configs are validated too (preconditioner of a cg).
  std::string nested = messageOf([&] {
    makeSolverFromString(
        R"({"type": "cg", "preconditioner": {"type": "ilu", "fill": 2}})");
  });
  EXPECT_NE(nested.find("fill"), std::string::npos) << nested;

  // Robustness sub-keys as well.
  std::string rob = messageOf([&] {
    makeSolverFromString(
        R"({"type": "cg", "robustness": {"maxRestart": 1}})");
  });
  EXPECT_NE(rob.find("maxRestart"), std::string::npos) << rob;
  EXPECT_NE(rob.find("maxRestarts"), std::string::npos) << rob;
}

TEST(ConfigValidation, MissingOrUnknownTypeListsValidTypes) {
  std::string noType = messageOf([&] { makeSolverFromString(R"({})"); });
  EXPECT_NE(noType.find("type"), std::string::npos) << noType;
  EXPECT_NE(noType.find("bicgstab"), std::string::npos) << noType;

  std::string badType =
      messageOf([&] { makeSolverFromString(R"({"type": "sor"})"); });
  EXPECT_NE(badType.find("sor"), std::string::npos) << badType;
  EXPECT_NE(badType.find("gauss-seidel"), std::string::npos) << badType;
}

TEST(ConfigValidation, ValidConfigsStillBuild) {
  // Every solver type with its full key set parses and builds.
  EXPECT_NE(makeSolverFromString(R"({
    "type": "mpir", "extendedType": "doubleword", "maxRefinements": 5,
    "tolerance": 1e-10,
    "inner": {"type": "bicgstab", "maxIterations": 10, "tolerance": 0,
              "preconditioner": {"type": "dilu"},
              "robustness": {"maxRestarts": 1, "checkpointEvery": 4}},
    "robustness": {"maxRollbacks": 2, "residualGrowthFactor": 50}
  })"),
            nullptr);
  EXPECT_NE(makeSolverFromString(
                R"({"type": "gauss-seidel", "sweeps": 2, "tolerance": 1e-4,
                    "maxIterations": 50})"),
            nullptr);
  EXPECT_NE(makeSolverFromString(
                R"({"type": "richardson", "iterations": 3, "omega": 0.9})"),
            nullptr);
  EXPECT_NE(makeSolverFromString(R"({"type": "identity"})"), nullptr);
}

TEST(SolverChain, PreconditionerWalk) {
  auto mpir = makeSolverFromString(R"({
    "type": "mpir", "maxRefinements": 2, "tolerance": 1e-10,
    "inner": {"type": "bicgstab", "maxIterations": 5, "tolerance": 0,
              "preconditioner": {"type": "ilu"}}
  })");
  EXPECT_EQ(mpir->chainName(), "mpir+bicgstab+ilu");
  ASSERT_NE(mpir->preconditioner(), nullptr);
  EXPECT_EQ(mpir->preconditioner()->name(), "bicgstab");
  EXPECT_EQ(mpir->preconditioner()->preconditioner()->name(), "ilu");

  // Leaf solvers end the chain with the default nullptr.
  auto ilu = makeSolverFromString(R"({"type": "ilu"})");
  EXPECT_EQ(ilu->preconditioner(), nullptr);
  EXPECT_EQ(ilu->chainName(), "ilu");
}

TEST(SolveSession, BenchmarkConfigsRunWholeOnTheVm) {
  // Every codelet of the end-to-end benchmark's solver configs compiles to
  // the register VM, so a solve never enters the generic walk: CG+Jacobi on
  // a 2-D Poisson mesh, and MPIR double-word refinement over ILU(0)
  // BiCGStab on a 4×8 pod.
  struct Case {
    const char* config;
    matrix::GeneratedMatrix m;
    std::optional<ipu::Topology> topology;
  };
  const Case cases[] = {
      {R"({"type": "cg", "tolerance": 1e-6, "maxIterations": 2000,
           "preconditioner": {"type": "jacobi"}})",
       matrix::poisson2d5(40, 40), std::nullopt},
      {R"({"type": "mpir", "extendedType": "doubleword",
           "maxRefinements": 30, "tolerance": 1e-10,
           "inner": {"type": "bicgstab", "maxIterations": 8,
                     "tolerance": 0, "preconditioner": {"type": "ilu"}}})",
       matrix::poisson3d7(8, 8, 8), ipu::Topology::pod(4, 8)},
  };
  const bool env = dsl::codeletFastPathsEnabled();
  dsl::setCodeletFastPaths(true);  // also under GRAPHENE_NO_FASTPATH=1
  for (const Case& c : cases) {
    SessionOptions options;
    options.hostThreads = 2;
    options.topology = c.topology;
    SolveSession session(options);
    session.load(c.m).configure(c.config);
    std::vector<double> rhs(c.m.matrix.rows());
    for (std::size_t i = 0; i < rhs.size(); ++i) {
      rhs[i] = std::sin(0.37 * static_cast<double>(i));
    }
    const std::uint64_t before = dsl::codeletWalkEntries();
    const SolveSession::Result result = session.solve(rhs);
    EXPECT_EQ(dsl::codeletWalkEntries() - before, 0u) << c.config;
    EXPECT_EQ(result.solve.status, SolveStatus::Converged) << c.config;
  }
  dsl::setCodeletFastPaths(env);
}
