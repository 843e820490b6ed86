// SolveSession facade and the strictly validated solver-config factory.
//
// Covers: the load → configure → solve flow (result, history, trace and
// profile all populated); calls out of order fail with messages naming the
// missing step; repeated solves on one session — new values, a cancelled
// solve, fault plans, a hard-fault remap — each equal the same solve on a
// fresh session, on the same engine unless remapped; unknown or
// ill-typed config keys are rejected naming the offending key and listing
// the valid ones (both makeSolver and makeSolverFromString); the
// preconditioner() chain walk; support::envFlag reads unset, "" and "0" as
// off; the end-to-end benchmark's solver configs never take the
// interpreter's generic walk, and each of their loop kernels keeps its tier.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dsl/context.hpp"
#include "dsl/interpreter.hpp"
#include "graphene.hpp"
#include "support/env.hpp"

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

/// One solve's observable outcome, flattened to comparable values: the
/// solution's bits, the verdict, the history, and the engine's profile,
/// trace and tile profile (doubles in hexfloat, so equality is exact).
struct SolveRecord {
  std::vector<std::uint64_t> xBits;
  SolveStatus status = SolveStatus::NotRun;
  std::size_t iterations = 0;
  double simCycles = 0;
  std::string history;
  std::string profile;
  std::string trace;
  std::string tileProfile;
};

SolveRecord recordOf(const SolveSession& session,
                     const SolveSession::Result& r) {
  SolveRecord rec;
  for (double v : r.x) rec.xBits.push_back(std::bit_cast<std::uint64_t>(v));
  rec.status = r.solve.status;
  rec.iterations = r.solve.iterations;
  rec.simCycles = r.simCycles;
  std::ostringstream history;
  history << std::hexfloat;
  for (const IterationRecord& h : r.history) {
    history << h.iteration << ':' << h.residual << ' ';
  }
  rec.history = history.str();
  const ipu::Profile& p = session.profile();
  std::ostringstream os;
  os << std::hexfloat;
  for (const auto& [category, cycles] : p.computeCycles) {
    os << category << '=' << cycles << ' ';
  }
  os << p.exchangeCycles << ' ' << p.exchangeIntraCycles << ' '
     << p.exchangeInterCycles << ' ' << p.syncCycles << ' '
     << p.computeSupersteps << ' ' << p.exchangeSupersteps << ' '
     << p.exchangeInstructions << ' ' << p.exchangedBytes << ' '
     << p.interIpuBytes << ' ' << p.interIpuMessages << ' '
     << p.verticesExecuted << '\n';
  for (const auto& [category, s] : p.superstepStats) {
    os << category << ':' << s.supersteps << ',' << s.maxCycles << ','
       << s.meanCycles << ',' << s.minCycles << ',' << s.worstCycles << ','
       << s.worstStragglerTile << ',' << s.worstSuperstep << '\n';
  }
  for (const ipu::FaultEvent& fe : p.faultEvents) {
    os << fe.kind << ',' << fe.superstep << ',' << fe.target << ','
       << fe.element << ',' << fe.bit << ',' << fe.cycles << ','
       << fe.detail << '\n';
  }
  os << support::metricsToPrometheusText(p.metrics);
  rec.profile = os.str();
  rec.trace = session.traceChromeJson().dump();
  if (r.tileProfile) {
    rec.tileProfile = support::tileProfileToJson(*r.tileProfile).dump();
  }
  return rec;
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
  // One session, many solves: new values, new right-hand sides, a cancelled
  // solve, two solves under one fault plan and a hard-fault remap. Each must
  // be exactly the same solve on a new session — the warm engine is reset
  // to a fresh engine's state — and every solve but the remap must run on
  // the same engine object.
  const char* config = R"({"type": "cg", "maxIterations": 200,
      "tolerance": 1e-6,
      "robustness": {"maxRestarts": 2, "checkpointEvery": 8}})";
  const json::Value softFaults = json::parse(R"({"seed": 3, "faults": [
      {"type": "stall", "tile": 1, "cycles": 5000, "superstep": 7},
      {"type": "bitflip", "tensor": "cg_resid", "bit": 20, "count": 1,
       "superstep": 12}]})");
  const json::Value deadTile = json::parse(R"({"seed": 5, "faults": [
      {"type": "tile-dead", "tile": 2, "superstep": 30}]})");
  const matrix::GeneratedMatrix g = matrix::poisson2d5(10, 10);
  matrix::GeneratedMatrix scaled = g;
  for (double& v : scaled.matrix.values()) v *= 1.5;
  const std::size_t n = g.matrix.rows();
  auto rhsFor = [n](std::uint64_t seed) {
    std::vector<double> rhs(n);
    for (std::size_t i = 0; i < n; ++i) {
      rhs[i] = 1.0 + static_cast<double>((i * 7 + seed * 13) % 11) / 8.0;
    }
    return rhs;
  };
  const SessionOptions options{.tiles = 8};

  SolveSession session(options);
  session.enableTileProfile();
  session.load(g).configure(config);
  // The warm session's context is thread-local: release it while the fresh
  // comparison session is alive.
  auto expectLikeFresh = [&](const SolveSession::Result& warm,
                             const matrix::GeneratedMatrix& m,
                             const std::vector<double>& rhs,
                             const json::Value* plan, const char* what) {
    SCOPED_TRACE(what);
    const SolveRecord got = recordOf(session, warm);
    session.unbind();
    SolveRecord want;
    {
      SolveSession fresh(options);
      fresh.enableTileProfile();
      fresh.load(m).configure(config);
      if (plan != nullptr) fresh.withFaultPlan(*plan);
      want = recordOf(fresh, fresh.solve(rhs));
    }
    session.bind();
    EXPECT_EQ(got.status, want.status);
    EXPECT_EQ(got.xBits, want.xBits);
    EXPECT_EQ(got.simCycles, want.simCycles);
    EXPECT_EQ(got.iterations, want.iterations);
    EXPECT_EQ(got.history, want.history);
    EXPECT_EQ(got.profile, want.profile);
    EXPECT_EQ(got.trace, want.trace);
    EXPECT_EQ(got.tileProfile, want.tileProfile);
  };

  expectLikeFresh(session.solve(rhsFor(1)), g, rhsFor(1), nullptr, "first");
  const graph::Engine* engine = &session.engine();

  session.updateMatrixValues(scaled.matrix);
  expectLikeFresh(session.solve(rhsFor(2)), scaled, rhsFor(2), nullptr,
                  "new values");
  EXPECT_EQ(&session.engine(), engine);

  session.setCancelCheck([](double cycles) -> const char* {
    return cycles > 20000 ? "cancelled" : nullptr;
  });
  EXPECT_THROW(session.solve(rhsFor(3)), CancelledError);
  session.setCancelCheck(nullptr);
  expectLikeFresh(session.solve(rhsFor(4)), scaled, rhsFor(4), nullptr,
                  "after a cancelled solve");
  EXPECT_EQ(&session.engine(), engine);

  session.withFaultPlan(softFaults);
  for (const char* what : {"fault plan, first", "fault plan, second"}) {
    expectLikeFresh(session.solve(rhsFor(5)), scaled, rhsFor(5),
                    &softFaults, what);
    EXPECT_EQ(&session.engine(), engine);
  }

  // A remap rebuilds the pipeline, and with it the engine: the one that
  // finished the solve runs the rebuilt graph.
  session.withFaultPlan(deadTile);
  expectLikeFresh(session.solve(rhsFor(6)), scaled, rhsFor(6), &deadTile,
                  "hard-fault remap");
  EXPECT_EQ(session.blacklistedTiles(), std::vector<std::size_t>{2});
  EXPECT_EQ(&session.engine().graph(), &dsl::Context::current().graph());
}

TEST(SupportEnv, FlagTreatsUnsetEmptyAndZeroAsOff) {
  // Every boolean GRAPHENE_* switch reads through support::envFlag.
  const char* name = "GRAPHENE_ENV_FLAG_TEST_PROBE";
  ::unsetenv(name);
  EXPECT_FALSE(support::envFlag(name));
  for (const char* off : {"", "0"}) {
    ::setenv(name, off, 1);
    EXPECT_FALSE(support::envFlag(name)) << "'" << off << "'";
  }
  ::setenv(name, "1", 1);
  EXPECT_TRUE(support::envFlag(name));
  ::unsetenv(name);
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

TEST(ConfigValidation, CountsRejectNegativeAndOutOfRangeValues) {
  // A negative count would wrap to about 2^64 (a Jacobi preconditioner
  // with -1 iterations would emit 2^64 - 1 sweeps), 2^32 + 3 would reach an
  // int as 3, and a count past 2^31 - 1 turns negative in the Int32
  // counters the device compares it with. Each config has `@` where the
  // count goes.
  const std::pair<const char*, const char*> counts[] = {
      {"jacobi.iterations", R"({"type": "jacobi", "iterations": @})"},
      {"richardson.iterations", R"({"type": "richardson", "iterations": @})"},
      {"gauss-seidel.sweeps", R"({"type": "gauss-seidel", "sweeps": @})"},
      {"gauss-seidel.maxIterations",
       R"({"type": "gauss-seidel", "tolerance": 1e-4, "maxIterations": @})"},
      {"cg.maxIterations", R"({"type": "cg", "maxIterations": @})"},
      {"bicgstab.maxIterations", R"({"type": "bicgstab", "maxIterations": @})"},
      {"cg.residualReplaceEvery",
       R"({"type": "cg", "pipelined": true, "residualReplaceEvery": @})"},
      {"mpir.maxRefinements",
       R"({"type": "mpir", "maxRefinements": @, "inner": {"type": "cg"}})"},
      {"robustness.maxRestarts",
       R"({"type": "cg", "robustness": {"maxRestarts": @}})"},
      {"robustness.checkpointEvery",
       R"({"type": "bicgstab", "robustness": {"checkpointEvery": @}})"},
      {"robustness.maxRollbacks",
       R"({"type": "mpir", "inner": {"type": "cg"},
           "robustness": {"maxRollbacks": @}})"},
  };
  auto withCount = [](std::string text, const char* value) {
    return text.replace(text.find('@'), 1, value);
  };
  for (const auto& [key, config] : counts) {
    for (const char* bad : {"-1", "2147483648", "4294967299", "2.5"}) {
      const std::string text = withCount(config, bad);
      try {
        makeSolverFromString(text);
        ADD_FAILURE() << text << " was accepted";
      } catch (const ParseError& e) {
        EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
            << text << ": " << e.what();
      }
    }
    for (const char* good : {"0", "2147483647"}) {
      EXPECT_NO_THROW(makeSolverFromString(withCount(config, good)))
          << withCount(config, good);
    }
  }
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

namespace {

/// The end-to-end benchmark's solver configs: CG+Jacobi on a 2-D Poisson
/// mesh, and MPIR double-word refinement over ILU(0) BiCGStab on a 4×8 pod.
struct BenchmarkCase {
  const char* config;
  matrix::GeneratedMatrix m;
  std::optional<ipu::Topology> topology;
};

std::vector<BenchmarkCase> benchmarkCases() {
  std::vector<BenchmarkCase> cases;
  cases.push_back({R"({"type": "cg", "tolerance": 1e-6, "maxIterations": 2000,
                       "preconditioner": {"type": "jacobi"}})",
                   matrix::poisson2d5(40, 40), std::nullopt});
  cases.push_back({R"({"type": "mpir", "extendedType": "doubleword",
                       "maxRefinements": 30, "tolerance": 1e-10,
                       "inner": {"type": "bicgstab", "maxIterations": 8,
                                 "tolerance": 0,
                                 "preconditioner": {"type": "ilu"}}})",
                   matrix::poisson3d7(8, 8, 8), ipu::Topology::pod(4, 8)});
  return cases;
}

/// Solves `c` once on a fresh two-thread session.
SolveSession::Result solveBenchmarkCase(const BenchmarkCase& c) {
  SessionOptions options;
  options.hostThreads = 2;
  options.topology = c.topology;
  SolveSession session(options);
  session.load(c.m).configure(c.config);
  std::vector<double> rhs(c.m.matrix.rows());
  for (std::size_t i = 0; i < rhs.size(); ++i) {
    rhs[i] = std::sin(0.37 * static_cast<double>(i));
  }
  return session.solve(rhs);
}

}  // namespace

TEST(SolveSession, BenchmarkConfigsRunWholeOnTheVm) {
  // Every codelet of the end-to-end benchmark's solver configs compiles to
  // the register VM, so a solve never enters the generic walk.
  const bool env = dsl::codeletFastPathsEnabled();
  dsl::setCodeletFastPaths(true);  // also under GRAPHENE_NO_FASTPATH=1
  for (const BenchmarkCase& c : benchmarkCases()) {
    const std::uint64_t before = dsl::codeletWalkEntries();
    const SolveSession::Result result = solveBenchmarkCase(c);
    EXPECT_EQ(dsl::codeletWalkEntries() - before, 0u) << c.config;
    EXPECT_EQ(result.solve.status, SolveStatus::Converged) << c.config;
  }
  dsl::setCodeletFastPaths(env);
}

TEST(SolveSession, BenchmarkConfigsKeepTheirKernelTiers) {
  // Every loop-kernel tier and native row computes the same bits, so no
  // bit-identity test sees a kernel that silently stops matching the named
  // dot partial or its blocked form, or a row that loses its plan, yet
  // losing one costs host latency (DESIGN.md section 8 lists the pairs).
  // GRAPHENE_DUMP_COMPILE=1 prints each codelet's kernels as it compiles;
  // this pins their multiset, and the native row plans, over both configs.
  // The CG case gets an explicit single chip: under GRAPHENE_TEST_POD its
  // reduction tree traces other dot partials.
  std::vector<BenchmarkCase> cases = benchmarkCases();
  cases[0].topology = ipu::Topology::singleIpu(32);
  const char* ambientRaw = std::getenv("GRAPHENE_DUMP_COMPILE");
  const std::string ambient = ambientRaw != nullptr ? ambientRaw : "";
  ::setenv("GRAPHENE_DUMP_COMPILE", "1", 1);
  testing::internal::CaptureStderr();
  for (const BenchmarkCase& c : cases) solveBenchmarkCase(c);
  const std::string dump = testing::internal::GetCapturedStderr();
  if (ambientRaw == nullptr) {
    ::unsetenv("GRAPHENE_DUMP_COMPILE");
  } else {
    ::setenv("GRAPHENE_DUMP_COMPILE", ambient.c_str(), 1);
  }

  // Lines read `[compile] <name>: vm ops=N kernels=[k,k,...] csr=N tri=N`.
  std::map<std::string, int> kernels;
  std::map<int, int> csrPlans;  // codelets per native CSR row plan count
  std::map<int, int> triPlans;  // codelets per native triangular row plan count
  std::istringstream lines(dump);
  for (std::string line; std::getline(lines, line);) {
    const std::size_t open = line.find(" kernels=[");
    const std::size_t close = line.find("] csr=");
    const std::size_t tri = line.find(" tri=");
    if (line.rfind("[compile] ", 0) != 0 || open == std::string::npos ||
        close == std::string::npos || tri == std::string::npos) {
      continue;
    }
    std::istringstream list(line.substr(open + 10, close - open - 10));
    for (std::string k; std::getline(list, k, ',');) ++kernels[k];
    const int csr = std::stoi(line.substr(close + 6));
    if (csr > 0) ++csrPlans[csr];
    const int triangular = std::stoi(line.substr(tri + 5));
    if (triangular > 0) ++triPlans[triangular];
  }
  EXPECT_EQ(kernels, (std::map<std::string, int>{{"dot", 35},
                                                 {"none+blocked", 57}}));
  EXPECT_EQ(csrPlans, (std::map<int, int>{{1, 8}}));
  // Both MPIR-ILU `ilu_solve` codelets (BiCGStab applies ILU(0) twice per
  // iteration), each with its forward and its backward row.
  EXPECT_EQ(triPlans, (std::map<int, int>{{2, 2}}));
}
