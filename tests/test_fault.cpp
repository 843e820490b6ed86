// Deterministic fault injection and solver self-healing.
//
// Covers: seeded fault plans are byte-for-byte reproducible; an engine with
// no (or an empty) plan is bit-identical to one without the framework;
// bit-level rules skip Int32 index arrays; SRAM bit flips trigger the
// restart path of CG, pipelined CG and BiCGStab, and a spent restart budget
// ends typed; a stuck-at-zero rho surfaces as SolveStatus::Breakdown; a
// corrupted MPIR residual exchange rolls back to the last good iterate and
// re-converges — with the whole fault/repair timeline in the profile's
// fault log.
#include <gtest/gtest.h>

#include <cmath>

#include "graph/engine.hpp"
#include "ipu/fault.hpp"
#include "matrix/generators.hpp"
#include "partition/partitioner.hpp"
#include "solver/session.hpp"
#include "solver/solvers.hpp"
#include "support/rng.hpp"

using namespace graphene;
using namespace graphene::solver;
using dsl::Context;
using dsl::Expression;
using dsl::Tensor;

namespace {

std::vector<double> randomVector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

struct FaultedSolve {
  std::vector<double> x;                       // read-back solution
  double trueRelResidual = -1.0;               // host-side double check
  std::vector<IterationRecord> history;
  SolveResult result;
  ipu::Profile profile;
  std::size_t haloTransfersPerExchange = 0;    // layout transfer count
};

bool logContains(const ipu::Profile& profile, const std::string& kind) {
  for (const ipu::FaultEvent& ev : profile.faultEvents) {
    if (ev.kind == kind) return true;
  }
  return false;
}

/// Emits and executes `solverJson` on A x = b for the given generated
/// matrix, optionally under a fault plan. The plan is reset() first so the
/// same object can drive repeated, identical runs.
FaultedSolve runFaultedSolve(const matrix::GeneratedMatrix& g,
                             std::size_t tiles, const std::string& solverJson,
                             ipu::FaultPlan* plan) {
  Context ctx(ipu::IpuTarget::testTarget(tiles));
  auto layout =
      partition::Partitioner(ipu::Topology::singleIpu(tiles)).layout(g);
  FaultedSolve out;
  out.haloTransfersPerExchange = layout.transfers.size();
  DistMatrix A(g.matrix, std::move(layout));
  Tensor x = A.makeVector(DType::Float32, "x");
  Tensor b = A.makeVector(DType::Float32, "b");
  auto solver = makeSolverFromString(solverJson);
  solver->apply(A, x, b);

  graph::Engine engine(ctx.graph());
  if (plan != nullptr) {
    plan->reset();
    engine.setFaultPlan(plan);
  }
  A.upload(engine);
  auto bHost = randomVector(g.matrix.rows(), 42);
  for (double& v : bHost) v = static_cast<double>(static_cast<float>(v));
  A.writeVector(engine, b, bHost);
  engine.run(ctx.program());

  out.x = A.readVector(engine, x);
  std::vector<double> Ax(out.x.size());
  g.matrix.spmv(out.x, Ax);
  double num = 0, den = 0;
  for (std::size_t i = 0; i < Ax.size(); ++i) {
    num += (bHost[i] - Ax[i]) * (bHost[i] - Ax[i]);
    den += bHost[i] * bHost[i];
  }
  out.trueRelResidual = std::sqrt(num / den);
  out.history = solver->history();
  out.result = solver->result();
  out.profile = engine.profile();
  return out;
}

const char* kCgJson = R"({
  "type": "cg", "maxIterations": 500, "tolerance": 1e-6
})";

}  // namespace

TEST(FaultPlanJson, ParsesAllRuleKinds) {
  ipu::FaultPlan plan = ipu::FaultPlan::fromJsonText(R"({
    "seed": 7,
    "faults": [
      {"type": "bitflip", "tensor": "cg_resid", "bit": 30, "count": 1},
      {"type": "stuck-zero", "tensor": "bicg_rho"},
      {"type": "exchange-drop", "tensor": "halo", "count": 2},
      {"type": "exchange-corrupt", "tensor": "halo", "bit": 12},
      {"type": "stall", "tile": 3, "cycles": 10000, "superstep": 5}
    ]
  })");
  EXPECT_TRUE(plan.enabled());
  EXPECT_EQ(plan.seed(), 7u);
  EXPECT_EQ(plan.injectedCount(), 0u);
}

TEST(FaultPlanJson, RejectsUnknownType) {
  EXPECT_THROW(ipu::FaultPlan::fromJsonText(
                   R"({"faults": [{"type": "gamma-ray"}]})"),
               ParseError);
}

TEST(FaultPlanJson, RejectsBadProbability) {
  EXPECT_THROW(
      ipu::FaultPlan::fromJsonText(
          R"({"faults": [{"type": "bitflip", "probability": 1.5}]})"),
      Error);
}

TEST(FaultPlanJson, RejectsZeroCycleStall) {
  EXPECT_THROW(ipu::FaultPlan::fromJsonText(
                   R"({"faults": [{"type": "stall", "tile": 0}]})"),
               Error);
}

TEST(FaultPlanJson, ParsesHardFaultKinds) {
  ipu::FaultPlan plan = ipu::FaultPlan::fromJsonText(R"({
    "faults": [
      {"type": "tile-dead", "tile": 2, "superstep": 30},
      {"type": "link-degraded", "tile": 5, "factor": 3.5, "superstep": 10},
      {"type": "sram-region-dead", "tensor": "cg_Ap", "elements": 4,
       "superstep": 8}
    ]
  })");
  EXPECT_TRUE(plan.enabled());
  EXPECT_TRUE(plan.hasHardFaults());
  EXPECT_TRUE(plan.tileDead(2, 30));
  EXPECT_FALSE(plan.tileDead(2, 29));  // permanent *from* the trigger on
  EXPECT_TRUE(plan.tileDead(2, 1000));
  EXPECT_DOUBLE_EQ(plan.linkFactor(10), 3.5);
  EXPECT_DOUBLE_EQ(plan.linkFactor(9), 1.0);
}

// Strict validation: a hard-fault rule with a key that belongs to a
// different kind is rejected, and the error names both the offending key
// and the keys that *are* valid for that kind.
TEST(FaultPlanJson, RejectsForeignKeyOnHardFaultRule) {
  try {
    ipu::FaultPlan::fromJsonText(
        R"({"faults": [{"type": "tile-dead", "tile": 1, "factor": 2.0}]})");
    FAIL() << "expected a validation error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("factor"), std::string::npos) << msg;
    EXPECT_NE(msg.find("tile-dead"), std::string::npos) << msg;
    EXPECT_NE(msg.find("superstep"), std::string::npos) << msg;  // valid set
  }
}

TEST(FaultPlanJson, RejectsTensorTargetOnLinkDegraded) {
  EXPECT_THROW(
      ipu::FaultPlan::fromJsonText(
          R"({"faults": [{"type": "link-degraded", "tile": 0, "factor": 2,
                          "tensor": "halo"}]})"),
      Error);
}

TEST(FaultPlanJson, ParsesPodFaultKinds) {
  ipu::FaultPlan plan = ipu::FaultPlan::fromJsonText(R"({
    "faults": [
      {"type": "ipu-dead", "ipu": 2, "superstep": 40},
      {"type": "ipu-link-dead", "from": 0, "to": 1, "superstep": 12},
      {"type": "ipu-link-degraded", "from": 1, "to": 2, "factor": 6.0,
       "superstep": 12}
    ]
  })");
  EXPECT_TRUE(plan.enabled());
  EXPECT_TRUE(plan.hasHardFaults());
  // ipu-dead triggers on the compute clock and is permanent from there on.
  EXPECT_TRUE(plan.ipuDead(2, 40));
  EXPECT_FALSE(plan.ipuDead(2, 39));
  EXPECT_TRUE(plan.ipuDead(2, 1000));
  EXPECT_FALSE(plan.ipuDead(1, 40));  // only the named chip dies
  EXPECT_DOUBLE_EQ(plan.deadIpuCycles(2), 1e9);  // watchdog-scale default

  // Link kinds trigger on the exchange clock; the dead chip rides along on
  // the compute clock (re-routing must not relay through it).
  ipu::LinkFaults before = plan.linkFaults(/*exchangeIndex=*/11,
                                           /*computeIndex=*/39);
  EXPECT_TRUE(before.empty());
  ipu::LinkFaults after = plan.linkFaults(/*exchangeIndex=*/12,
                                          /*computeIndex=*/40);
  EXPECT_FALSE(after.empty());
  EXPECT_TRUE(after.isDead(0, 1));
  EXPECT_FALSE(after.isDead(1, 0));  // ordered pair: reverse link survives
  EXPECT_DOUBLE_EQ(after.factor(1, 2), 6.0);
  EXPECT_DOUBLE_EQ(after.factor(2, 1), 1.0);
  EXPECT_TRUE(after.ipuDead(2));
  EXPECT_FALSE(after.ipuDead(0));
}

// The unknown-type rejection names the full valid set — including the
// pod-scale kinds — from the single shared constant.
TEST(FaultPlanJson, UnknownTypeNamesPodKindsInValidSet) {
  try {
    ipu::FaultPlan::fromJsonText(R"({"faults": [{"type": "gamma-ray"}]})");
    FAIL() << "expected a parse error";
  } catch (const ParseError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("gamma-ray"), std::string::npos) << msg;
    EXPECT_NE(msg.find("ipu-dead"), std::string::npos) << msg;
    EXPECT_NE(msg.find("ipu-link-dead"), std::string::npos) << msg;
    EXPECT_NE(msg.find("ipu-link-degraded"), std::string::npos) << msg;
  }
}

// Strict per-kind key validation for the pod kinds: a foreign key is
// rejected with a message naming the offending key and the valid set.
TEST(FaultPlanJson, RejectsForeignKeyOnPodRule) {
  try {
    ipu::FaultPlan::fromJsonText(
        R"({"faults": [{"type": "ipu-dead", "ipu": 1, "tile": 3}]})");
    FAIL() << "expected a validation error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("tile"), std::string::npos) << msg;
    EXPECT_NE(msg.find("ipu-dead"), std::string::npos) << msg;
    EXPECT_NE(msg.find("superstep"), std::string::npos) << msg;  // valid set
  }
  try {
    ipu::FaultPlan::fromJsonText(
        R"({"faults": [{"type": "ipu-link-dead", "from": 0, "to": 1,
                        "factor": 2.0}]})");
    FAIL() << "expected a validation error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    // Severing has no cost knob: "factor" belongs to ipu-link-degraded.
    EXPECT_NE(msg.find("factor"), std::string::npos) << msg;
    EXPECT_NE(msg.find("ipu-link-dead"), std::string::npos) << msg;
    EXPECT_NE(msg.find("from"), std::string::npos) << msg;  // valid set
  }
}

TEST(FaultPlanJson, RejectsMalformedPodRules) {
  // ipu-dead must name its chip.
  try {
    ipu::FaultPlan::fromJsonText(
        R"({"faults": [{"type": "ipu-dead", "superstep": 4}]})");
    FAIL() << "expected a validation error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'ipu'"), std::string::npos)
        << e.what();
  }
  // Link kinds need the full ordered pair...
  EXPECT_THROW(ipu::FaultPlan::fromJsonText(
                   R"({"faults": [{"type": "ipu-link-dead", "from": 0}]})"),
               Error);
  // ... with two distinct endpoints ...
  try {
    ipu::FaultPlan::fromJsonText(
        R"({"faults": [{"type": "ipu-link-degraded", "from": 1, "to": 1}]})");
    FAIL() << "expected a validation error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("no link to itself"),
              std::string::npos)
        << e.what();
  }
  // ... and a degradation factor that actually degrades.
  EXPECT_THROW(
      ipu::FaultPlan::fromJsonText(
          R"({"faults": [{"type": "ipu-link-degraded", "from": 0, "to": 1,
                          "factor": 0.5}]})"),
      Error);
}

// Tile, chip, skip and bit values are counts: a negative, fractional or
// oversized one is rejected by name instead of wrapping, so that a
// "tile-dead" rule on tile -1 cannot be accepted and then kill nothing.
TEST(FaultPlanJson, CountsRejectNegativeFractionalAndOversizedValues) {
  struct Case {
    const char* rule;  // the rule's other keys
    const char* key;
  };
  const Case cases[] = {
      {R"("type": "tile-dead", "superstep": 5)", "tile"},
      {R"("type": "bitflip")", "skip"},
      {R"("type": "bitflip")", "bit"},
      {R"("type": "ipu-dead")", "ipu"},
      {R"("type": "ipu-link-dead", "to": 1)", "from"},
      {R"("type": "ipu-link-dead", "from": 1)", "to"},
  };
  for (const Case& c : cases) {
    for (const char* bad : {"-1", "2.5", "4294967299"}) {  // 2^32 + 3
      const std::string text = std::string(R"({"faults": [{)") + c.rule +
                               R"(, ")" + c.key + R"(": )" + bad + "}]}";
      SCOPED_TRACE(text);
      try {
        ipu::FaultPlan::fromJsonText(text);
        ADD_FAILURE() << "accepted";
      } catch (const ParseError& e) {
        EXPECT_NE(std::string(e.what()).find(std::string(".") + c.key +
                                             " must be an integer"),
                  std::string::npos)
            << e.what();
      }
    }
  }
  // The bounds themselves still parse.
  ipu::FaultPlan plan = ipu::FaultPlan::fromJsonText(R"({
    "faults": [
      {"type": "tile-dead", "tile": 2147483647, "superstep": 5},
      {"type": "bitflip", "tensor": "cg_resid", "bit": 63, "skip": 0},
      {"type": "exchange-corrupt", "tensor": "halo", "bit": 0},
      {"type": "ipu-dead", "ipu": 0},
      {"type": "ipu-link-dead", "from": 2147483647, "to": 0}
    ]
  })");
  EXPECT_TRUE(plan.tileDead(2147483647, 5));
  EXPECT_FALSE(plan.tileDead(0, 5));
  EXPECT_TRUE(plan.ipuDead(0, 0));
}

// An engine without a plan and one with an *empty* plan attached must be
// bit-identical: same cycles, same supersteps, same history, same solution.
TEST(FaultInjection, DetachedAndEmptyPlanAreBitIdentical) {
  auto g = matrix::poisson2d5(8, 8);
  FaultedSolve clean = runFaultedSolve(g, 4, kCgJson, nullptr);
  ipu::FaultPlan empty;
  FaultedSolve withPlan = runFaultedSolve(g, 4, kCgJson, &empty);

  EXPECT_EQ(clean.profile.computeCycles, withPlan.profile.computeCycles);
  EXPECT_EQ(clean.profile.exchangeCycles, withPlan.profile.exchangeCycles);
  EXPECT_EQ(clean.profile.syncCycles, withPlan.profile.syncCycles);
  EXPECT_EQ(clean.profile.computeSupersteps,
            withPlan.profile.computeSupersteps);
  EXPECT_EQ(clean.profile.exchangeSupersteps,
            withPlan.profile.exchangeSupersteps);
  EXPECT_TRUE(withPlan.profile.faultEvents.empty());
  ASSERT_EQ(clean.history.size(), withPlan.history.size());
  for (std::size_t i = 0; i < clean.history.size(); ++i) {
    EXPECT_EQ(clean.history[i].residual, withPlan.history[i].residual);
  }
  EXPECT_EQ(clean.x, withPlan.x);
}

// Two runs under the same seeded plan inject byte-identical faults: the
// fault logs compare equal event by event and the solves are bit-identical.
TEST(FaultInjection, SeededPlansAreReproducible) {
  auto g = matrix::poisson2d5(8, 8);
  ipu::FaultPlan plan = ipu::FaultPlan::fromJsonText(R"({
    "seed": 123,
    "faults": [
      {"type": "bitflip", "tensor": "cg_", "probability": 0.02, "count": 3}
    ]
  })");
  FaultedSolve a = runFaultedSolve(g, 4, kCgJson, &plan);
  FaultedSolve b = runFaultedSolve(g, 4, kCgJson, &plan);

  ASSERT_FALSE(a.profile.faultEvents.empty());
  ASSERT_EQ(a.profile.faultEvents.size(), b.profile.faultEvents.size());
  for (std::size_t i = 0; i < a.profile.faultEvents.size(); ++i) {
    EXPECT_TRUE(a.profile.faultEvents[i] == b.profile.faultEvents[i])
        << "fault logs diverge at event " << i;
  }
  EXPECT_EQ(a.x, b.x);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].residual, b.history[i].residual);
  }
}

// A different seed draws different faults (with overwhelming probability for
// random-element flips on a 64-element vector).
TEST(FaultInjection, DifferentSeedDrawsDifferentFaults) {
  auto g = matrix::poisson2d5(8, 8);
  const char* ruleJson = R"({
    "seed": %SEED%,
    "faults": [
      {"type": "bitflip", "tensor": "cg_resid", "skip": 40, "count": 3}
    ]
  })";
  auto withSeed = [&](const std::string& seed) {
    std::string text(ruleJson);
    text.replace(text.find("%SEED%"), 6, seed);
    return ipu::FaultPlan::fromJsonText(text);
  };
  ipu::FaultPlan p1 = withSeed("1");
  ipu::FaultPlan p2 = withSeed("2");
  FaultedSolve a = runFaultedSolve(g, 4, kCgJson, &p1);
  FaultedSolve b = runFaultedSolve(g, 4, kCgJson, &p2);
  ASSERT_FALSE(a.profile.faultEvents.empty());
  ASSERT_FALSE(b.profile.faultEvents.empty());
  bool anyDifferent = a.profile.faultEvents.size() !=
                      b.profile.faultEvents.size();
  for (std::size_t i = 0;
       !anyDifferent &&
       i < a.profile.faultEvents.size(); ++i) {
    anyDifferent = !(a.profile.faultEvents[i] == b.profile.faultEvents[i]);
  }
  EXPECT_TRUE(anyDifferent);
}

// A stalled tile delays the BSP barrier: exactly the stall cycles join the
// critical path, and nothing else changes.
TEST(FaultInjection, StallChargesExtraCycles) {
  auto g = matrix::poisson2d5(8, 8);
  FaultedSolve clean = runFaultedSolve(g, 4, kCgJson, nullptr);
  ipu::FaultPlan plan = ipu::FaultPlan::fromJsonText(R"({
    "faults": [{"type": "stall", "tile": 1, "cycles": 12345, "superstep": 3}]
  })");
  FaultedSolve stalled = runFaultedSolve(g, 4, kCgJson, &plan);

  EXPECT_TRUE(logContains(stalled.profile, "stall"));
  EXPECT_DOUBLE_EQ(stalled.profile.totalComputeCycles(),
                   clean.profile.totalComputeCycles() + 12345.0);
  EXPECT_EQ(clean.x, stalled.x);  // a stall delays, it does not corrupt
}

// Dropped transfers are still priced — the fabric spent the cycles even
// though the payload never landed.
TEST(FaultInjection, DroppedTransferIsStillPriced) {
  auto g = matrix::poisson2d5(8, 8);

  auto runSpmv = [&](ipu::FaultPlan* plan) {
    Context ctx(ipu::IpuTarget::testTarget(4));
    auto layout =
        partition::Partitioner(ipu::Topology::singleIpu(4)).layout(g);
    DistMatrix A(g.matrix, std::move(layout));
    Tensor v = A.makeVector(DType::Float32, "v");
    Tensor y = A.makeVector(DType::Float32, "y");
    A.spmv(y, v);
    graph::Engine engine(ctx.graph());
    if (plan != nullptr) {
      plan->reset();
      engine.setFaultPlan(plan);
    }
    A.upload(engine);
    A.writeVector(engine, v, randomVector(g.matrix.rows(), 7));
    engine.run(ctx.program());
    return std::make_pair(engine.profile(), A.readVector(engine, y));
  };

  auto [cleanProfile, cleanY] = runSpmv(nullptr);
  ipu::FaultPlan plan = ipu::FaultPlan::fromJsonText(R"({
    "faults": [{"type": "exchange-drop", "tensor": "halo", "count": 1}]
  })");
  auto [dropProfile, dropY] = runSpmv(&plan);

  EXPECT_TRUE(logContains(dropProfile, "exchange-drop"));
  EXPECT_EQ(cleanProfile.exchangeCycles, dropProfile.exchangeCycles);
  EXPECT_EQ(cleanProfile.exchangedBytes, dropProfile.exchangedBytes);
  EXPECT_EQ(cleanProfile.exchangeInstructions,
            dropProfile.exchangeInstructions);
  EXPECT_NE(cleanY, dropY);  // the halo payload never arrived
}

// An SRAM bit flip in the residual vector mid-solve blows the recurrence
// up. CG, pipelined CG and BiCGStab share one recovery guard: with the
// default budget it restarts from the checkpoint and the solve still
// converges, with both the fault and the recovery in the log; with no
// restart budget the solve ends in a typed verdict and a clean history.
struct KrylovCase {
  const char* name;
  const char* config;          // solver JSON, closing brace omitted
  const char* residual;        // the flipped tensor
  const char* source;          // fault-log source of the restart
  const char* restartCounter;  // metrics counter of the restart
};

class KrylovRecovery : public ::testing::TestWithParam<KrylovCase> {
 protected:
  FaultedSolve solve(const std::string& robustness) {
    const KrylovCase& c = GetParam();
    ipu::FaultPlan plan = ipu::FaultPlan::fromJsonText(
        std::string(R"({"seed": 5, "faults": [{"type": "bitflip",
            "tensor": ")") +
        c.residual + R"(", "bit": 30, "skip": 100, "count": 1}]})");
    return runFaultedSolve(matrix::poisson2d5(8, 8), 4,
                           std::string(c.config) + robustness + "}", &plan);
  }
};

TEST_P(KrylovRecovery, RestartsAfterResidualBitFlip) {
  const KrylovCase& c = GetParam();
  FaultedSolve faulted = solve("");

  EXPECT_TRUE(logContains(faulted.profile, "bitflip"));
  std::vector<ipu::FaultEvent> restarts;
  for (const ipu::FaultEvent& ev : faulted.profile.faultEvents) {
    if (ev.kind == "recovery:restart") restarts.push_back(ev);
  }
  ASSERT_EQ(restarts.size(), 1u);
  EXPECT_EQ(restarts[0].target, c.source);
  EXPECT_EQ(restarts[0].detail, "nan residual; re-seeding from checkpoint");
  EXPECT_EQ(faulted.result.restarts, 1u);
  EXPECT_EQ(faulted.profile.metrics.counter(c.restartCounter), 1.0);
  EXPECT_EQ(faulted.result.status, SolveStatus::Converged);
  EXPECT_LT(faulted.trueRelResidual, 1e-4);
  for (const IterationRecord& rec : faulted.history) {
    EXPECT_TRUE(std::isfinite(rec.residual));
  }
}

TEST_P(KrylovRecovery, SpentBudgetEndsTyped) {
  FaultedSolve faulted = solve(R"(, "robustness": {"maxRestarts": 0})");

  EXPECT_TRUE(logContains(faulted.profile, "bitflip"));
  EXPECT_FALSE(logContains(faulted.profile, "recovery:restart"));
  EXPECT_TRUE(faulted.result.status == SolveStatus::Diverged ||
              faulted.result.status == SolveStatus::NanDetected)
      << toString(faulted.result.status);
  EXPECT_GT(faulted.result.iterations, 0u);
  for (const IterationRecord& rec : faulted.history) {
    EXPECT_TRUE(std::isfinite(rec.residual)) << "NaN leaked into history";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Solvers, KrylovRecovery,
    ::testing::Values(
        KrylovCase{"cg",
                   R"({"type": "cg", "maxIterations": 500,
                       "tolerance": 1e-6)",
                   "cg_resid", "cg", "cg.restarts"},
        KrylovCase{"pipelined_cg",
                   R"({"type": "cg", "pipelined": true,
                       "maxIterations": 500, "tolerance": 1e-6)",
                   "pcg_r", "pipelined-cg", "cg.restarts"},
        KrylovCase{"bicgstab",
                   R"({"type": "bicgstab", "maxIterations": 500,
                       "tolerance": 1e-6)",
                   "bicg_resid", "bicgstab", "bicgstab.restarts"}),
    [](const ::testing::TestParamInfo<KrylovCase>& info) {
      return std::string(info.param.name);
    });

// Bit-level rules never select an Int32 index array: the simulator has no
// model of the memory exception a wild column index would raise, so a flip
// there used to crash the host. Such a rule matches nothing and is inert.
TEST(FaultInjection, IndexArraysAreNotBitTargets) {
  const auto g = matrix::poisson2d5(8, 8);
  for (const char* rule : {R"("type": "bitflip", "bit": 20)",
                           R"("type": "stuck-zero")"}) {
    SolveSession session({.tiles = 4});
    session.load(g).configure(kCgJson).withFaultPlan(json::parse(
        std::string(R"({"seed": 7, "faults": [{)") + rule +
        R"(, "tensor": "A_col", "superstep": 30}]})"));
    auto result = session.solve(std::vector<double>(g.matrix.rows(), 1.0));
    EXPECT_TRUE(session.profile().faultEvents.empty()) << rule;
    EXPECT_EQ(result.solve.status, SolveStatus::Converged) << rule;
  }
}

// A stuck-at-zero cell under BiCGStab's rho scalar collapses the recurrence;
// with recovery off this must surface as SolveStatus::Breakdown — and the
// history must stay clean, not fill with NaN garbage.
TEST(SolverRecovery, BiCgStabRhoBreakdownIsTyped) {
  auto g = matrix::poisson2d5(8, 8);
  ipu::FaultPlan plan = ipu::FaultPlan::fromJsonText(R"({
    "faults": [{"type": "stuck-zero", "tensor": "bicg_rho", "skip": 60}]
  })");
  const char* json = R"({
    "type": "bicgstab", "maxIterations": 300, "tolerance": 1e-6,
    "robustness": {"maxRestarts": 0}
  })";
  FaultedSolve faulted = runFaultedSolve(g, 4, json, &plan);

  EXPECT_EQ(faulted.result.status, SolveStatus::Breakdown);
  EXPECT_TRUE(logContains(faulted.profile, "stuck-zero"));
  for (const IterationRecord& rec : faulted.history) {
    EXPECT_TRUE(std::isfinite(rec.residual)) << "NaN leaked into history";
  }
}

// With the restart budget available, a corrupted residual is recovered
// from: BiCGStab re-anchors its shadow residual and converges. Unlike CG,
// BiCGStab fully rewrites its residual every iteration (rA = sA - omega*tA
// reads sA/tA, not rA), so a single flip can land in a dead window and be
// silently erased -- the rule therefore flips one bit per superstep across
// a whole iteration (~15 supersteps), guaranteeing at least one corruption
// is live when the host guard samples ||r||^2.
TEST(SolverRecovery, BiCgStabRestartsAfterTransientBreakdown) {
  auto g = matrix::poisson2d5(8, 8);
  ipu::FaultPlan plan = ipu::FaultPlan::fromJsonText(R"({
    "faults": [
      {"type": "bitflip", "tensor": "bicg_resid", "bit": 30,
       "skip": 120, "count": 15}
    ]
  })");
  const char* json = R"({
    "type": "bicgstab", "maxIterations": 300, "tolerance": 1e-6
  })";
  FaultedSolve faulted = runFaultedSolve(g, 4, json, &plan);

  EXPECT_TRUE(logContains(faulted.profile, "bitflip"));
  EXPECT_TRUE(logContains(faulted.profile, "recovery:restart"));
  EXPECT_EQ(faulted.result.status, SolveStatus::Converged);
  EXPECT_LT(faulted.trueRelResidual, 1e-4);
}

// Acceptance scenario: a seeded plan corrupts one MPIR residual exchange
// (the extended-precision halo transfer of refinement step 1). The guard
// sees the residual jump, rolls back to the last good iterate, re-refines,
// and the solve converges — fault and recovery both visible in the log.
TEST(SolverRecovery, MpirRollsBackCorruptedResidualExchange) {
  auto g = matrix::poisson2d5(8, 8);
  const char* json = R"({
    "type": "mpir", "extendedType": "doubleword",
    "maxRefinements": 20, "tolerance": 1e-10,
    "inner": {"type": "bicgstab", "maxIterations": 40, "tolerance": 0}
  })";

  // Discover the layout's transfers-per-exchange so the corruption lands on
  // refinement 1's residual exchange (refinement 0 starts from x = 0, where
  // a corrupted halo is indistinguishable from a legitimate first residual).
  FaultedSolve probe = runFaultedSolve(g, 4, json, nullptr);
  ASSERT_EQ(probe.result.status, SolveStatus::Converged);
  ASSERT_GT(probe.haloTransfersPerExchange, 0u);

  // The extended residual is exchanged through the DoubleWord halo buffer;
  // the float32 halo of the inner solver is a different tensor, so matching
  // "halo" + skipping one exchange's worth of transfers pins the corruption
  // to the extended path only if we match the right buffer. The DoubleWord
  // halo is created first (residualExt runs before the inner solver), so its
  // transfers are the first `haloTransfersPerExchange` matches per step.
  std::string planJson = R"({
    "seed": 9,
    "faults": [
      {"type": "exchange-corrupt", "tensor": "EXTHALO", "bit": 30,
       "skip": SKIP, "count": 1}
    ]
  })";

  // Find the DoubleWord halo tensor's exact name by emitting the program
  // once more and scanning the graph.
  std::string extHaloName;
  {
    Context ctx(ipu::IpuTarget::testTarget(4));
    auto layout =
        partition::Partitioner(ipu::Topology::singleIpu(4)).layout(g);
    DistMatrix A(g.matrix, std::move(layout));
    Tensor x = A.makeVector(DType::Float32, "x");
    Tensor b = A.makeVector(DType::Float32, "b");
    auto solver = makeSolverFromString(json);
    solver->apply(A, x, b);
    for (std::size_t i = 0; i < ctx.graph().numTensors(); ++i) {
      const auto& info = ctx.graph().tensor(static_cast<graph::TensorId>(i));
      if (info.dtype == DType::DoubleWord &&
          info.name.rfind("halo", 0) == 0) {
        extHaloName = info.name;
      }
    }
  }
  ASSERT_FALSE(extHaloName.empty()) << "no extended halo tensor found";
  planJson.replace(planJson.find("EXTHALO"), 7, extHaloName);
  planJson.replace(planJson.find("SKIP"), 4,
                   std::to_string(probe.haloTransfersPerExchange));
  ipu::FaultPlan plan = ipu::FaultPlan::fromJsonText(planJson);

  FaultedSolve faulted = runFaultedSolve(g, 4, json, &plan);
  EXPECT_TRUE(logContains(faulted.profile, "exchange-corrupt"));
  EXPECT_TRUE(logContains(faulted.profile, "recovery:rollback"));
  EXPECT_GE(faulted.result.rollbacks, 1u);
  EXPECT_EQ(faulted.result.status, SolveStatus::Converged);
  EXPECT_LE(faulted.result.finalResidual, 1e-10);
}

// The persistent-corruption case: every residual exchange is corrupted, the
// backoff budget runs out, and MPIR reports a typed failure instead of
// looping forever or returning garbage.
TEST(SolverRecovery, MpirExhaustsRollbackBudgetUnderPersistentFaults) {
  auto g = matrix::poisson2d5(8, 8);
  const char* json = R"({
    "type": "mpir", "extendedType": "doubleword",
    "maxRefinements": 20, "tolerance": 1e-10,
    "inner": {"type": "bicgstab", "maxIterations": 40, "tolerance": 0}
  })";
  ipu::FaultPlan plan = ipu::FaultPlan::fromJsonText(R"({
    "seed": 11,
    "faults": [{"type": "bitflip", "tensor": "mpir_x", "bit": 28,
                "probability": 0.5}]
  })");
  FaultedSolve faulted = runFaultedSolve(g, 4, json, &plan);
  EXPECT_NE(faulted.result.status, SolveStatus::NotRun);
  EXPECT_NE(faulted.result.status, SolveStatus::Running);
  // Persistent corruption either exhausts the budget (typed failure) or, if
  // every flip lands on already-insignificant bits, still converges. Either
  // way: no NaN in the refinement history.
  for (const IterationRecord& rec : faulted.history) {
    EXPECT_TRUE(std::isfinite(rec.residual));
  }
}

TEST(EngineGuards, ReadScalarFiniteThrowsOnNaN) {
  Context ctx(ipu::IpuTarget::testTarget(2));
  Tensor s = Tensor::scalar(DType::Float32, "probe");
  graph::Engine engine(ctx.graph());
  engine.writeScalar(s.id(), graph::Scalar(std::nanf("")));
  EXPECT_THROW(engine.readScalarFinite(s.id()), NumericalError);
  engine.writeScalar(s.id(), graph::Scalar(1.5f));
  EXPECT_FLOAT_EQ(engine.readScalarFinite(s.id()).asFloat(), 1.5f);
}

TEST(FaultLog, SerialisesToJsonAndText) {
  std::vector<ipu::FaultEvent> events;
  events.push_back({"bitflip", 12, "cg_resid", 3, 30, 0.0, "seu"});
  events.push_back({"stall", 5, "tile 3", 0, -1, 10000.0, ""});
  json::Value v = ipu::faultEventsToJson(events);
  ASSERT_TRUE(v.isArray());
  EXPECT_EQ(v.asArray().size(), 2u);
  std::string text = ipu::formatFaultEvents(events);
  EXPECT_NE(text.find("bitflip"), std::string::npos);
  EXPECT_NE(text.find("cg_resid"), std::string::npos);
  EXPECT_NE(text.find("stall"), std::string::npos);
}

// Every event kind the framework emits — transient injections, hard faults,
// watchdog verdicts and recovery actions — survives the JSON round trip
// field-for-field. This is what lets a chaos campaign's fault log be
// archived and diffed byte-for-byte.
TEST(FaultLog, RoundTripsThroughJsonExactly) {
  std::vector<ipu::FaultEvent> events;
  events.push_back({"bitflip", 12, "cg_resid", 3, 30, 0.0, "seu"});
  events.push_back({"exchange-drop", 19, "halo", 7, -1, 0.0, ""});
  events.push_back({"tile-dead", 56, "tile 0", 0, -1, 1e9, "hard fault"});
  events.push_back({"link-degraded", 23, "tile 5", 0, -1, 0.0, "x2.74"});
  events.push_back({"sram-region-dead", 10, "cg_Ap", 4, -1, 0.0, ""});
  events.push_back({"watchdog-trip", 57, "tile 0", 0, -1, 1e9, ""});
  events.push_back(
      {"health:tile-dead", 58, "tile 0", 0, -1, 0.0, "2 consecutive trips"});
  events.push_back({"recovery:blacklist", 58, "tile 0", 0, -1, 0.0,
                    "tile excluded from the partition"});
  events.push_back({"recovery:remap", 58, "session", 1, -1, 0.0,
                    "repartitioned over 7 surviving tiles"});
  events.push_back({"abft-mismatch", 44, "cg", 0, -1, 0.0, "rel 5.4e-3"});
  events.push_back({"ipu-dead", 40, "ipu 2", 0, -1, 1e9,
                    "permanent: every tile of the chip stops executing"});
  events.push_back({"ipu-link-dead", 12, "link 0->1", 0, -1, 0.0,
                    "permanent: link severed; traffic re-routes"});
  events.push_back({"ipu-link-degraded", 12, "link 1->2", 0, -1, 0.0,
                    "permanent: link cost x6.0"});
  events.push_back({"health:ipu-dead", 61, "ipu 2", 0, -1, 0.0,
                    "4/8 tiles confirmed dead — chip declared dead"});
  events.push_back({"recovery:ipu-blacklist", 61, "ipu 2", 0, -1, 0.0,
                    "chip excluded from the topology"});

  const std::vector<ipu::FaultEvent> back =
      ipu::faultEventsFromJson(ipu::faultEventsToJson(events));
  EXPECT_EQ(back, events);

  // And a second hop is a fixed point (dump → parse → dump is stable).
  const std::string once = ipu::faultEventsToJson(events).dump();
  const std::string twice =
      ipu::faultEventsToJson(ipu::faultEventsFromJson(json::parse(once)))
          .dump();
  EXPECT_EQ(once, twice);
}
