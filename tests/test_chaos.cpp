// Chaos campaigns: randomized fault plans against the full recovery stack.
//
// Covers: the grand campaign (dozens of seeded campaigns across CG /
// BiCGStab / MPIR and 2-D / 3-D matrices, mixing transient and hard faults
// — every one must converge-for-real or fail typed, and every fault log
// must round-trip through JSON); ABFT catching *finite* SpMV corruption a
// NaN guard can't see; a dead tile surviving via blacklist + live remap
// with the recovery visible in the fault log, the trace timeline and the
// resilience.* metrics; remap decisions and fault logs being byte-identical
// at any host thread count; and a persistent-corruption campaign ending in
// the typed CorruptionDetected verdict.
#include <gtest/gtest.h>

#include "chaos_common.hpp"

using namespace graphene;
using namespace chaos;

namespace {

std::string describe(const json::Value& plan) { return plan.dump(); }

bool logContains(const std::vector<ipu::FaultEvent>& log,
                 const std::string& kind) {
  for (const auto& e : log) {
    if (e.kind == kind) return true;
  }
  return false;
}

std::size_t recoveryEvents(const support::TraceSink& trace) {
  std::size_t n = 0;
  for (const auto& ev : trace.events()) {
    n += ev.kind == support::TraceKind::Recovery ? 1 : 0;
  }
  return n;
}

}  // namespace

// The flagship: many seeded campaigns, every solver, mixed fault classes.
// GRAPHENE_CHAOS_CAMPAIGNS overrides the count (CI caps the sanitizer run).
TEST(Chaos, GrandCampaign) {
  const std::size_t campaigns = campaignCount(51);
  const matrix::GeneratedMatrix m2 = matrix::poisson2d5(10, 10);
  const matrix::GeneratedMatrix m3 = matrix::poisson3d7(5, 5, 5);
  const char* solvers[] = {"cg", "bicgstab", "mpir", "pipelined-cg"};

  std::size_t hardFaultCampaigns = 0, converged = 0;
  for (std::size_t i = 0; i < campaigns; ++i) {
    const std::string solver = solvers[i % 4];
    const matrix::GeneratedMatrix& g = (i % 2 == 0) ? m2 : m3;
    const bool allowHard = (i % 2 == 1);
    const json::Value plan = randomPlan(i, 8, allowHard);
    if (allowHard) ++hardFaultCampaigns;

    Outcome o = runCampaign(g, solver, i, plan, 8);
    EXPECT_TRUE(holdsInvariant(o))
        << "campaign " << i << " (" << solver << " on " << g.name
        << "), plan: " << describe(plan);
    if (!o.typedError) {
      // The structured fault log survives a JSON round-trip exactly.
      EXPECT_EQ(ipu::faultEventsFromJson(ipu::faultEventsToJson(o.faultLog)),
                o.faultLog)
          << "campaign " << i;
      if (o.status == solver::SolveStatus::Converged) ++converged;
    }
  }
  // The harness isn't vacuous: hard faults were actually in play, and the
  // recovery machinery rescued a decent share of the campaigns.
  EXPECT_GE(hardFaultCampaigns, campaigns / 3);
  EXPECT_GE(converged, campaigns / 4);
}

// ABFT is off by default and literally free when off: no "abft" compute
// category ever appears, and enabling it changes the solve's cost but not
// its answer (the checksum path never writes solver state).
TEST(Chaos, AbftIsFreeWhenDisabledAndInertWhenClean) {
  const matrix::GeneratedMatrix g = matrix::poisson2d5(8, 8);
  const std::vector<double> rhs(g.matrix.rows(), 1.0);
  auto run = [&](const char* robustness) {
    solver::SolveSession session({.tiles = 4});
    session.load(g).configure(
        std::string(R"({"type": "cg", "maxIterations": 200,
                        "tolerance": 1e-6)") +
        robustness + "}");
    auto result = session.solve(rhs);
    const auto& cycles = session.profile().computeCycles;
    return std::tuple(result.x, cycles.count("abft") > 0,
                      session.profile().totalCycles());
  };

  auto [xOff, abftOff, cyclesOff] = run("");
  auto [xOn, abftOn, cyclesOn] =
      run(R"(, "robustness": {"abft": true, "abftTolerance": 1e-3})");

  EXPECT_FALSE(abftOff) << "abft compute sets emitted while disabled";
  EXPECT_TRUE(abftOn);
  EXPECT_GT(cyclesOn, cyclesOff);  // the checksum supersteps are priced
  EXPECT_EQ(xOff, xOn);            // ...but never touch the solution
}

// A finite bit flip in the SpMV result is invisible to NaN guards — only
// the ABFT checksum sees it. Scan the flip's superstep over the early solve
// so several land in the vulnerable window between the SpMV supersteps and
// the checksum check; every run must keep the invariant and at least one
// must be caught by ABFT specifically.
TEST(Chaos, AbftCatchesFiniteSpmvCorruption) {
  const matrix::GeneratedMatrix g = matrix::poisson2d5(8, 8);
  std::size_t caught = 0;
  for (std::size_t superstep = 16; superstep <= 48; ++superstep) {
    json::Object f;
    f["type"] = "bitflip";
    f["tensor"] = "cg_Ap";
    f["bit"] = 22.0;  // top mantissa bit: large but finite corruption
    f["probability"] = 1.0;
    f["count"] = 1.0;
    f["superstep"] = static_cast<double>(superstep);
    json::Object plan;
    plan["seed"] = static_cast<double>(superstep);
    plan["faults"] = json::Value(json::Array{json::Value(f)});

    Outcome o = runCampaign(g, "cg", superstep, json::Value(plan), 4);
    EXPECT_TRUE(holdsInvariant(o)) << "flip at superstep " << superstep;
    ASSERT_FALSE(o.typedError) << o.errorMessage;
    if (o.abftMismatches > 0) {
      ++caught;
      EXPECT_TRUE(logContains(o.faultLog, "abft-mismatch"))
          << "counter ticked but no abft-mismatch event at superstep "
          << superstep;
    }
  }
  EXPECT_GE(caught, 1u) << "no scanned flip position was caught by ABFT";
}

// A tile dies mid-solve: the watchdog confirms it, the session blacklists
// it, repartitions over the survivors, migrates the iterate and converges.
// The whole recovery is observable — fault log, trace timeline, metrics.
TEST(Chaos, TileDeadSurvivesViaBlacklistAndRemap) {
  const matrix::GeneratedMatrix g = matrix::poisson2d5(10, 10);
  solver::SolveSession session({.tiles = 8});
  session.load(g)
      .configure(R"({"type": "cg", "maxIterations": 200, "tolerance": 1e-6,
                     "robustness": {"maxRestarts": 2, "checkpointEvery": 8}})")
      .withFaultPlan(json::parse(R"({
        "seed": 5,
        "faults": [{"type": "tile-dead", "tile": 2, "superstep": 30}]
      })"));
  std::vector<double> rhs(session.matrix().rows(), 1.0);
  auto result = session.solve(rhs);

  EXPECT_EQ(result.solve.status, solver::SolveStatus::Converged)
      << solver::toString(result.solve.status);
  ASSERT_EQ(session.blacklistedTiles().size(), 1u);
  EXPECT_EQ(session.blacklistedTiles()[0], 2u);

  // The recovery ladder is in the fault log...
  const auto& log = session.profile().faultEvents;
  EXPECT_TRUE(logContains(log, "tile-dead"));          // the injected fault
  EXPECT_TRUE(logContains(log, "watchdog-trip"));      // detection
  EXPECT_TRUE(logContains(log, "health:tile-dead"));   // confirmation
  EXPECT_TRUE(logContains(log, "recovery:blacklist")); // recovery
  EXPECT_TRUE(logContains(log, "recovery:remap"));
  // ...in the trace timeline...
  EXPECT_GE(recoveryEvents(session.trace()), 2u);
  // ...and in the metrics.
  EXPECT_EQ(session.profile().metrics.counter("resilience.remaps"), 1.0);
  EXPECT_EQ(session.profile().metrics.counter("resilience.blacklisted"), 1.0);

  // No row of the remapped layout lives on the dead tile.
  for (std::size_t t : session.matrix().layout().rowToTile) {
    EXPECT_NE(t, 2u);
  }

  // And x actually solves the system.
  std::vector<double> ax(rhs.size(), 0.0);
  g.matrix.spmv(result.x, ax);
  for (std::size_t i = 0; i < ax.size(); ++i) {
    EXPECT_NEAR(ax[i], rhs[i], 1e-3);
  }
}

// The watchdog observes per-tile cycles from the engine's *serial*
// reduction pass, so trips, confirmations, blacklist and remap decisions —
// and hence the fault log and the solution — cannot depend on how many
// host threads simulate the tiles.
TEST(Chaos, RemapDecisionsAreHostThreadCountInvariant) {
  const matrix::GeneratedMatrix g = matrix::poisson3d7(5, 5, 5);
  const json::Value plan = json::parse(R"({
    "seed": 11,
    "faults": [
      {"type": "tile-dead", "tile": 5, "superstep": 25},
      {"type": "bitflip", "tensor": "cg_resid", "bit": 20, "count": 1,
       "superstep": 12},
      {"type": "link-degraded", "tile": 1, "factor": 3.0, "superstep": 8}
    ]
  })");

  Outcome one = runCampaign(g, "cg", 11, plan, 8, /*hostThreads=*/1);
  Outcome three = runCampaign(g, "cg", 11, plan, 8, /*hostThreads=*/3);

  ASSERT_FALSE(one.typedError) << one.errorMessage;
  ASSERT_FALSE(three.typedError) << three.errorMessage;
  EXPECT_EQ(one.status, three.status);
  EXPECT_EQ(one.faultLog, three.faultLog);  // byte-identical fault log
  EXPECT_EQ(one.x, three.x);                // bit-identical solution
  EXPECT_EQ(one.remaps, three.remaps);
}

namespace {

/// The soak job mix, defined in one place so the submitter and the checks
/// agree. Every fourth job runs clean — and always on the same (matrix,
/// config) pair, so the clean jobs exercise warm plan-cache leases even in
/// short soaks; the rest carry seeded random fault plans over a rotating
/// solver / matrix mix.
bool soakJobIsClean(std::size_t i) { return i % 4 == 3; }

const matrix::GeneratedMatrix& soakMatrix(std::size_t i,
                                          const matrix::GeneratedMatrix& m2,
                                          const matrix::GeneratedMatrix& m3) {
  if (soakJobIsClean(i)) return m2;
  return (i % 2 == 0) ? m2 : m3;
}

std::string soakConfig(std::size_t i) {
  static const char* solvers[] = {"cg", "bicgstab", "mpir"};
  return solverConfigFor(soakJobIsClean(i) ? "cg" : solvers[i % 3]);
}

/// Runs one seeded soak mix through a SolverService: `jobs` concurrent
/// submissions across CG / BiCGStab / MPIR and 2-D / 3-D matrices, three in
/// four carrying a seeded random fault plan (hard faults included), all
/// under a simulated-cycle deadline. Returns the terminal results in
/// submission order.
std::vector<solver::JobResult> runServiceSoak(std::size_t jobs,
                                              std::size_t workers,
                                              std::size_t hostThreads) {
  solver::ServiceOptions serviceOpts;
  serviceOpts.workers = workers;
  serviceOpts.tiles = 8;
  serviceOpts.hostThreads = hostThreads;
  serviceOpts.retry.maxRetries = 1;
  serviceOpts.retry.backoffBaseMs = 0.0;
  serviceOpts.retry.backoffMaxMs = 0.0;
  serviceOpts.retry.jitter = 0.0;
  // The soak judges per-job verdicts: a breaker tripping on one job's
  // seeded faults would make its *neighbours'* outcomes depend on
  // completion order across workers.
  serviceOpts.breaker.failuresToOpen = 1000000;
  solver::SolverService service(serviceOpts);

  const matrix::GeneratedMatrix m2 = matrix::poisson2d5(10, 10);
  const matrix::GeneratedMatrix m3 = matrix::poisson3d7(5, 5, 5);

  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < jobs; ++i) {
    solver::SolveJobOptions opts;
    opts.deadlineCycles = 5e8;  // simulated → deterministic
    if (!soakJobIsClean(i)) {
      opts.faultPlan = randomPlan(i, 8, /*allowHard=*/i % 2 == 1);
    }
    const matrix::GeneratedMatrix& g = soakMatrix(i, m2, m3);
    ids.push_back(service.submit(g, json::parse(soakConfig(i)),
                                 randomRhs(i, g.matrix.rows()),
                                 std::move(opts)));
  }

  std::vector<solver::JobResult> results;
  results.reserve(jobs);
  for (std::size_t id : ids) results.push_back(service.wait(id));

  // Clean repeat structures leased warm pipelines, and shutdown reclaims
  // the whole engine pool.
  EXPECT_GT(service.planCacheStats().hits, 0u);
  service.shutdown();
  EXPECT_EQ(service.pooledPipelines(), 0u);
  return results;
}

/// Adapts a service JobResult to the chaos invariant (converge-for-real or
/// fail typed); `g` is the matrix the job solved.
Outcome outcomeOf(const solver::JobResult& r,
                  const matrix::GeneratedMatrix& g, std::uint64_t seed) {
  Outcome o;
  o.status = r.solve.status;
  o.typedError = r.typedError;
  o.errorMessage = r.message;
  o.x = r.x;
  if (!r.typedError && r.solve.status == solver::SolveStatus::Converged) {
    const std::vector<double> rhs = randomRhs(seed, g.matrix.rows());
    std::vector<double> ax(rhs.size(), 0.0);
    g.matrix.spmv(r.x, ax);
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i < ax.size(); ++i) {
      const double d = rhs[i] - ax[i];
      num += d * d;
      den += rhs[i] * rhs[i];
    }
    o.hostRel = std::sqrt(num / std::max(den, 1e-300));
  }
  return o;
}

}  // namespace

// The serving soak: ≥16 concurrent fault-injected jobs through the
// SolverService — every one must end in a typed verdict (service verdicts
// included) within its deadline, never a crash, hang or silent drop.
TEST(Chaos, ServiceSoakEveryJobEndsTyped) {
  const std::size_t jobs = std::max<std::size_t>(16, campaignCount(16));
  const matrix::GeneratedMatrix m2 = matrix::poisson2d5(10, 10);
  const matrix::GeneratedMatrix m3 = matrix::poisson3d7(5, 5, 5);

  const auto results = runServiceSoak(jobs, /*workers=*/4, /*hostThreads=*/0);
  ASSERT_EQ(results.size(), jobs);
  std::size_t converged = 0;
  for (std::size_t i = 0; i < jobs; ++i) {
    const Outcome o = outcomeOf(results[i], soakMatrix(i, m2, m3), i);
    EXPECT_TRUE(holdsInvariant(o)) << "soak job " << i;
    // Deadlines were enforced, not just recorded: overshoot is bounded by
    // one superstep — which can cost the full dead-tile charge (1e9 cycles)
    // on the hard-fault campaigns, and is small everywhere else.
    const bool mayHitDeadTile = !soakJobIsClean(i) && i % 2 == 1;
    EXPECT_LE(results[i].simCycles, 5e8 + (mayHitDeadTile ? 1.2e9 : 2.5e7))
        << "soak job " << i;
    if (o.status == solver::SolveStatus::Converged) ++converged;
  }
  EXPECT_GE(converged, jobs / 4);  // the soak isn't all wreckage
}

// Job outcomes are independent of service scheduling: the same soak mix
// produces bit-identical per-job verdicts and solutions whatever the host
// thread count — concurrency moves wall time around, never numerics.
TEST(Chaos, ServiceSoakIsHostThreadCountInvariant) {
  const std::size_t jobs = 8;
  const auto one = runServiceSoak(jobs, /*workers=*/2, /*hostThreads=*/1);
  const auto three = runServiceSoak(jobs, /*workers=*/2, /*hostThreads=*/3);
  ASSERT_EQ(one.size(), three.size());
  for (std::size_t i = 0; i < jobs; ++i) {
    EXPECT_EQ(one[i].typedError, three[i].typedError) << "job " << i;
    EXPECT_EQ(one[i].solve.status, three[i].solve.status)
        << "job " << i << ": " << solver::toString(one[i].solve.status)
        << " vs " << solver::toString(three[i].solve.status);
    EXPECT_EQ(one[i].x, three[i].x) << "job " << i;
  }
}

// ---------------------------------------------------------------------------
// Pod-scale chaos: whole-chip loss and IPU-Link faults on a 4-chip pod.

// The pod flagship: a chip dies mid-solve, the watchdog escalates its tile
// deaths to an ipu-dead verdict, the session shrinks the topology onto the
// three survivors, migrates the iterate and converges. Every rung of the
// ladder is observable.
TEST(PodChaos, IpuDeadSurvivesViaTopologyShrink) {
  const matrix::GeneratedMatrix g = matrix::poisson2d5(10, 10);
  const ipu::Topology pod = ipu::Topology::pod(4, 8);
  solver::SolveSession session({.topology = pod, .maxRemaps = 2});
  session.load(g)
      .configure(R"({"type": "cg", "maxIterations": 200, "tolerance": 1e-6,
                     "robustness": {"maxRestarts": 2, "checkpointEvery": 8}})")
      .withFaultPlan(json::parse(R"({
        "seed": 9,
        "faults": [{"type": "ipu-dead", "ipu": 1, "superstep": 30}]
      })"));
  std::vector<double> rhs(session.matrix().rows(), 1.0);
  auto result = session.solve(rhs);

  EXPECT_EQ(result.solve.status, solver::SolveStatus::Converged)
      << solver::toString(result.solve.status);
  // The chip went as one verdict, not a tile-by-tile blacklist march.
  ASSERT_EQ(session.deadIpus(), (std::vector<std::size_t>{1}));
  EXPECT_TRUE(session.blacklistedTiles().empty());
  ASSERT_TRUE(session.options().topology.has_value());
  EXPECT_EQ(session.options().topology->numAliveIpus(), 3u);
  EXPECT_NE(session.options().topology->fingerprint(), pod.fingerprint());

  // The full escalation ladder is in the fault log...
  const auto& log = session.profile().faultEvents;
  EXPECT_TRUE(logContains(log, "ipu-dead"));                // injected fault
  EXPECT_TRUE(logContains(log, "watchdog-trip"));           // detection
  EXPECT_TRUE(logContains(log, "health:tile-dead"));        // per-tile
  EXPECT_TRUE(logContains(log, "health:ipu-dead"));         // escalation
  EXPECT_TRUE(logContains(log, "recovery:ipu-blacklist"));  // shrink
  EXPECT_TRUE(logContains(log, "recovery:remap"));
  // ...in the trace timeline and the metrics.
  EXPECT_GE(recoveryEvents(session.trace()), 2u);
  EXPECT_EQ(session.profile().metrics.counter("resilience.remaps"), 1.0);
  // ...and the health report carries the chip verdict.
  const json::Value health = session.healthReport();
  ASSERT_TRUE(health.asObject().count("deadIpus") > 0);
  EXPECT_EQ(health.at("deadIpus").asArray().size(), 1u);

  // No row of the shrunken layout lives on the dead chip (tiles 8..15).
  for (std::size_t t : session.matrix().layout().rowToTile) {
    EXPECT_TRUE(t < 8 || t >= 16) << "row mapped to dead chip tile " << t;
  }

  // And x actually solves the system.
  std::vector<double> ax(rhs.size(), 0.0);
  g.matrix.spmv(result.x, ax);
  for (std::size_t i = 0; i < ax.size(); ++i) {
    EXPECT_NEAR(ax[i], rhs[i], 1e-3);
  }
}

// The shrink decision comes out of the engine's serial reduction pass, so
// the whole chip-dead recovery — fault log, shrink, solution — is
// bit-identical at any host thread count.
TEST(PodChaos, TopologyShrinkIsHostThreadCountInvariant) {
  const matrix::GeneratedMatrix g = matrix::poisson2d5(10, 10);
  const ipu::Topology pod = ipu::Topology::pod(4, 8);
  const json::Value plan = json::parse(R"({
    "seed": 13,
    "faults": [{"type": "ipu-dead", "ipu": 2, "superstep": 25}]
  })");

  Outcome one = runPodCampaign(g, "cg", 13, plan, pod, /*hostThreads=*/1);
  Outcome three = runPodCampaign(g, "cg", 13, plan, pod, /*hostThreads=*/3);

  ASSERT_FALSE(one.typedError) << one.errorMessage;
  ASSERT_FALSE(three.typedError) << three.errorMessage;
  EXPECT_EQ(one.status, three.status);
  EXPECT_EQ(one.faultLog, three.faultLog);  // byte-identical fault log
  EXPECT_EQ(one.x, three.x);                // bit-identical solution
  EXPECT_EQ(one.remaps, three.remaps);
}

// A severed ordered link re-routes its traffic via a surviving chip: the
// payload still lands (numerics are bit-identical to the healthy pod), but
// the detour is priced — the faulted solve costs strictly more cycles.
TEST(PodChaos, IpuLinkDeadReroutesAndConverges) {
  const matrix::GeneratedMatrix g = matrix::poisson2d5(10, 10);
  const ipu::Topology pod = ipu::Topology::pod(4, 8);
  const char* config =
      R"({"type": "cg", "maxIterations": 200, "tolerance": 1e-6})";
  std::vector<double> rhs(g.matrix.rows(), 1.0);

  solver::SolveSession::Result clean;
  {  // Scoped: only one session (one DSL context) may be live at a time.
    solver::SolveSession healthy({.topology = pod});
    healthy.load(g).configure(config);
    // Empty plan: keeps the engine on the same (fault-aware) execution path
    // as the severed run, so the cycle comparison isolates the re-route cost.
    healthy.withFaultPlan(json::parse(R"({"faults": []})"));
    clean = healthy.solve(rhs);
  }

  solver::SolveSession severed({.topology = pod});
  severed.load(g).configure(config).withFaultPlan(json::parse(R"({
    "faults": [{"type": "ipu-link-dead", "from": 0, "to": 1, "superstep": 0}]
  })"));
  auto rerouted = severed.solve(rhs);

  EXPECT_EQ(clean.solve.status, solver::SolveStatus::Converged);
  EXPECT_EQ(rerouted.solve.status, solver::SolveStatus::Converged);
  EXPECT_EQ(rerouted.x, clean.x);  // the detour never touches the payload
  EXPECT_GT(rerouted.simCycles, clean.simCycles);  // ...but it is priced
  EXPECT_TRUE(
      logContains(severed.profile().faultEvents, "ipu-link-dead"));
}

// On a 2-chip pod there is no surviving chip to relay through: severing the
// only link forward is a *partition* of the link graph, and the solve ends
// in the typed LinkPartitionedError — never a hang or a silent wrong answer.
TEST(PodChaos, LinkPartitionIsTyped) {
  const matrix::GeneratedMatrix g = matrix::poisson2d5(8, 8);
  solver::SolveSession session({.topology = ipu::Topology::pod(2, 4)});
  session.load(g)
      .configure(R"({"type": "cg", "maxIterations": 100, "tolerance": 1e-6})")
      .withFaultPlan(json::parse(R"({
        "faults": [{"type": "ipu-link-dead", "from": 0, "to": 1,
                    "superstep": 0}]
      })"));
  std::vector<double> rhs(session.matrix().rows(), 1.0);
  EXPECT_THROW(session.solve(rhs), ipu::LinkPartitionedError);
}

// The pod grand campaign: seeded chip-dead / link-dead / link-degraded
// rotations across CG, pipelined CG and BiCGStab on a 4-chip pod. Every
// campaign converges for real or fails typed.
TEST(PodChaos, PodGrandCampaign) {
  const std::size_t campaigns = campaignCount(18);
  const ipu::Topology pod = ipu::Topology::pod(4, 8);
  const matrix::GeneratedMatrix m2 = matrix::poisson2d5(10, 10);
  const matrix::GeneratedMatrix m3 = matrix::poisson3d7(5, 5, 5);
  const char* solvers[] = {"cg", "pipelined-cg", "bicgstab"};

  std::size_t converged = 0;
  for (std::size_t i = 0; i < campaigns; ++i) {
    const std::string solver = solvers[i % 3];
    const matrix::GeneratedMatrix& g = (i % 2 == 0) ? m2 : m3;
    const json::Value plan = randomPodPlan(i, pod.numIpus());

    Outcome o = runPodCampaign(g, solver, i, plan, pod);
    EXPECT_TRUE(holdsInvariant(o))
        << "pod campaign " << i << " (" << solver << " on " << g.name
        << "), plan: " << describe(plan);
    if (!o.typedError) {
      EXPECT_EQ(ipu::faultEventsFromJson(ipu::faultEventsToJson(o.faultLog)),
                o.faultLog)
          << "pod campaign " << i;
      if (o.status == solver::SolveStatus::Converged) ++converged;
    }
  }
  EXPECT_GE(converged, campaigns / 4);  // recovery rescues a decent share
}

// Persistently dead SRAM under the SpMV result: every checksum check fails,
// the restart budget drains, and the verdict is the *typed*
// CorruptionDetected — not a crash, not a silent wrong answer.
TEST(Chaos, PersistentCorruptionEndsTyped) {
  const matrix::GeneratedMatrix g = matrix::poisson2d5(8, 8);
  const json::Value plan = json::parse(R"({
    "seed": 3,
    "faults": [{"type": "sram-region-dead", "tensor": "cg_Ap",
                "elements": 4, "superstep": 10}]
  })");
  Outcome o = runCampaign(g, "cg", 3, plan, 4);
  EXPECT_TRUE(holdsInvariant(o));
  ASSERT_FALSE(o.typedError) << o.errorMessage;
  EXPECT_NE(o.status, solver::SolveStatus::Converged);
}
