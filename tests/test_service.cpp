// SolverService — the robust serving front-end over SolveSession.
//
// Covers: the submit → wait flow across worker threads; plan-cache hits
// with bit-identical solutions vs an uncached solve; value-only matrix
// updates (and their refusal for factorisation chains); simulated-cycle
// deadlines that stop a solve deterministically; cooperative cancellation
// of queued jobs; SRAM + queue-depth admission control; the per-structure
// circuit breaker incl. the single-flight half-open probe and its
// reopen-on-failure path; graceful degradation on the final retry; typed
// verdicts for matrices whose pipeline cannot even be built; bounded
// retention of terminal results; cancel/deadline cutting the retry backoff
// short; strict ServiceOptions/JSON validation naming the offending key,
// negative and out-of-range counts included; flight-record structure
// fingerprints equal to the one-shot hash; and the service.* counters in
// the Prometheus exposition.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "graphene.hpp"

using namespace graphene;
using namespace graphene::solver;

namespace {

std::string messageOf(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

json::Value cgConfig() {
  return json::parse(R"({"type": "cg", "tolerance": 1e-6,
                         "maxIterations": 200})");
}

/// A fault plan that corrupts the residual on *every* superstep with a
/// high-exponent bit flip. The corruption outlasts any restart budget, so
/// CG (and the degraded BiCGStab) end in a NanDetected / Diverged verdict
/// deterministically.
json::Value poisonPlan() {
  return json::parse(R"({"seed": 7, "faults": [
    {"type": "bitflip", "tensor": "resid", "bit": 30,
     "probability": 1.0, "count": 100000, "skip": 0}]})");
}

std::vector<double> ones(std::size_t n) {
  return std::vector<double>(n, 1.0);
}

}  // namespace

TEST(SolverService, SubmitWaitSolvesAcrossWorkers) {
  SolverService service({.workers = 2, .tiles = 4});
  const auto g = matrix::poisson2d5(8, 8);
  const std::size_t n = g.matrix.rows();

  std::vector<std::size_t> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(service.submit(g, cgConfig(), ones(n)));
  }
  for (std::size_t id : ids) {
    JobResult r = service.wait(id);
    EXPECT_FALSE(r.typedError) << r.message;
    EXPECT_EQ(r.solve.status, SolveStatus::Converged);
    EXPECT_EQ(r.x.size(), n);
    EXPECT_GT(r.simCycles, 0.0);
  }
  // wait() is repeatable: the result is retained.
  EXPECT_EQ(service.wait(ids[0]).solve.status, SolveStatus::Converged);

  EXPECT_GE(service.metrics().counter("service.jobs.accepted"), 4.0);
  EXPECT_GE(service.metrics().counter("service.jobs.completed"), 4.0);

  service.shutdown();
  EXPECT_EQ(service.pooledPipelines(), 0u);  // engine pool reclaimed
}

TEST(SolverService, PlanCacheHitIsBitIdentical) {
  const auto g = matrix::poisson2d5(8, 8);
  const std::size_t n = g.matrix.rows();

  // Uncached reference: plan cache disabled entirely.
  SolverService cold({.workers = 1, .tiles = 4, .planCacheCapacity = 0});
  JobResult ref = cold.solve(g, cgConfig(), ones(n));
  ASSERT_EQ(ref.solve.status, SolveStatus::Converged);
  EXPECT_FALSE(ref.planCacheHit);
  EXPECT_EQ(cold.planCacheStats().hits, 0u);

  // Cached service: first solve builds, second leases the warm pipeline.
  SolverService warm({.workers = 1, .tiles = 4});
  JobResult first = warm.solve(g, cgConfig(), ones(n));
  JobResult second = warm.solve(g, cgConfig(), ones(n));
  EXPECT_FALSE(first.planCacheHit);
  EXPECT_TRUE(second.planCacheHit);
  EXPECT_GT(warm.planCacheStats().hits, 0u);
  EXPECT_EQ(warm.pooledPipelines(), 1u);

  // The warm path re-executes the identical program: bit-identical x, both
  // against the cold build and against the cache-miss build.
  EXPECT_EQ(first.x, ref.x);
  EXPECT_EQ(second.x, ref.x);
}

TEST(SolverService, ValueOnlyUpdateReusesThePlan) {
  auto g = matrix::poisson2d5(8, 8);
  const std::size_t n = g.matrix.rows();

  SolverService service({.workers = 1, .tiles = 4});
  ASSERT_EQ(service.solve(g, cgConfig(), ones(n)).solve.status,
            SolveStatus::Converged);

  // Same structure, scaled coefficients: the plan is leased and the values
  // refreshed in place — no rebuild, still the right answer for the *new*
  // system (x scales by 1/2 for A → 2A).
  auto scaled = g;
  {
    auto vals = scaled.matrix.values();
    for (double& v : vals) v *= 2.0;
  }
  JobResult r = service.solve(scaled, cgConfig(), ones(n));
  EXPECT_EQ(r.solve.status, SolveStatus::Converged);
  EXPECT_TRUE(r.planCacheHit);

  std::vector<double> ax(n);
  scaled.matrix.spmv(r.x, ax);
  double maxErr = 0;
  for (std::size_t i = 0; i < n; ++i) {
    maxErr = std::max(maxErr, std::abs(ax[i] - 1.0));
  }
  EXPECT_LT(maxErr, 1e-3);
}

TEST(SolverService, FactorisationChainsRefuseValueOnlyReuse) {
  auto g = matrix::poisson2d5(8, 8);
  const std::size_t n = g.matrix.rows();
  const json::Value config = json::parse(R"({
    "type": "cg", "tolerance": 1e-6, "maxIterations": 200,
    "preconditioner": {"type": "ilu"}})");
  ASSERT_TRUE(configBakesValues(config));

  SolverService service({.workers = 1, .tiles = 4});
  ASSERT_EQ(service.solve(g, config, ones(n)).solve.status,
            SolveStatus::Converged);

  auto scaled = g;
  {
    auto vals = scaled.matrix.values();
    for (double& v : vals) v *= 2.0;
  }
  // ILU baked the old values into its factors at emission: value-only reuse
  // must miss and build a fresh pipeline — which still solves correctly.
  const std::size_t missesBefore = service.planCacheStats().misses;
  JobResult r = service.solve(scaled, config, ones(n));
  EXPECT_EQ(r.solve.status, SolveStatus::Converged);
  EXPECT_FALSE(r.planCacheHit);
  EXPECT_GT(service.planCacheStats().misses, missesBefore);

  std::vector<double> ax(n);
  scaled.matrix.spmv(r.x, ax);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(ax[i], 1.0, 1e-3);
  }
}

TEST(SolverService, CycleDeadlineStopsTheSolveDeterministically) {
  const auto g = matrix::poisson2d5(12, 12);
  const std::size_t n = g.matrix.rows();

  // Full-length reference run to learn the total cost.
  SolverService service({.workers = 1, .tiles = 4, .planCacheCapacity = 0});
  JobResult full = service.solve(g, cgConfig(), ones(n));
  ASSERT_EQ(full.solve.status, SolveStatus::Converged);
  ASSERT_GT(full.simCycles, 0.0);

  // Half the budget: the solve must stop with DeadlineExceeded before
  // running to completion — overshoot bounded by one superstep, so well
  // under the full cost.
  const double deadline = full.simCycles / 2;
  JobResult cut = service.solve(g, cgConfig(), ones(n),
                                {.deadlineCycles = deadline});
  EXPECT_EQ(cut.solve.status, SolveStatus::DeadlineExceeded);
  EXPECT_LT(cut.simCycles, full.simCycles);
  EXPECT_GE(cut.simCycles, deadline);  // it ran *until* the deadline

  // Simulated deadlines are deterministic: the same budget stops at the
  // same superstep with the same cycle count on every run.
  JobResult again = service.solve(g, cgConfig(), ones(n),
                                  {.deadlineCycles = deadline});
  EXPECT_EQ(again.solve.status, SolveStatus::DeadlineExceeded);
  EXPECT_EQ(again.simCycles, cut.simCycles);

  EXPECT_GE(service.metrics().counter("service.jobs.deadline_exceeded"), 2.0);
}

TEST(SolverService, CancelQueuedJob) {
  const auto g = matrix::poisson2d5(16, 16);
  const std::size_t n = g.matrix.rows();

  SolverService service({.workers = 1, .tiles = 4});
  // Occupy the lone worker, then cancel the job stuck behind it.
  const std::size_t running = service.submit(g, cgConfig(), ones(n));
  const std::size_t queued = service.submit(g, cgConfig(), ones(n));
  EXPECT_TRUE(service.cancel(queued));
  EXPECT_FALSE(service.cancel(queued + 100));  // unknown id

  JobResult r = service.wait(queued);
  EXPECT_EQ(r.solve.status, SolveStatus::Cancelled);
  EXPECT_EQ(service.wait(running).solve.status, SolveStatus::Converged);
}

TEST(SolverService, AdmissionRejectsWhatCanNeverFit) {
  const auto g = matrix::poisson2d5(8, 8);
  const std::size_t n = g.matrix.rows();

  // A 1-byte SRAM pool: every job's estimate exceeds headroom × pool, so
  // admission rejects at submit — typed, not queued forever.
  SolverService service({.workers = 1,
                         .tiles = 4,
                         .admission = {.maxQueueDepth = 4, .sramPoolBytes = 1}});
  JobResult r = service.solve(g, cgConfig(), ones(n));
  EXPECT_EQ(r.solve.status, SolveStatus::AdmissionRejected);
  EXPECT_NE(r.message.find("SRAM"), std::string::npos) << r.message;
  EXPECT_GE(service.metrics().counter("service.jobs.rejected"), 1.0);
}

TEST(SolverService, RetriesThenDegradesOnPersistentFaults) {
  const auto g = matrix::poisson2d5(8, 8);
  const std::size_t n = g.matrix.rows();

  SolverService service({.workers = 1,
                         .tiles = 4,
                         .retry = {.maxRetries = 2, .backoffBaseMs = 0.0,
                                   .backoffMaxMs = 0.0, .jitter = 0.0}});
  // The poison plan rides along on every attempt: transient verdicts are
  // retried, the final attempt runs degraded, the job still fails *typed*.
  JobResult r = service.solve(g, cgConfig(), ones(n),
                              {.faultPlan = poisonPlan()});
  EXPECT_EQ(r.attempts, 3u);
  EXPECT_TRUE(r.degraded);
  EXPECT_FALSE(r.planCacheHit);  // fault-injected jobs are never pooled
  EXPECT_TRUE(r.typedError || r.solve.status == SolveStatus::Diverged ||
              r.solve.status == SolveStatus::NanDetected ||
              r.solve.status == SolveStatus::Breakdown)
      << toString(r.solve.status) << " " << r.message;
  EXPECT_GE(service.metrics().counter("service.jobs.retried"), 2.0);
  EXPECT_GE(service.metrics().counter("service.jobs.degraded"), 1.0);
}

TEST(SolverService, DegradedRetryOfCgOnlyConfigStillBuilds) {
  const auto g = matrix::poisson2d5(8, 8);
  const std::size_t n = g.matrix.rows();

  SolverService service({.workers = 1,
                         .tiles = 4,
                         .retry = {.maxRetries = 2, .backoffBaseMs = 0.0,
                                   .backoffMaxMs = 0.0, .jitter = 0.0}});
  // "pipelined" is a CG-only key (false keeps classic CG, whose residual
  // the plan poisons): the degraded swap to BiCGStab must drop it, so the
  // final attempt runs and ends in a solver verdict instead of failing its
  // build.
  JobResult r = service.solve(g,
                              json::parse(R"({"type": "cg",
                                  "pipelined": false, "tolerance": 1e-6,
                                  "maxIterations": 200})"),
                              ones(n), {.faultPlan = poisonPlan()});
  EXPECT_EQ(r.attempts, 3u);
  EXPECT_TRUE(r.degraded);
  EXPECT_FALSE(r.typedError) << r.message;
  EXPECT_TRUE(r.solve.status == SolveStatus::Diverged ||
              r.solve.status == SolveStatus::NanDetected ||
              r.solve.status == SolveStatus::Breakdown)
      << toString(r.solve.status) << " " << r.message;
  const std::optional<FlightRecord> rec =
      service.flightRecorder().record(r.jobId);
  ASSERT_TRUE(rec.has_value());
  for (const support::TraceEvent& ev : rec->events) {
    EXPECT_NE(ev.name, "job:build-failed") << ev.detail;
  }
}

TEST(SolverService, BuildFailureEndsTypedAndServiceStaysLive) {
  // A matrix the pipeline cannot build (zero diagonal — modified CRS
  // requires a nonzero one) must end in a typed verdict, not an exception
  // escaping the worker thread. submit() only pre-validates the solver
  // config, so the build failure surfaces inside the worker.
  matrix::GeneratedMatrix bad;
  bad.name = "zero-diagonal";
  bad.matrix = matrix::CsrMatrix::fromTriplets(
      4, 4,
      {{0, 0, 2.0}, {0, 1, -1.0}, {1, 0, -1.0}, {1, 1, 2.0},
       {1, 2, -1.0}, {2, 1, -1.0}, {2, 3, -1.0},  // A(2,2) missing
       {3, 2, -1.0}, {3, 3, 2.0}});
  ASSERT_FALSE(bad.matrix.hasFullDiagonal());

  SolverService service({.workers = 1, .tiles = 4});
  JobResult r = service.solve(bad, cgConfig(), ones(4));
  EXPECT_TRUE(r.typedError);
  EXPECT_NE(r.message.find("diagonal"), std::string::npos) << r.message;
  // Deterministic build failures are not retried: the build would fail
  // identically on every attempt.
  EXPECT_EQ(r.attempts, 1u);
  EXPECT_GE(service.metrics().counter("service.jobs.failed"), 1.0);

  // The worker survived; healthy traffic flows as before.
  const auto g = matrix::poisson2d5(8, 8);
  EXPECT_EQ(service.solve(g, cgConfig(), ones(g.matrix.rows())).solve.status,
            SolveStatus::Converged);
}

TEST(SolverService, FaultPlanPastTheMachineEndsTypedWithoutRetries) {
  // A rule aimed at a tile the session does not have is a property of the
  // submitted plan: the build rejects it and the job is not retried.
  const auto g = matrix::poisson2d5(8, 8);
  ServiceOptions options;
  options.workers = 1;
  options.tiles = 4;
  options.retry.maxRetries = 2;
  options.retry.backoffBaseMs = 0.0;
  options.retry.backoffMaxMs = 0.0;
  SolverService service(options);
  SolveJobOptions job;
  job.faultPlan =
      json::parse(R"({"faults": [{"type": "tile-dead", "tile": 4}]})");
  JobResult r =
      service.solve(g, cgConfig(), ones(g.matrix.rows()), std::move(job));
  EXPECT_TRUE(r.typedError);
  EXPECT_EQ(r.attempts, 1u);
  EXPECT_NE(r.message.find("tile-dead.tile must be an integer from 0 to 3"),
            std::string::npos)
      << r.message;
  EXPECT_EQ(service.metrics().counter("service.jobs.retried"), 0.0);
}

TEST(SolverService, ResultRetentionIsBounded) {
  const auto g = matrix::poisson2d5(8, 8);
  const std::size_t n = g.matrix.rows();

  SolverService service({.workers = 1, .tiles = 4, .maxRetainedResults = 2});
  // Submit-then-wait one job at a time: a job can only be reaped by a
  // *later* job's completion, so each wait() here observes its own result
  // before any reap can touch it — regardless of how fast the worker runs.
  std::vector<std::size_t> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(service.submit(g, cgConfig(), ones(n)));
    EXPECT_EQ(service.wait(ids.back()).solve.status, SolveStatus::Converged);
  }
  // Jobs 0 and 1 fell out of the 2-result retention window when jobs 2 and
  // 3 finished. The reap runs on the worker thread just after the result is
  // published, so poll briefly rather than assuming it already landed.
  const auto waitReleased = [&](std::size_t id) {
    for (int tries = 0; tries < 500; ++tries) {
      const std::string msg = messageOf([&] { (void)service.wait(id); });
      if (!msg.empty()) return msg;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return std::string("job was never released");
  };
  const std::string released = waitReleased(ids[0]);
  EXPECT_NE(released.find("already released"), std::string::npos) << released;
  EXPECT_NE(released.find("maxRetainedResults"), std::string::npos);
  EXPECT_EQ(service.wait(ids[2]).solve.status, SolveStatus::Converged);
  EXPECT_EQ(service.wait(ids[3]).solve.status, SolveStatus::Converged);
  // A never-issued id still reads as unknown, not released.
  EXPECT_NE(messageOf([&] { (void)service.wait(9999); }).find("unknown"),
            std::string::npos);
}

TEST(SolverService, CancelCutsRetryBackoffShort) {
  const auto g = matrix::poisson2d5(8, 8);
  const std::size_t n = g.matrix.rows();

  // A minute of backoff between attempts: without the interruptible wait a
  // cancelled job would sleep it out before noticing.
  SolverService service({.workers = 1,
                         .tiles = 4,
                         .retry = {.maxRetries = 3, .backoffBaseMs = 60000.0,
                                   .backoffMaxMs = 60000.0, .jitter = 0.0}});
  const auto start = std::chrono::steady_clock::now();
  const std::size_t id =
      service.submit(g, cgConfig(), ones(n), {.faultPlan = poisonPlan()});
  // Land the cancel mid-first-attempt or mid-backoff — both must cut the
  // job short with a Cancelled verdict.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  service.cancel(id);
  JobResult r = service.wait(id);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  EXPECT_EQ(r.solve.status, SolveStatus::Cancelled);
  EXPECT_LT(elapsed.count(), 30.0);  // nowhere near the 60 s backoff
}

TEST(SolverService, WallDeadlineCapsRetryBackoff) {
  const auto g = matrix::poisson2d5(8, 8);
  const std::size_t n = g.matrix.rows();

  SolverService service({.workers = 1,
                         .tiles = 4,
                         .retry = {.maxRetries = 3, .backoffBaseMs = 60000.0,
                                   .backoffMaxMs = 60000.0, .jitter = 0.0}});
  const auto start = std::chrono::steady_clock::now();
  // The poisoned attempt fails transiently; the wall deadline expires long
  // before the 60 s backoff would — the job must finish DeadlineExceeded
  // without sleeping the interval out or starting another attempt.
  JobResult r = service.solve(g, cgConfig(), ones(n),
                              {.deadlineSeconds = 1.5,
                               .faultPlan = poisonPlan()});
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  EXPECT_EQ(r.solve.status, SolveStatus::DeadlineExceeded);
  EXPECT_LT(elapsed.count(), 30.0);
}

TEST(SolverService, ProbeFailureReopensTheCircuit) {
  const auto g = matrix::poisson2d5(8, 8);
  const std::size_t n = g.matrix.rows();

  SolverService service(
      {.workers = 1,
       .tiles = 4,
       .retry = {.maxRetries = 0},
       .breaker = {.failuresToOpen = 1, .openForJobs = 2},
       .degradation = {.enabled = false}});

  // Open the circuit, drain the quarantine window.
  EXPECT_NE(service.solve(g, cgConfig(), ones(n), {.faultPlan = poisonPlan()})
                .solve.status,
            SolveStatus::Converged);
  EXPECT_EQ(service.solve(g, cgConfig(), ones(n)).solve.status,
            SolveStatus::CircuitOpen);
  EXPECT_EQ(service.solve(g, cgConfig(), ones(n)).solve.status,
            SolveStatus::CircuitOpen);

  // The half-open probe fails → the quarantine re-opens for another full
  // window before the next probe.
  EXPECT_NE(service.solve(g, cgConfig(), ones(n), {.faultPlan = poisonPlan()})
                .solve.status,
            SolveStatus::Converged);
  EXPECT_EQ(service.solve(g, cgConfig(), ones(n)).solve.status,
            SolveStatus::CircuitOpen);
  EXPECT_EQ(service.solve(g, cgConfig(), ones(n)).solve.status,
            SolveStatus::CircuitOpen);

  // This probe succeeds → closed, traffic flows.
  EXPECT_EQ(service.solve(g, cgConfig(), ones(n)).solve.status,
            SolveStatus::Converged);
  EXPECT_EQ(service.solve(g, cgConfig(), ones(n)).solve.status,
            SolveStatus::Converged);
}

TEST(SolverService, CircuitBreakerOpensAndProbesHalfOpen) {
  const auto g = matrix::poisson2d5(8, 8);
  const std::size_t n = g.matrix.rows();

  SolverService service(
      {.workers = 1,
       .tiles = 4,
       .retry = {.maxRetries = 0},
       .breaker = {.failuresToOpen = 1, .openForJobs = 1},
       .degradation = {.enabled = false}});

  // 1: fails hard → breaker opens for this structure fingerprint.
  JobResult fail = service.solve(g, cgConfig(), ones(n),
                                 {.faultPlan = poisonPlan()});
  EXPECT_NE(fail.solve.status, SolveStatus::Converged);

  // 2: rejected without running — the circuit is open.
  JobResult open = service.solve(g, cgConfig(), ones(n));
  EXPECT_EQ(open.solve.status, SolveStatus::CircuitOpen);
  EXPECT_EQ(open.attempts, 0u);

  // 3: the half-open probe runs for real; healthy again → circuit closes.
  JobResult probe = service.solve(g, cgConfig(), ones(n));
  EXPECT_EQ(probe.solve.status, SolveStatus::Converged);

  // 4: closed: jobs flow normally.
  EXPECT_EQ(service.solve(g, cgConfig(), ones(n)).solve.status,
            SolveStatus::Converged);
}

TEST(SolverService, OptionsValidationNamesTheKeyAndRange) {
  EXPECT_NE(messageOf([] { SolverService s({.workers = 0}); })
                .find("service.workers"),
            std::string::npos);
  EXPECT_NE(messageOf([] {
              SolverService s({.retry = {.backoffFactor = 0.5}});
            }).find("service.retry.backoffFactor"),
            std::string::npos);
  EXPECT_NE(messageOf([] { SolverService s({.retry = {.jitter = 1.0}}); })
                .find("[0, 1)"),
            std::string::npos);
  EXPECT_NE(messageOf([] {
              SolverService s({.admission = {.maxQueueDepth = 0}});
            }).find("service.admission.maxQueueDepth"),
            std::string::npos);
  EXPECT_NE(messageOf([] {
              SolverService s({.admission = {.headroom = 1.5}});
            }).find("(0, 1]"),
            std::string::npos);
  EXPECT_NE(messageOf([] {
              SolverService s({.defaultDeadlineCycles = -1});
            }).find("service.defaultDeadlineCycles"),
            std::string::npos);
  EXPECT_NE(messageOf([] {
              SolverService s({.breaker = {.failuresToOpen = 0}});
            }).find("service.breaker.failuresToOpen"),
            std::string::npos);
  // Cross-field: a retry ladder that sleeps longer than the wall deadline
  // names both knobs.
  const std::string msg = messageOf([] {
    SolverService s({.defaultDeadlineSeconds = 0.001,
                     .retry = {.maxRetries = 10, .backoffBaseMs = 100.0,
                               .backoffMaxMs = 100.0}});
  });
  EXPECT_NE(msg.find("retry budget exceeds the deadline"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("defaultDeadlineSeconds"), std::string::npos);
}

TEST(SolverService, JsonOptionsValidationAndRoundTrip) {
  // Unknown keys name themselves and list the valid ones.
  EXPECT_NE(messageOf([] {
              serviceOptionsFromJson(json::parse(R"({"wrokers": 4})"));
            }).find("wrokers"),
            std::string::npos);
  EXPECT_NE(messageOf([] {
              serviceOptionsFromJson(
                  json::parse(R"({"retry": {"backof": 1}})"));
            }).find("service.retry"),
            std::string::npos);
  // Wrong JSON type names the key and the expected type.
  EXPECT_NE(messageOf([] {
              serviceOptionsFromJson(json::parse(R"({"retry": 3})"));
            }).find("retry"),
            std::string::npos);
  // Range violations flow through the same validation as the struct path.
  EXPECT_NE(messageOf([] {
              serviceOptionsFromJson(
                  json::parse(R"({"retry": {"backoffFactor": 0.25}})"));
            }).find("backoffFactor"),
            std::string::npos);

  const ServiceOptions o = serviceOptionsFromJson(json::parse(R"({
    "workers": 3, "tiles": 16, "planCacheCapacity": 5,
    "defaultDeadlineCycles": 1e9,
    "retry": {"maxRetries": 1, "backoffBaseMs": 2.5},
    "admission": {"maxQueueDepth": 7, "sramPoolBytes": 123456},
    "breaker": {"failuresToOpen": 2, "openForJobs": 4},
    "degradation": {"enabled": false}})"));
  EXPECT_EQ(o.workers, 3u);
  EXPECT_EQ(o.tiles, 16u);
  EXPECT_EQ(o.planCacheCapacity, 5u);
  EXPECT_EQ(o.defaultDeadlineCycles, 1e9);
  EXPECT_EQ(o.retry.maxRetries, 1u);
  EXPECT_EQ(o.retry.backoffBaseMs, 2.5);
  EXPECT_EQ(o.admission.maxQueueDepth, 7u);
  EXPECT_EQ(o.admission.sramPoolBytes, 123456u);
  EXPECT_EQ(o.breaker.failuresToOpen, 2u);
  EXPECT_EQ(o.breaker.openForJobs, 4u);
  EXPECT_FALSE(o.degradation.enabled);
}

// Counts are read as non-negative integers: a negative one would wrap to an
// enormous std::size_t that passes every lower-bound check (workers -2
// would ask the service for 2^64 - 2 worker threads), and a huge one would
// convert out of range. Only the parser runs here — no service, no thread.
TEST(SolverService, JsonOptionsRejectNegativeAndUnrepresentableCounts) {
  auto rejection = [](const char* text) {
    try {
      serviceOptionsFromJson(json::parse(text));
    } catch (const ParseError& e) {
      return std::string(e.what());
    } catch (const Error& e) {
      return "untyped: " + std::string(e.what());
    }
    return std::string("accepted");
  };
  auto expectNamed = [&](const char* text, const char* key) {
    const std::string message = rejection(text);
    EXPECT_NE(message.find(key), std::string::npos) << text << ": " << message;
    EXPECT_EQ(message.rfind("untyped", 0), std::string::npos) << message;
  };
  expectNamed(R"({"hostThreads": -1})", "service.hostThreads");
  expectNamed(R"({"workers": -2})", "service.workers");
  expectNamed(R"({"workers": 1e300})", "service.workers");
  expectNamed(R"({"workers": 2.5})", "service.workers");
  expectNamed(R"({"planCacheCapacity": -1})", "service.planCacheCapacity");
  expectNamed(R"({"retry": {"maxRetries": -1}})", "service.retry.maxRetries");
  expectNamed(R"({"admission": {"sramPoolBytes": -4096}})",
              "service.admission.sramPoolBytes");
  expectNamed(R"({"breaker": {"openForJobs": 1e19}})",
              "service.breaker.openForJobs");
  expectNamed(R"({"topology": {"ipus": -4, "tilesPerIpu": 8}})",
              "service.topology.ipus");
  // 2^32 + 80 used to truncate to port 80.
  expectNamed(R"({"metricsPort": 4294967376})", "service.metricsPort");
  // Zero stays a count (0 host threads = the engine's default).
  EXPECT_EQ(serviceOptionsFromJson(json::parse(R"({"hostThreads": 0})"))
                .hostThreads,
            0u);
  EXPECT_EQ(serviceOptionsFromJson(json::parse(R"({"hostThreads": 3})"))
                .hostThreads,
            3u);
}

// A job's matrix is hashed once at submit; its plan keys, breaker key and
// flight-record header are finished from that hash with the session shape,
// so the recorded fingerprint is the one-shot structureFingerprint.
TEST(SolverService, FlightRecordStructureFingerprintMatchesOneShotHash) {
  const auto g = matrix::poisson2d5(8, 8);
  for (const ipu::Topology& topo :
       {ipu::Topology::singleIpu(32), ipu::Topology::pod(4, 8)}) {
    SCOPED_TRACE(topo.numIpus());
    ServiceOptions serviceOptions;
    serviceOptions.workers = 1;
    serviceOptions.tiles = 32;
    serviceOptions.topology = topo;
    SolverService service(serviceOptions);
    const JobResult cold = service.solve(g, cgConfig(), ones(g.matrix.rows()));
    const JobResult warm = service.solve(g, cgConfig(), ones(g.matrix.rows()));
    ASSERT_EQ(cold.solve.status, SolveStatus::Converged);
    ASSERT_TRUE(warm.planCacheHit);
    const SessionOptions options{.tiles = 32, .topology = topo};
    for (const JobResult& r : {cold, warm}) {
      const std::optional<FlightRecord> rec =
          service.flightRecorder().record(r.jobId);
      ASSERT_TRUE(rec.has_value());
      EXPECT_EQ(rec->structureFingerprint, structureFingerprint(g, options));
    }
    service.shutdown();
  }
}

TEST(SolverService, MetricsAndJobTimelineAreExposed) {
  const auto g = matrix::poisson2d5(8, 8);
  const std::size_t n = g.matrix.rows();

  SolverService service({.workers = 2, .tiles = 4});
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(service.solve(g, cgConfig(), ones(n)).solve.status,
              SolveStatus::Converged);
  }

  // Prometheus exposition carries the service counters (sanitised names).
  const std::string text = service.metricsText();
  EXPECT_NE(text.find("service_jobs_accepted"), std::string::npos) << text;
  EXPECT_NE(text.find("service_jobs_completed"), std::string::npos);
  EXPECT_NE(text.find("service_plan_cache_hits"), std::string::npos);
  EXPECT_NE(text.find("service_plan_cache_misses"), std::string::npos);

  // The job timeline saw every lifecycle event, stamped with stable ids.
  const support::TraceSink timeline = service.traceSnapshot();
  std::size_t jobEvents = 0;
  std::set<std::size_t> jobsSeen;
  for (const support::TraceEvent& ev : timeline.events()) {
    if (ev.kind == support::TraceKind::Job) jobEvents += 1;
    if (ev.jobId != SIZE_MAX) jobsSeen.insert(ev.jobId);
  }
  EXPECT_GE(jobEvents, 6u);  // accepted + done per job
  EXPECT_EQ(jobsSeen.size(), 3u);
}

// GRAPHENE_TEST_POD reaches every service-built pipeline: the ctor resolves
// the pod once (explicit topology > env > plain tiles) and service plans
// carry that pod's topology fingerprint from then on.
TEST(SolverService, PodEnvResolvesServiceTopology) {
  const char* ambientRaw = std::getenv("GRAPHENE_TEST_POD");
  const std::string ambient = ambientRaw != nullptr ? ambientRaw : "";
  ::setenv("GRAPHENE_TEST_POD", "4", 1);

  {  // Env splits the tile budget into a 4-chip pod.
    SolverService service({.workers = 1, .tiles = 32});
    EXPECT_EQ(service.resolvedTopology().numIpus(), 4u);
    EXPECT_EQ(service.resolvedTopology().fingerprint(),
              ipu::Topology::pod(4, 8).fingerprint());
    // ...and jobs actually run on it.
    const auto g = matrix::poisson2d5(8, 8);
    JobResult r = service.solve(g, cgConfig(), ones(g.matrix.rows()));
    EXPECT_EQ(r.solve.status, SolveStatus::Converged);
    service.shutdown();
  }
  {  // An explicit topology wins over the environment.
    SolverService service({.workers = 1,
                           .tiles = 32,
                           .topology = ipu::Topology::pod(2, 16)});
    EXPECT_EQ(service.resolvedTopology().numIpus(), 2u);
    EXPECT_EQ(service.resolvedTopology().tilesPerIpu(), 16u);
    service.shutdown();
  }

  if (ambient.empty()) {
    ::unsetenv("GRAPHENE_TEST_POD");
  } else {
    ::setenv("GRAPHENE_TEST_POD", ambient.c_str(), 1);
  }
}

// The pod flagship, end to end through the serving layer: a chip dies
// mid-job, the session shrinks the topology and converges, and the service
// adopts the shrink — every plan cached against the healthy pod's
// fingerprint is invalidated, follow-up jobs build against the survivors.
TEST(SolverService, ChipDeathShrinksPodAndInvalidatesStalePlans) {
  const auto g = matrix::poisson2d5(10, 10);
  const std::size_t n = g.matrix.rows();
  SolverService service(
      {.workers = 1, .tiles = 32, .topology = ipu::Topology::pod(4, 8)});

  // Job 1: a clean solve on the healthy pod warms the plan cache.
  JobResult warm = service.solve(g, cgConfig(), ones(n));
  ASSERT_EQ(warm.solve.status, SolveStatus::Converged);
  ASSERT_GE(service.planCacheStats().misses, 1u);  // entry inserted

  // Job 2: same matrix, chip 1 dies mid-solve. Fault-plan jobs bypass the
  // cache, so the warm healthy-pod plan sits idle — and stale.
  JobResult faulted =
      service.solve(g, cgConfig(), ones(n),
                    {.faultPlan = json::parse(R"({"faults": [
                        {"type": "ipu-dead", "ipu": 1, "superstep": 30}]})")});
  EXPECT_FALSE(faulted.typedError) << faulted.message;
  EXPECT_EQ(faulted.solve.status, SolveStatus::Converged);  // typed verdict

  // The service now serves from the shrunken pod...
  EXPECT_EQ(service.resolvedTopology().numAliveIpus(), 3u);
  EXPECT_EQ(service.resolvedTopology().deadIpus(),
            (std::vector<std::size_t>{1}));
  EXPECT_GE(service.metrics().counter("service.topology.shrinks"), 1.0);
  // ...and the healthy-pod plan can never be leased again.
  EXPECT_GE(service.planCacheStats().invalidations, 1u);

  // A follow-up clean job misses the cache and converges on the survivors.
  const auto statsBefore = service.planCacheStats();
  JobResult after = service.solve(g, cgConfig(), ones(n));
  EXPECT_EQ(after.solve.status, SolveStatus::Converged);
  EXPECT_FALSE(after.planCacheHit);
  EXPECT_GT(service.planCacheStats().misses, statsBefore.misses);

  service.shutdown();
  EXPECT_EQ(service.pooledPipelines(), 0u);
}
