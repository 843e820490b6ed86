// Host-parallel tile execution must be invisible to the simulated machine.
//
// The engine may simulate the tiles of a compute superstep on any number of
// host threads; tiles are independent between BSP syncs, so every observable
// — tensor bytes, cycle profile, superstep counts, fault logs — must be
// bit-identical to the serial schedule. These tests run the same solves at
// numHostThreads 1 and 8 (through full CG RepeatWhile loops with host
// convergence callbacks, with and without an attached fault plan) and assert
// exactly that. The compiled-codelet fast paths get the same treatment:
// the register VM's loop kernels vs the generic statement walk must agree
// bit-for-bit in both results and charged cycles, and so must a reset
// engine against a new one. The host pool's own tests stress back-to-back
// dispatch, exceptions, more lanes than cores, and shutdown.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "dsl/interpreter.hpp"
#include "graph/engine.hpp"
#include "ipu/fault.hpp"
#include "matrix/generators.hpp"
#include "partition/partitioner.hpp"
#include "solver/solvers.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "support/tile_profile.hpp"
#include "support/trace.hpp"

using namespace graphene;
using namespace graphene::solver;
using dsl::Context;
using dsl::Tensor;

namespace {

std::vector<double> randomVector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

struct SolveObservables {
  std::vector<double> x;
  ipu::Profile profile;
};

/// Builds a fresh graph for `solverJson` on A x = b over `topo` and executes
/// it with the given host thread count (fresh context per run: host callbacks
/// close over per-solver state, so engines must not share a program).
SolveObservables runSolveOn(const matrix::GeneratedMatrix& g,
                            const ipu::Topology& topo,
                            const std::string& solverJson,
                            std::size_t hostThreads, ipu::FaultPlan* plan,
                            bool fusion = true) {
  Context ctx(
      ipu::IpuTarget::testTarget(topo.tilesPerIpu(), topo.numIpus()));
  auto layout = partition::Partitioner(topo).layout(g);
  DistMatrix A(g.matrix, std::move(layout));
  Tensor x = A.makeVector(DType::Float32, "x");
  Tensor b = A.makeVector(DType::Float32, "b");
  auto solver = makeSolverFromString(solverJson);
  solver->apply(A, x, b);

  graph::Engine engine(ctx.graph(), hostThreads);
  EXPECT_EQ(engine.numHostThreads(), hostThreads);
  engine.setSuperstepFusion(fusion);
  if (plan != nullptr) {
    plan->reset();
    engine.setFaultPlan(plan);
  }
  A.upload(engine);
  auto bHost = randomVector(g.matrix.rows(), 42);
  for (double& v : bHost) v = static_cast<double>(static_cast<float>(v));
  A.writeVector(engine, b, bHost);
  engine.run(ctx.program());

  SolveObservables out;
  out.x = A.readVector(engine, x);
  out.profile = engine.profile();
  return out;
}

SolveObservables runSolve(const matrix::GeneratedMatrix& g, std::size_t tiles,
                          const std::string& solverJson,
                          std::size_t hostThreads, ipu::FaultPlan* plan,
                          bool fusion = true) {
  return runSolveOn(g, ipu::Topology::singleIpu(tiles), solverJson,
                    hostThreads, plan, fusion);
}

/// Field-by-field exact comparison (doubles compared with ==: the runs must
/// charge literally the same cycles, not merely close ones).
void expectProfilesIdentical(const ipu::Profile& a, const ipu::Profile& b) {
  EXPECT_EQ(a.computeCycles.size(), b.computeCycles.size());
  for (const auto& [category, cycles] : a.computeCycles) {
    auto it = b.computeCycles.find(category);
    ASSERT_NE(it, b.computeCycles.end()) << "missing category " << category;
    EXPECT_EQ(cycles, it->second) << "cycles differ in " << category;
  }
  EXPECT_EQ(a.exchangeCycles, b.exchangeCycles);
  EXPECT_EQ(a.syncCycles, b.syncCycles);
  EXPECT_EQ(a.computeSupersteps, b.computeSupersteps);
  EXPECT_EQ(a.exchangeSupersteps, b.exchangeSupersteps);
  EXPECT_EQ(a.exchangeInstructions, b.exchangeInstructions);
  EXPECT_EQ(a.exchangedBytes, b.exchangedBytes);
  EXPECT_EQ(a.verticesExecuted, b.verticesExecuted);
  ASSERT_EQ(a.faultEvents.size(), b.faultEvents.size());
  for (std::size_t i = 0; i < a.faultEvents.size(); ++i) {
    EXPECT_TRUE(a.faultEvents[i] == b.faultEvents[i])
        << "fault event " << i << " differs: " << a.faultEvents[i].kind
        << " vs " << b.faultEvents[i].kind;
  }
}

const char* kCgJson = R"({
  "type": "cg", "maxIterations": 200, "tolerance": 1e-6,
  "preconditioner": {"type": "jacobi", "iterations": 2}
})";

}  // namespace

TEST(ParallelEngine, BitIdenticalToSerial) {
  auto g = matrix::poisson2d5(24, 24);
  SolveObservables serial = runSolve(g, 8, kCgJson, 1, nullptr);
  SolveObservables parallel = runSolve(g, 8, kCgJson, 8, nullptr);

  ASSERT_EQ(serial.x.size(), parallel.x.size());
  for (std::size_t i = 0; i < serial.x.size(); ++i) {
    EXPECT_EQ(serial.x[i], parallel.x[i]) << "element " << i;
  }
  expectProfilesIdentical(serial.profile, parallel.profile);
  EXPECT_GT(serial.profile.verticesExecuted, 0u);
}

TEST(ParallelEngine, BitIdenticalWithFaultPlanAttached) {
  auto g = matrix::poisson2d5(20, 20);
  // A stall (lands on the critical path of one superstep) plus bit flips in
  // the CG residual (forces the self-healing restart path): the recovery
  // timeline itself must not depend on the host schedule.
  ipu::FaultPlan plan = ipu::FaultPlan::fromJsonText(R"({
    "seed": 11,
    "faults": [
      {"type": "stall", "tile": 1, "cycles": 5000, "superstep": 7},
      {"type": "bitflip", "tensor": "cg_resid", "bit": 30, "count": 2,
       "skip": 30}
    ]
  })");
  SolveObservables serial = runSolve(g, 8, kCgJson, 1, &plan);
  SolveObservables parallel = runSolve(g, 8, kCgJson, 8, &plan);

  ASSERT_EQ(serial.x.size(), parallel.x.size());
  for (std::size_t i = 0; i < serial.x.size(); ++i) {
    EXPECT_EQ(serial.x[i], parallel.x[i]) << "element " << i;
  }
  expectProfilesIdentical(serial.profile, parallel.profile);
  EXPECT_FALSE(serial.profile.faultEvents.empty());
}

TEST(ParallelEngine, FastPathMatchesGenericWalk) {
  auto g = matrix::poisson2d5(16, 16);
  // CG+Jacobi runs straight-line and CSR rows; the ILU(0)/DILU rows run
  // If-guarded nested loops (substitution and DILU factorisation), and MPIR
  // drives ILU(0)-BiCGStab under double-word refinement across IPU links,
  // or Gauss-Seidel-preconditioned CG under float64 refinement.
  struct Case {
    const char* name;
    const char* json;
    ipu::Topology topo;
  };
  const Case cases[] = {
      {"cg-jacobi", kCgJson, ipu::Topology::singleIpu(4)},
      {"bicgstab-ilu0",
       R"({"type": "bicgstab", "maxIterations": 40, "tolerance": 1e-6,
           "preconditioner": {"type": "ilu"}})",
       ipu::Topology::singleIpu(4)},
      {"bicgstab-dilu",
       R"({"type": "bicgstab", "maxIterations": 40, "tolerance": 1e-6,
           "preconditioner": {"type": "dilu"}})",
       ipu::Topology::singleIpu(4)},
      {"mpir-doubleword-ilu0-bicgstab-pod",
       R"({"type": "mpir", "extendedType": "doubleword",
           "maxRefinements": 3, "tolerance": 1e-10,
           "inner": {"type": "bicgstab", "maxIterations": 6, "tolerance": 0,
                     "preconditioner": {"type": "ilu"}}})",
       ipu::Topology::pod(2, 4)},
      {"mpir-float64-gs-cg",
       R"({"type": "mpir", "extendedType": "float64",
           "maxRefinements": 2, "tolerance": 1e-10,
           "inner": {"type": "cg", "maxIterations": 5, "tolerance": 0,
                     "preconditioner": {"type": "gauss-seidel"}}})",
       ipu::Topology::singleIpu(4)},
  };
  // Force both modes explicitly so the A/B holds even when the whole suite
  // runs under GRAPHENE_NO_FASTPATH=1 (the CI oracle job).
  const bool envFastPaths = dsl::codeletFastPathsEnabled();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    dsl::setCodeletFastPaths(true);
    SolveObservables fast = runSolveOn(g, c.topo, c.json, 1, nullptr);
    dsl::setCodeletFastPaths(false);
    SolveObservables generic = runSolveOn(g, c.topo, c.json, 1, nullptr);
    dsl::setCodeletFastPaths(envFastPaths);

    ASSERT_EQ(fast.x.size(), generic.x.size());
    for (std::size_t i = 0; i < fast.x.size(); ++i) {
      EXPECT_EQ(fast.x[i], generic.x[i]) << "element " << i;
    }
    expectProfilesIdentical(fast.profile, generic.profile);
  }
}

TEST(ParallelEngine, MixedPrecisionBitIdenticalToSerial) {
  auto g = matrix::poisson2d5(16, 16);
  const char* mpirJson = R"({
    "type": "mpir", "extendedType": "doubleword",
    "maxRefinements": 4, "tolerance": 1e-12,
    "inner": {"type": "cg", "maxIterations": 10, "tolerance": 0}
  })";
  SolveObservables serial = runSolve(g, 8, mpirJson, 1, nullptr);
  SolveObservables parallel = runSolve(g, 8, mpirJson, 8, nullptr);

  ASSERT_EQ(serial.x.size(), parallel.x.size());
  for (std::size_t i = 0; i < serial.x.size(); ++i) {
    EXPECT_EQ(serial.x[i], parallel.x[i]) << "element " << i;
  }
  expectProfilesIdentical(serial.profile, parallel.profile);
}

// Engine::reset() must be invisible too. The first run leaves every kind of
// state behind — tensor contents, profile, clock, fault log, an attached
// fault plan, trace sink, tile profile and cancel check, an excluded tile —
// and stops midway; after reset the engine must run the program exactly as
// a new engine does, on its own host pool and cached plans.
TEST(EngineReset, RunsLikeAFreshEngine) {
  const auto g = matrix::poisson2d5(16, 16);
  const ipu::Topology topo = ipu::Topology::singleIpu(8);
  Context ctx(ipu::IpuTarget::testTarget(topo.tilesPerIpu(), topo.numIpus()));
  DistMatrix A(g.matrix, partition::Partitioner(topo).layout(g));
  Tensor x = A.makeVector(DType::Float32, "x");
  Tensor b = A.makeVector(DType::Float32, "b");
  auto solver = makeSolverFromString(kCgJson);
  solver->apply(A, x, b);
  const std::vector<double> bHost = randomVector(g.matrix.rows(), 42);
  auto solve = [&](graph::Engine& engine) {
    solver->clearHistory();
    A.upload(engine);
    A.writeVector(engine, b, bHost);
    engine.run(ctx.program());
  };

  support::TraceSink trace;
  support::TileProfile tiles;
  ipu::FaultPlan plan = ipu::FaultPlan::fromJsonText(R"({"seed": 11,
      "faults": [{"type": "bitflip", "tensor": "cg_resid", "bit": 30,
                  "count": 2}]})");
  graph::Engine warm(ctx.graph(), 2);
  warm.setFaultPlan(&plan);
  warm.setTraceSink(&trace);
  warm.setTileProfile(&tiles);
  warm.setExcludedTiles({3});
  warm.setCancelCheck([](const graph::Engine& e) -> const char* {
    return e.simCycles() > 50000 ? "cancelled" : nullptr;
  });
  EXPECT_THROW(solve(warm), Error);

  warm.reset();
  EXPECT_EQ(warm.simCycles(), 0.0);
  EXPECT_EQ(warm.profile().totalCycles(), 0.0);
  EXPECT_EQ(warm.profile().computeSupersteps, 0u);
  EXPECT_TRUE(warm.profile().faultEvents.empty());
  EXPECT_EQ(warm.faultPlan(), nullptr);
  EXPECT_EQ(warm.traceSink(), nullptr);
  EXPECT_EQ(warm.tileProfile(), nullptr);
  for (std::size_t t = 0; t < ctx.graph().numTensors(); ++t) {
    const auto id = static_cast<graph::TensorId>(t);
    const graph::TensorStorage& s = warm.storageFor(id);
    for (std::size_t i = 0; i < s.totalElements(); ++i) {
      ASSERT_EQ(s.load(i).toHostDouble(), 0.0)
          << ctx.graph().tensor(id).name << "[" << i << "]";
    }
  }

  solve(warm);
  graph::Engine fresh(ctx.graph(), 2);
  solve(fresh);
  EXPECT_EQ(A.readVector(warm, x), A.readVector(fresh, x));
  EXPECT_EQ(warm.simCycles(), fresh.simCycles());
  expectProfilesIdentical(warm.profile(), fresh.profile());
}

// ---------------------------------------------------------------------------
// Superstep fusion A/B: fusing adjacent compute supersteps into one host
// dispatch must be invisible — same solution bits, same Profile totals — on
// full solver programs, with and without the fallback triggers (fault plan)
// attached. The engine fuses only with a host pool, so every fused side runs
// on at least two host threads.
// ---------------------------------------------------------------------------

TEST(SuperstepFusion, SolveBitIdenticalFusedVsUnfused) {
  auto g = matrix::poisson2d5(24, 24);
  SolveObservables unfused = runSolve(g, 8, kCgJson, 2, nullptr, false);
  SolveObservables fused = runSolve(g, 8, kCgJson, 2, nullptr, true);

  ASSERT_EQ(unfused.x.size(), fused.x.size());
  for (std::size_t i = 0; i < unfused.x.size(); ++i) {
    EXPECT_EQ(unfused.x[i], fused.x[i]) << "element " << i;
  }
  expectProfilesIdentical(unfused.profile, fused.profile);
}

TEST(SuperstepFusion, ParallelFusedMatchesSerialUnfused) {
  // The strongest cross-check: 8 host threads + fusion vs 1 thread without,
  // in one comparison — any schedule dependence in either layer shows up.
  auto g = matrix::poisson2d5(24, 24);
  SolveObservables serial = runSolve(g, 8, kCgJson, 1, nullptr, false);
  SolveObservables parallel = runSolve(g, 8, kCgJson, 8, nullptr, true);

  ASSERT_EQ(serial.x.size(), parallel.x.size());
  for (std::size_t i = 0; i < serial.x.size(); ++i) {
    EXPECT_EQ(serial.x[i], parallel.x[i]) << "element " << i;
  }
  expectProfilesIdentical(serial.profile, parallel.profile);
}

TEST(SuperstepFusion, FaultPlanForcesFallbackAndStaysIdentical) {
  // With a fault plan attached the engine must run fused members as plain
  // supersteps so hooks fire at the exact unfused instants; the observable
  // recovery timeline therefore cannot depend on the fusion setting.
  auto g = matrix::poisson2d5(20, 20);
  auto makePlan = [] {
    return ipu::FaultPlan::fromJsonText(R"({
      "seed": 11,
      "faults": [
        {"type": "stall", "tile": 1, "cycles": 5000, "superstep": 7},
        {"type": "bitflip", "tensor": "cg_resid", "bit": 30, "count": 2,
         "skip": 30}
      ]
    })");
  };
  ipu::FaultPlan planA = makePlan();
  ipu::FaultPlan planB = makePlan();
  SolveObservables unfused = runSolve(g, 8, kCgJson, 1, &planA, false);
  SolveObservables fused = runSolve(g, 8, kCgJson, 8, &planB, true);

  ASSERT_EQ(unfused.x.size(), fused.x.size());
  for (std::size_t i = 0; i < unfused.x.size(); ++i) {
    EXPECT_EQ(unfused.x[i], fused.x[i]) << "element " << i;
  }
  expectProfilesIdentical(unfused.profile, fused.profile);
  EXPECT_FALSE(fused.profile.faultEvents.empty());
}

TEST(SuperstepFusion, MixedPrecisionFusedVsUnfused) {
  auto g = matrix::poisson2d5(16, 16);
  const char* mpirJson = R"({
    "type": "mpir", "extendedType": "doubleword",
    "maxRefinements": 4, "tolerance": 1e-12,
    "inner": {"type": "cg", "maxIterations": 10, "tolerance": 0}
  })";
  SolveObservables unfused = runSolve(g, 8, mpirJson, 1, nullptr, false);
  SolveObservables fused = runSolve(g, 8, mpirJson, 8, nullptr, true);

  ASSERT_EQ(unfused.x.size(), fused.x.size());
  for (std::size_t i = 0; i < unfused.x.size(); ++i) {
    EXPECT_EQ(unfused.x[i], fused.x[i]) << "element " << i;
  }
  expectProfilesIdentical(unfused.profile, fused.profile);
}

// ---------------------------------------------------------------------------
// support::ThreadPool unit behaviour.
// ---------------------------------------------------------------------------

TEST(HostThreadPool, RunsEveryIndexExactlyOnce) {
  support::ThreadPool pool(4);
  EXPECT_EQ(pool.numThreads(), 4u);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  for (int round = 0; round < 20; ++round) {
    for (auto& h : hits) h.store(0);
    pool.parallelFor(kN, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " round " << round;
    }
  }
}

TEST(HostThreadPool, SingleThreadRunsInline) {
  support::ThreadPool pool(1);
  EXPECT_EQ(pool.numThreads(), 1u);
  std::vector<std::size_t> order;
  pool.parallelFor(5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

// Solves dispatch hundreds of supersteps back to back, and between two of
// them the workers poll instead of parking. Every index of every job must
// run exactly once, and the caller must see each item's writes once
// parallelFor returns: the slots below are plain ints in a vector that dies
// with the iteration, so a worker still inside a returned job is a data
// race (under ThreadSanitizer) or a wrong count.
TEST(HostThreadPool, BackToBackTinyJobsRunEveryIndexOnce) {
  for (std::size_t lanes : {2, 4}) {
    support::ThreadPool pool(lanes);
    for (std::size_t n : {1, 2, 64}) {
      for (int job = 0; job < 3000; ++job) {
        std::vector<int> hits(n, 0);
        pool.parallelFor(n, [&](std::size_t i) { hits[i] += 1; });
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(hits[i], 1) << lanes << " lanes, n " << n << ", job "
                                << job << ", index " << i;
        }
      }
    }
  }
}

// More lanes than the host has cores: the polling threads must yield, or
// the one holding the job up never runs. Mixes tiny jobs with jobs whose
// items outlast the poll, so both the caller and the workers also park and
// are woken.
TEST(HostThreadPool, EightLanesOutnumberTheCores) {
  support::ThreadPool pool(8);
  EXPECT_EQ(pool.numThreads(), 8u);
  for (int job = 0; job < 2000; ++job) {
    const std::size_t n = job % 3 == 0 ? 64 : 9;
    std::vector<int> hits(n, 0);
    pool.parallelFor(n, [&](std::size_t i) { hits[i] += 1; });
    ASSERT_EQ(std::count(hits.begin(), hits.end(), 1),
              static_cast<std::ptrdiff_t>(n))
        << "job " << job;
  }
  for (int job = 0; job < 4; ++job) {
    std::vector<int> hits(16, 0);
    pool.parallelFor(hits.size(), [&](std::size_t i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      hits[i] += 1;
    });
    EXPECT_EQ(std::count(hits.begin(), hits.end(), 1), 16);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));  // park
  }
}

TEST(HostThreadPool, ThrowingJobsLeaveThePoolUsable) {
  support::ThreadPool pool(4);
  for (int round = 0; round < 500; ++round) {
    std::vector<int> hits(32, 0);
    EXPECT_THROW(pool.parallelFor(hits.size(),
                                  [&](std::size_t i) {
                                    hits[i] += 1;
                                    if (i % 5 == static_cast<std::size_t>(
                                                     round % 5)) {
                                      throw std::runtime_error("item failed");
                                    }
                                  }),
                 std::runtime_error);
    // An item that throws does not stop the others: every index ran.
    ASSERT_EQ(std::count(hits.begin(), hits.end(), 1), 32) << round;
    std::vector<int> after(32, 0);
    pool.parallelFor(after.size(), [&](std::size_t i) { after[i] += 1; });
    ASSERT_EQ(std::count(after.begin(), after.end(), 1), 32) << round;
  }
}

// Shutdown must reach workers in either waiting state: still polling right
// after a job, and parked once the poll ran out.
TEST(HostThreadPool, DestroysWhileWorkersSpinOrPark) {
  for (int round = 0; round < 200; ++round) {
    support::ThreadPool pool(4);
    std::vector<int> hits(8, 0);
    pool.parallelFor(hits.size(), [&](std::size_t i) { hits[i] += 1; });
    ASSERT_EQ(std::count(hits.begin(), hits.end(), 1), 8);
  }
  for (int round = 0; round < 5; ++round) {
    support::ThreadPool pool(4);
    std::vector<int> hits(8, 0);
    pool.parallelFor(hits.size(), [&](std::size_t i) { hits[i] += 1; });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_EQ(std::count(hits.begin(), hits.end(), 1), 8);
  }
  support::ThreadPool unused(3);  // destroyed before any job
}

TEST(HostThreadPool, RethrowsFirstItemError) {
  support::ThreadPool pool(3);
  EXPECT_THROW(pool.parallelFor(64,
                                [&](std::size_t i) {
                                  if (i % 7 == 3) {
                                    throw std::runtime_error("item failed");
                                  }
                                }),
               std::runtime_error);
  // The pool must stay usable after an exceptional job.
  std::atomic<int> count{0};
  pool.parallelFor(64, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 64);
}
