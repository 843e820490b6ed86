// Request lists of the four workloads. README.md records why each workload
// exists and which layer it stresses.
#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "ipu/topology.hpp"
#include "support/rng.hpp"

namespace bench_e2e {

namespace matrix = graphene::matrix;
namespace json = graphene::json;
using graphene::Rng;

namespace {

// Latency p90 needs at least ten samples beyond it.
constexpr std::size_t kMinTimedRequests = 100;

// Timed requests per second of --seconds, sized so that each timed phase
// takes about --seconds on a 4-core x86-64 host.
constexpr double kTimestepPerSecond = 30;
constexpr double kColdSweepPerSecond = 110;
constexpr double kOpenRatePerSecond = 15;  // the open loop's offered load
constexpr double kPodPerSecond = 12;

/// max(kMinTimedRequests, perSecond × seconds), rounded up to a multiple of
/// `cycle` so every structure of a cycle gets the same share.
std::size_t timedCount(double perSecond, double seconds,
                       std::size_t cycle = 1) {
  const std::size_t n =
      std::max(kMinTimedRequests,
               static_cast<std::size_t>(std::ceil(perSecond * seconds)));
  return (n + cycle - 1) / cycle * cycle;
}

void shuffle(std::vector<std::size_t>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.nextBelow(i)]);
  }
}

/// `base` with shift·(1 + spread·u) added to every diagonal entry, u uniform
/// in [-1, 1): a seeded reaction term. Every generator used here is
/// symmetric and weakly diagonally dominant, so the result is SPD.
std::shared_ptr<const matrix::GeneratedMatrix> shiftDiagonal(
    const matrix::GeneratedMatrix& base, Rng& rng, double shift,
    double spread) {
  auto g = std::make_shared<matrix::GeneratedMatrix>(base);
  const auto rowPtr = g->matrix.rowPtr();
  const auto col = g->matrix.colIdx();
  const auto val = g->matrix.values();
  for (std::size_t r = 0; r < g->matrix.rows(); ++r) {
    for (std::size_t k = rowPtr[r]; k < rowPtr[r + 1]; ++k) {
      if (static_cast<std::size_t>(col[k]) == r) {
        val[k] += shift * (1.0 + spread * rng.uniform(-1.0, 1.0));
      }
    }
  }
  return g;
}

/// A request on `m` with a seeded right-hand side.
Request request(std::shared_ptr<const matrix::GeneratedMatrix> m,
                std::size_t structure, Rng& rng) {
  Request q;
  q.rhs.resize(m->matrix.rows());
  for (double& v : q.rhs) v = rng.uniform(-1.0, 1.0);
  q.m = std::move(m);
  q.structure = structure;
  return q;
}

json::Value cgJacobi(double tolerance) {
  json::Object jacobi;
  jacobi["type"] = "jacobi";
  json::Object cg;
  cg["type"] = "cg";
  cg["tolerance"] = tolerance;
  cg["maxIterations"] = 2000;
  cg["preconditioner"] = json::Value(jacobi);
  return json::Value(cg);
}

// The CUP2D pressure-projection loop: one mesh; every step brings new
// coefficients and a new right-hand side but never a new sparsity
// structure, so every request is a warm lease plus a value update. Two host
// threads per engine: with one, run-to-run latency on a shared host moved
// by up to 1.6x for the same seed.
Workload timestep(std::uint64_t seed, double seconds) {
  Workload w;
  w.name = "timestep";
  w.options.workers = 1;
  w.options.hostThreads = 2;
  w.config = cgJacobi(1e-6);
  w.verifyTolerance = 1e-5;
  Rng rng(seed);
  const matrix::GeneratedMatrix mesh = matrix::poisson2d5(40, 40);
  w.setup.push_back(request(shiftDiagonal(mesh, rng, 0.05, 0.5), 0, rng));
  const std::size_t n = timedCount(kTimestepPerSecond, seconds);
  for (std::size_t i = 0; i < n; ++i) {
    w.timed.push_back(request(shiftDiagonal(mesh, rng, 0.05, 0.5), 0, rng));
  }
  return w;
}

// Distinct structures, each solved to a loose tolerance. There are more of
// them than the plan cache holds and they are visited in a fixed cycle, so
// LRU eviction makes every request a cold build. The structures themselves
// are fixed (the seed picks values, right-hand sides and the visiting
// order), so every run times the same build work.
Workload coldSweep(std::uint64_t seed, double seconds) {
  Workload w;
  w.name = "cold-sweep";
  w.options.workers = 1;
  w.options.hostThreads = 1;
  w.config = cgJacobi(1e-3);
  w.verifyTolerance = 1e-2;
  std::vector<matrix::GeneratedMatrix> structures = {
      matrix::poisson2d5(12, 12),  matrix::poisson2d5(16, 12),
      matrix::poisson2d5(20, 14),  matrix::poisson2d5(24, 16),
      matrix::poisson3d7(5, 5, 5), matrix::poisson3d7(6, 6, 5),
      matrix::poisson3d7(7, 6, 6), matrix::poisson3d7(8, 7, 6)};
  std::uint64_t graphSeed = 0;
  for (std::size_t rows : {300, 450, 600, 800}) {
    matrix::GeneratedMatrix g = matrix::g3CircuitLike(rows, ++graphSeed);
    g.nx = g.ny = g.nz = 0;  // no geometry hints: the BFS partitioner
    structures.push_back(std::move(g));
  }
  if (structures.size() <= w.options.planCacheCapacity) {
    throw std::logic_error(
        "cold-sweep needs more structures than the plan cache holds");
  }
  Rng rng(seed);
  std::vector<std::size_t> cycle(structures.size());
  for (std::size_t s = 0; s < cycle.size(); ++s) cycle[s] = s;
  shuffle(cycle, rng);
  // Set-up solves each structure once, in cycle order: the cache then holds
  // the cycle's last eight, and the timed phase starts on an evicted one.
  for (std::size_t s : cycle) {
    w.setup.push_back(
        request(shiftDiagonal(structures[s], rng, 0.05, 0.5), s, rng));
  }
  const std::size_t n =
      timedCount(kColdSweepPerSecond, seconds, structures.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t s = cycle[i % cycle.size()];
    w.timed.push_back(
        request(shiftDiagonal(structures[s], rng, 0.05, 0.5), s, rng));
  }
  return w;
}

// Small warm solves arriving as an open loop: seeded Poisson arrivals at a
// fixed rate far below what two workers serve, spread evenly over three
// structures with fixed coefficients. Set-up builds a pipeline per worker
// and structure, so no timed request builds.
Workload serviceOpen(std::uint64_t seed, double seconds) {
  Workload w;
  w.name = "service-open";
  w.openLoop = true;
  w.options.workers = 2;
  w.options.hostThreads = 1;
  w.pipelinesPerStructure = w.options.workers;
  w.config = cgJacobi(1e-6);
  w.verifyTolerance = 1e-5;
  Rng rng(seed);
  const matrix::GeneratedMatrix bases[] = {matrix::poisson2d5(24, 24),
                                           matrix::poisson2d5(32, 20),
                                           matrix::poisson3d7(8, 8, 8)};
  std::vector<std::shared_ptr<const matrix::GeneratedMatrix>> systems;
  for (const matrix::GeneratedMatrix& base : bases) {
    systems.push_back(shiftDiagonal(base, rng, 0.05, 0.5));
    w.setup.push_back(request(systems.back(), systems.size() - 1, rng));
  }
  const std::size_t n =
      timedCount(kOpenRatePerSecond, seconds, systems.size());
  // Results are collected after the last arrival, so the service must
  // still hold every one of them.
  if (n > w.options.maxRetainedResults) {
    throw std::invalid_argument("--seconds is too large for the open loop");
  }
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i % systems.size();
  shuffle(order, rng);
  // Exponential gaps, rescaled so the schedule spans exactly (n - 1) / rate
  // seconds whatever the seed: every run offers the same load.
  std::vector<double> gaps(n, 0.0);
  double total = 0;
  for (std::size_t i = 1; i < n; ++i) {
    gaps[i] = -std::log(1.0 - rng.nextDouble());
    total += gaps[i];
  }
  const double scale =
      static_cast<double>(n - 1) / kOpenRatePerSecond / total;
  double due = 0;
  for (std::size_t i = 0; i < n; ++i) {
    due += gaps[i] * scale;
    Request q = request(systems[order[i]], order[i], rng);
    q.dueSeconds = due;
    w.timed.push_back(std::move(q));
  }
  return w;
}

// MPIR with double-word refinement over ILU(0)-preconditioned BiCGStab on a
// 4-chip pod with two host threads per engine: one matrix, a new right-hand
// side per request.
Workload mpirIluPod(std::uint64_t seed, double seconds) {
  Workload w;
  w.name = "mpir-ilu-pod";
  w.options.workers = 1;
  w.options.hostThreads = 2;
  w.options.topology = graphene::ipu::Topology::pod(4, 8);
  w.config = json::parse(R"({"type": "mpir", "extendedType": "doubleword",
      "maxRefinements": 30, "tolerance": 1e-10,
      "inner": {"type": "bicgstab", "maxIterations": 8, "tolerance": 0,
                "preconditioner": {"type": "ilu"}}})");
  // The answer is the float32 rounding of the double-word iterate, so its
  // host residual sits at float32 precision.
  w.verifyTolerance = 1e-5;
  w.baselineBiCgStab = true;
  Rng rng(seed);
  const auto system =
      shiftDiagonal(matrix::poisson3d7(8, 8, 8), rng, 0.05, 0.5);
  w.setup.push_back(request(system, 0, rng));
  const std::size_t n = timedCount(kPodPerSecond, seconds);
  for (std::size_t i = 0; i < n; ++i) {
    w.timed.push_back(request(system, 0, rng));
  }
  return w;
}

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {
      "timestep", "cold-sweep", "service-open", "mpir-ilu-pod"};
  return names;
}

Workload makeWorkload(const std::string& name, std::uint64_t seed,
                      double seconds) {
  if (name == "timestep") return timestep(seed, seconds);
  if (name == "cold-sweep") return coldSweep(seed, seconds);
  if (name == "service-open") return serviceOpen(seed, seconds);
  if (name == "mpir-ilu-pod") return mpirIluPod(seed, seconds);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace bench_e2e
