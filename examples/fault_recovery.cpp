// Fault injection and solver self-healing on the simulated IPU.
//
// Attaches a seeded, JSON-configured fault plan to the engine and solves the
// same MPIR system clean and under fire: one corrupted extended-precision
// residual halo exchange (refinement step 2) plus one corrupted float32 halo
// transfer in the middle of an inner BiCGStab solve. The solvers' guards
// detect the damage — MPIR rolls back to the last good iterate and
// re-refines, the inner solver re-seeds from its checkpoint — and the solve
// still converges. The full fault/repair timeline lands in the profile's
// structured fault log, printed at the end.
//
// A third scenario goes beyond transient damage: a tile dies permanently in
// the middle of a CG solve. The superstep watchdog confirms the death,
// SolveSession blacklists the tile, repartitions the matrix over the
// survivors, migrates the iterate and resumes on the shrunken machine — the
// whole blacklist/remap/resume ladder appears in the fault log.
//
// Usage: ./example_fault_recovery [rows=1200] [tiles=8] [--trace file.json]
//   --trace writes the hard-fault scenario's timeline (compute supersteps,
//   exchanges, injected faults, recovery actions) as Chrome trace JSON —
//   load it in chrome://tracing or Perfetto.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "graph/engine.hpp"
#include "ipu/fault.hpp"
#include "matrix/generators.hpp"
#include "partition/partitioner.hpp"
#include "solver/session.hpp"
#include "solver/solvers.hpp"
#include "support/rng.hpp"
#include "support/trace.hpp"

using namespace graphene;

namespace {

constexpr const char* kSolverJson =
    R"({"type":"mpir","extendedType":"doubleword",
        "maxRefinements":20,"tolerance":1e-11,
        "inner":{"type":"bicgstab","maxIterations":30,"tolerance":0,
                 "preconditioner":{"type":"ilu"}}})";

struct Outcome {
  solver::SolveResult result;
  ipu::Profile profile;
  // Discovered on the clean run: the extended-precision residual halo tensor
  // and how many point-to-point transfers one halo exchange performs. A
  // fault plan can use these to pin a corruption to one specific exchange.
  std::string extHaloName;
  std::size_t transfersPerExchange = 0;
};

Outcome solveWith(const matrix::GeneratedMatrix& problem, std::size_t tiles,
                  ipu::FaultPlan* plan) {
  dsl::Context ctx(ipu::IpuTarget::testTarget(tiles));
  auto layout = partition::Partitioner(ipu::Topology::singleIpu(tiles))
                    .layout(problem);
  const std::size_t perExchange = layout.transfers.size();
  solver::DistMatrix A(problem.matrix, std::move(layout));
  dsl::Tensor x = A.makeVector(dsl::DType::Float32, "x");
  dsl::Tensor b = A.makeVector(dsl::DType::Float32, "b");
  auto solver = solver::makeSolverFromString(kSolverJson);
  solver->apply(A, x, b);

  graph::Engine engine(ctx.graph());
  if (plan != nullptr) {
    plan->reset();
    engine.setFaultPlan(plan);
  }
  A.upload(engine);
  Rng rng(2024);
  std::vector<double> rhs(problem.matrix.rows());
  for (double& v : rhs) {
    v = static_cast<double>(static_cast<float>(rng.uniform(-1.0, 1.0)));
  }
  A.writeVector(engine, b, rhs);
  engine.run(ctx.program());

  Outcome out;
  out.result = solver->result();
  out.profile = engine.profile();
  out.transfersPerExchange = perExchange;
  for (std::size_t i = 0; i < ctx.graph().numTensors(); ++i) {
    const auto& info = ctx.graph().tensor(static_cast<graph::TensorId>(i));
    if (info.dtype == dsl::DType::DoubleWord &&
        info.name.rfind("halo", 0) == 0) {
      out.extHaloName = info.name;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string tracePath;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      tracePath = argv[++i];
    } else {
      positional.push_back(argv[i]);
    }
  }
  const std::size_t rows =
      positional.size() > 0 ? std::strtoul(positional[0], nullptr, 10) : 1200;
  const std::size_t tiles =
      positional.size() > 1 ? std::strtoul(positional[1], nullptr, 10) : 8;
  auto problem = matrix::g3CircuitLike(rows);
  std::printf("matrix: %s, %zu rows, %zu nnz, %zu simulated tiles\n\n",
              problem.name.c_str(), problem.matrix.rows(),
              problem.matrix.nnz(), tiles);

  Outcome clean = solveWith(problem, tiles, nullptr);

  // The fault plan, built from what the clean run told us about the program:
  //  - one flipped bit in the DoubleWord residual halo of refinement step 2
  //    (skip = 2 exchanges' worth of transfers into that tensor's traffic);
  //  - one corrupted float32 halo transfer deep inside an inner BiCGStab
  //    solve. Everything is seeded: rerunning this binary reproduces the
  //    exact same fault sequence, byte for byte.
  std::string planJson = R"({
    "seed": 42,
    "faults": [
      {"type": "exchange-corrupt", "tensor": ")" +
                         clean.extHaloName + R"(", "bit": 30,
       "skip": )" + std::to_string(2 * clean.transfersPerExchange) +
                         R"(, "count": 1},
      {"type": "exchange-corrupt", "tensor": "halo", "bit": 30,
       "skip": 10000, "count": 1}
    ]
  })";
  ipu::FaultPlan plan = ipu::FaultPlan::fromJsonText(planJson);
  Outcome faulted = solveWith(problem, tiles, &plan);

  std::printf("%-18s %-16s %14s %10s %10s\n", "run", "status",
              "rel. residual", "restarts", "rollbacks");
  std::printf("%-18s %-16s %14.3e %10zu %10zu\n", "clean",
              solver::toString(clean.result.status), clean.result.finalResidual,
              clean.result.restarts, clean.result.rollbacks);
  std::printf("%-18s %-16s %14.3e %10zu %10zu\n", "under faults",
              solver::toString(faulted.result.status),
              faulted.result.finalResidual, faulted.result.restarts,
              faulted.result.rollbacks);

  std::printf("\nfault log (%zu events):\n%s",
              faulted.profile.faultEvents.size(),
              ipu::formatFaultEvents(faulted.profile.faultEvents).c_str());
  std::printf(
      "\nEvery injected fault and every recovery action appears above in"
      "\nexecution order; with the same seed the log is reproduced exactly.\n");

  // Scenario 3: a permanent hard fault. Tile 2 dies at superstep 40 of a CG
  // solve; the watchdog confirms it, the session blacklists the tile,
  // repartitions over the survivors and resumes from the migrated iterate.
  std::printf("\n=== hard fault: tile 2 dies mid-solve ===\n");
  auto poisson = matrix::poisson2d5(24, 24);
  solver::SolveSession session({.tiles = tiles});
  session.load(poisson)
      .configure(R"({"type": "cg", "maxIterations": 400, "tolerance": 1e-6,
                     "robustness": {"maxRestarts": 2, "checkpointEvery": 8}})")
      .withFaultPlan(json::parse(R"({
        "seed": 7,
        "faults": [{"type": "tile-dead", "tile": 2, "superstep": 40}]
      })"));
  std::vector<double> rhs(poisson.matrix.rows(), 1.0);
  auto recovered = session.solve(rhs);

  std::printf("status: %s after %zu iterations (rel. residual %.3e)\n",
              solver::toString(recovered.solve.status),
              recovered.solve.iterations, recovered.solve.finalResidual);
  std::printf("blacklisted tiles:");
  for (std::size_t t : session.blacklistedTiles()) std::printf(" %zu", t);
  std::printf("  (remaps: %.0f)\n",
              session.profile().metrics.counter("resilience.remaps"));
  std::printf("\nfault log (%zu events):\n%s",
              session.profile().faultEvents.size(),
              ipu::formatFaultEvents(session.profile().faultEvents).c_str());
  std::printf(
      "\nThe death, its detection (watchdog-trip, health:tile-dead) and the"
      "\nrecovery (recovery:blacklist, recovery:remap) are one ordered"
      "\ntimeline; the solve finishes on the surviving tiles.\n");

  if (!tracePath.empty()) {
    std::ofstream out(tracePath);
    out << support::traceToChromeJson(session.trace()).dump(2) << "\n";
    std::size_t recoveries = 0;
    for (const auto& ev : session.trace().events()) {
      recoveries += ev.kind == support::TraceKind::Recovery ? 1 : 0;
    }
    std::printf("\ntrace timeline written to %s (%zu recovery events)\n",
                tracePath.c_str(), recoveries);
  }
  return 0;
}
