// Resilience-overhead bench: what fault tolerance costs, in simulated
// cycles and solver iterations.
//
// Three questions, for CG and MPIR through the full SolveSession stack:
//   1. What does ABFT checksum verification cost when nothing goes wrong?
//      (It must be zero when disabled — the clean row is the reference.)
//   2. How do cycles/iterations grow with the transient-fault rate, with
//      ABFT + checkpoint restarts cleaning up behind the flips?
//   3. What does a hard fault cost end to end — watchdog detection,
//      blacklist, repartition over the survivors, migrated resume?
//   4. What do pod-scale faults cost on a 4-chip pod — a whole chip lost
//      mid-solve (topology shrink + migrated resume) and a severed IPU
//      link (traffic re-routed via a surviving chip, detour priced)?
//
// Emits a JSON summary to stdout (saved as BENCH_RESILIENCE.json at the
// repo root) so the recovery-cost trajectory is recorded across PRs. A solve
// that throws a typed error (say, a hard fault with the remap budget spent)
// becomes its row's status — "hard-fault", "link-partitioned" or "error" —
// so the exact gate names the row that moved instead of the bench aborting.
// Run metadata (git rev, date) comes in via `--git-rev` / `--date` argv
// flags — see bench_json.hpp; the bench itself makes no wall-clock calls.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "ipu/exchange.hpp"
#include "ipu/health.hpp"
#include "ipu/topology.hpp"
#include "solver/session.hpp"

namespace {

using namespace graphene;

struct Row {
  std::string solver;
  std::string scenario;
  std::string status;
  double cycles = 0;
  std::size_t iterations = 0;
  std::size_t faultEvents = 0;
  double remaps = 0;
  double abftMismatches = 0;
};

std::string solverJson(const std::string& name, bool abft) {
  const std::string robustness = abft
      ? R"("robustness": {"maxRestarts": 4, "maxRollbacks": 4,
           "checkpointEvery": 8, "abft": true, "abftTolerance": 1e-3})"
      : R"("robustness": {"maxRestarts": 4, "maxRollbacks": 4,
           "checkpointEvery": 8})";
  if (name == "cg") {
    return R"({"type": "cg", "maxIterations": 400, "tolerance": 1e-6, )" +
           robustness + "}";
  }
  return R"({"type": "mpir", "maxRefinements": 20, "tolerance": 1e-9,
             "inner": {"type": "cg", "maxIterations": 30, "tolerance": 0}, )" +
         robustness + "}";
}

/// A seeded plan with `flips` finite bit flips against the SpMV result —
/// the fault class only ABFT can see.
std::string flipPlan(std::size_t flips) {
  return R"({"seed": 21, "faults": [
      {"type": "bitflip", "tensor": "Ap", "bit": 25, "count": )" +
         std::to_string(flips) +
         R"(, "probability": 0.2, "skip": 20},
      {"type": "bitflip", "tensor": "resid", "bit": 25, "count": )" +
         std::to_string(flips) +
         R"(, "probability": 0.2, "skip": 20}]})";
}

Row run(const std::string& solverName, const std::string& scenario,
        const matrix::GeneratedMatrix& g, bool abft, const char* planJson,
        const ipu::Topology* topology = nullptr) {
  solver::SessionOptions opts{.tiles = 8, .maxRemaps = 2};
  if (topology != nullptr) opts.topology = *topology;
  solver::SolveSession session(opts);
  session.load(g).configure(solverJson(solverName, abft));
  if (planJson != nullptr) session.withFaultPlan(json::parse(planJson));
  std::vector<double> rhs = bench::randomRhs(g.matrix.rows(), 7);

  Row r;
  r.solver = solverName;
  r.scenario = scenario;
  try {
    auto result = session.solve(rhs);
    r.status = solver::toString(result.solve.status);
    r.iterations = result.solve.iterations;
  } catch (const ipu::HardFaultError&) {
    r.status = "hard-fault";
  } catch (const ipu::LinkPartitionedError&) {
    r.status = "link-partitioned";
  } catch (const Error&) {
    r.status = "error";
  }
  r.cycles = session.profile().totalCycles();
  r.faultEvents = session.profile().faultEvents.size();
  r.remaps = session.profile().metrics.counter("resilience.remaps");
  r.abftMismatches =
      session.profile().metrics.counter("resilience.abft.mismatches");
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const auto g = matrix::poisson2d5(24, 24);
  std::vector<Row> rows;

  for (const char* solverName : {"cg", "mpir"}) {
    // Reference and the zero-fault ABFT overhead.
    rows.push_back(run(solverName, "clean", g, false, nullptr));
    rows.push_back(run(solverName, "abft-clean", g, true, nullptr));
    // Transient-fault-rate sweep, recovery machinery fully armed.
    for (std::size_t flips : {1, 2, 4}) {
      rows.push_back(run(solverName, "flips-" + std::to_string(flips), g,
                         true, flipPlan(flips).c_str()));
    }
    // Hard fault: one tile dies mid-solve, the session remaps around it.
    rows.push_back(run(solverName, "tile-dead", g, true,
                       R"({"seed": 21, "faults": [
                           {"type": "tile-dead", "tile": 3,
                            "superstep": 40}]})"));
  }

  // Pod-scale hard faults on a 4-chip pod (same 32 simulated tiles the
  // service CI job uses). `pod-clean` is the reference: `pod-chip-dead`
  // prices the whole escalation ladder (watchdog → ipu-dead verdict →
  // topology shrink to 3 chips → migrated resume), `pod-link-dead` prices
  // the two-hop relay detour of a severed inter-chip link.
  const ipu::Topology pod = ipu::Topology::pod(4, 8);
  for (const char* solverName : {"cg", "mpir"}) {
    rows.push_back(run(solverName, "pod-clean", g, false, nullptr, &pod));
    rows.push_back(run(solverName, "pod-chip-dead", g, false,
                       R"({"seed": 21, "faults": [
                           {"type": "ipu-dead", "ipu": 1,
                            "superstep": 40}]})",
                       &pod));
    rows.push_back(run(solverName, "pod-link-dead", g, false,
                       R"({"seed": 21, "faults": [
                           {"type": "ipu-link-dead", "from": 0, "to": 1,
                            "superstep": 0}]})",
                       &pod));
  }

  bench::BenchMeta meta = bench::parseBenchMeta(argc, argv);
  meta.tiles = 8;
  meta.hostThreads = 1;
  bench::BenchReport report("resilience", meta);
  report.setField("matrix", g.name);
  report.setField("rows", g.matrix.rows());

  double cleanCycles = 0;
  for (const Row& r : rows) {
    // Pod rows normalise against the pod's own healthy run, not the
    // single-chip clean row — the ratio isolates the fault's cost.
    if (r.scenario == "clean" || r.scenario == "pod-clean") {
      cleanCycles = r.cycles;
    }
    json::Object row;
    row["solver"] = r.solver;
    row["scenario"] = r.scenario;
    row["status"] = r.status;
    row["cycles"] = r.cycles;
    row["cyclesVsClean"] = cleanCycles > 0 ? r.cycles / cleanCycles : 0.0;
    row["iterations"] = r.iterations;
    row["faultEvents"] = r.faultEvents;
    row["remaps"] = r.remaps;
    row["abftMismatches"] = r.abftMismatches;
    report.addResult(std::move(row));
  }
  std::printf("%s\n", report.dump().c_str());
  return 0;
}
