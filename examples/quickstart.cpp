// Quickstart: solve a sparse system in three calls.
//
// SolveSession is the one-stop API: load() partitions the matrix over the
// simulated IPU's tiles and builds the device structures, configure() builds
// the (possibly nested) solver from JSON, solve() runs it and hands back the
// solution, the convergence history and a full execution trace.
//
// Build & run:  ./example_quickstart [--trace out.json] [--profile out.json]
//                                    [--metrics-text] [--per-cell-halo]
//   --trace writes the merged execution timeline (compute/exchange/sync
//   spans, solver iterations) as Chrome trace_event JSON — load it into
//   chrome://tracing or https://ui.perfetto.dev.
//   --profile enables tile-level profiling and writes the report (per-tile
//   cycles, traffic matrix, SRAM) as JSON — or as a self-contained HTML
//   page when the path ends in .html. Inspect with tools/graphene-prof.
//   --metrics-text prints the run's metric counters/gauges in Prometheus
//   text exposition format.
//   --per-cell-halo emits one halo transfer per separator cell instead of
//   the blockwise region broadcasts — the pre-reordering baseline of §IV,
//   for A/B profiling against a default run.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "graphene.hpp"

using namespace graphene;

int main(int argc, char** argv) {
  std::string tracePath;
  std::string profilePath;
  bool metricsText = false;
  bool perCellHalo = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      tracePath = argv[++i];
    } else if (std::strcmp(argv[i], "--profile") == 0 && i + 1 < argc) {
      profilePath = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-text") == 0) {
      metricsText = true;
    } else if (std::strcmp(argv[i], "--per-cell-halo") == 0) {
      perCellHalo = true;
    }
  }

  // A 2-D Poisson problem distributed over 16 simulated tiles, solved with
  // ILU(0)-preconditioned CG.
  solver::SolveSession session({.tiles = 16, .perCellHalo = perCellHalo});
  session.load(matrix::poisson2d5(48, 48))
      .configure(R"({
        "type": "cg",
        "tolerance": 1e-6,
        "maxIterations": 300,
        "preconditioner": {"type": "ilu"}
      })");
  if (!profilePath.empty()) session.enableTileProfile();

  std::vector<double> rhs(session.matrix().rows(), 1.0);
  auto result = session.solve(rhs);

  std::printf("solver       = %s\n", session.solver().chainName().c_str());
  std::printf("status       = %s\n", toString(result.solve.status));
  std::printf("iterations   = %zu (rel residual %.3e)\n",
              result.solve.iterations, result.solve.finalResidual);
  std::printf("time on IPU  = %.3f ms (simulated)\n",
              1e3 * result.simulatedSeconds);

  // The solve's cycle profile, per compute category (the paper's Table IV
  // granularity); the trace holds the same supersteps as a timeline.
  std::printf("\n%s",
              ipu::profileSummaryTable(session.profile()).render().c_str());

  if (metricsText) {
    std::printf("\n%s", support::metricsToPrometheusText(
                            session.profile().metrics)
                            .c_str());
  }

  if (!tracePath.empty()) {
    std::ofstream out(tracePath);
    out << session.traceChromeJson().dump(2) << "\n";
    std::printf("\ntrace written to %s (%zu events)\n", tracePath.c_str(),
                session.trace().events().size());
  }
  if (!profilePath.empty() && result.tileProfile) {
    std::ofstream out(profilePath);
    if (profilePath.size() > 5 &&
        profilePath.compare(profilePath.size() - 5, 5, ".html") == 0) {
      out << support::tileProfileToHtml(*result.tileProfile);
    } else {
      out << support::tileProfileToJson(*result.tileProfile).dump(2) << "\n";
    }
    std::printf("\ntile profile written to %s\n", profilePath.c_str());
  }
  return result.solve.status == solver::SolveStatus::Converged ? 0 : 1;
}
