// CFD-style pressure solve: the Poisson equation on a 3-D grid, the workload
// class the paper's introduction motivates (pressure correction in finite
// volume solvers).
//
// Demonstrates: SolveSession driving a JSON-configured MPIR + PBiCGStab +
// ILU(0) hierarchy, the refinement history, and the per-category cycle
// summary of the solve's profile.
//
// Usage: ./example_poisson_solve [grid=24] [tiles=32] [--profile out.json]
//   --profile enables tile-level profiling and writes the report as JSON
//   (or self-contained HTML when the path ends in .html); inspect with
//   tools/graphene-prof.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "graphene.hpp"

using namespace graphene;

int main(int argc, char** argv) {
  std::string profilePath;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--profile") == 0 && i + 1 < argc) {
      profilePath = argv[++i];
    } else {
      positional.push_back(argv[i]);
    }
  }
  const std::size_t grid =
      positional.size() > 0 ? std::strtoul(positional[0], nullptr, 10) : 24;
  const std::size_t tiles =
      positional.size() > 1 ? std::strtoul(positional[1], nullptr, 10) : 32;

  std::printf("Poisson %zu^3 pressure solve on %zu simulated tiles\n", grid,
              tiles);
  auto problem = matrix::poisson3d7(grid, grid, grid);
  auto stats = matrix::computeStats(problem.matrix);
  std::printf("matrix: %zu rows, %zu nnz (%.1f nnz/row)\n", stats.rows,
              stats.nnz, stats.avgNnzPerRow);

  solver::SolveSession session({.tiles = tiles});
  session.load(problem).configure(R"({
    "type": "mpir",
    "extendedType": "doubleword",
    "maxRefinements": 12,
    "tolerance": 1e-10,
    "inner": {
      "type": "bicgstab", "maxIterations": 40, "tolerance": 0,
      "preconditioner": {"type": "ilu"}
    }
  })");
  const auto& layout = session.matrix().layout();
  std::printf("halo: %zu separator cells in %zu regions, %zu blockwise "
              "transfers\n",
              layout.numSeparatorCells(), layout.regions.size(),
              layout.transfers.size());
  std::printf("solver: %s\n", session.solver().chainName().c_str());
  if (!profilePath.empty()) session.enableTileProfile();

  // RHS: a localised source/sink pair, as in a channel-flow pressure
  // correction.
  std::vector<double> rhs(session.matrix().rows(), 0.0);
  rhs[0] = 1.0;
  rhs[rhs.size() - 1] = -1.0;
  auto result = session.solve(rhs);

  auto& mpir = dynamic_cast<solver::MpirSolver&>(session.solver());
  const auto& hist = mpir.trueResidualHistory();
  std::printf("\nrefinement history (true residual, double-word):\n");
  for (const auto& rec : hist) {
    std::printf("  inner iteration %4zu : rel residual %.3e\n", rec.iteration,
                rec.residual);
  }

  std::printf("\n%s",
              ipu::profileSummaryTable(session.profile()).render().c_str());
  std::printf("simulated solve time: %.3f ms\n",
              1e3 * result.simulatedSeconds);

  if (!profilePath.empty() && result.tileProfile) {
    std::ofstream out(profilePath);
    if (profilePath.size() > 5 &&
        profilePath.compare(profilePath.size() - 5, 5, ".html") == 0) {
      out << support::tileProfileToHtml(*result.tileProfile);
    } else {
      out << support::tileProfileToJson(*result.tileProfile).dump(2) << "\n";
    }
    std::printf("tile profile written to %s\n", profilePath.c_str());
  }

  return hist.empty() || hist.back().residual > 1e-8 ? 1 : 0;
}
