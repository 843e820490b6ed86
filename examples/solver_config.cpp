// JSON-configured nested solvers (§V): reads a solver hierarchy from a JSON
// file (or uses a built-in default), builds it with the factory, and solves
// a circuit-simulation system with it.
//
// Usage: ./example_solver_config [config.json]
//
// Example config file (examples/configs/ holds an MPIR one, mpir_ilu.json,
// and the end-to-end benchmark's CG + Jacobi, cg_jacobi.json):
//   {
//     "type": "bicgstab", "maxIterations": 300, "tolerance": 1e-8,
//     "preconditioner": {"type": "gauss-seidel", "sweeps": 2}
//   }
//
// Prints the solve's status, iteration (MPIR: refinement) count and final
// relative residual, and exits non-zero unless the solve converged.
#include <cstdio>
#include <fstream>
#include <sstream>

#include "graph/engine.hpp"
#include "matrix/generators.hpp"
#include "partition/partitioner.hpp"
#include "solver/solvers.hpp"
#include "support/rng.hpp"

using namespace graphene;

int main(int argc, char** argv) {
  std::string configText = R"({
    "type": "bicgstab",
    "maxIterations": 300,
    "tolerance": 1e-7,
    "preconditioner": {"type": "dilu"}
  })";
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in.good()) {
      std::fprintf(stderr, "cannot open config '%s'\n", argv[1]);
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    configText = ss.str();
  }

  json::Value config = json::parse(configText);
  std::printf("solver configuration:\n%s\n\n", config.dump(2).c_str());

  const std::size_t tiles = 24;
  auto problem = matrix::g3CircuitLike(6000);
  std::printf("matrix: %s, %zu rows, %zu nnz\n", problem.name.c_str(),
              problem.matrix.rows(), problem.matrix.nnz());

  dsl::Context ctx(ipu::IpuTarget::testTarget(tiles));
  auto layout = partition::Partitioner(ipu::Topology::singleIpu(tiles))
                    .layout(problem);
  solver::DistMatrix A(problem.matrix, std::move(layout));
  dsl::Tensor x = A.makeVector(dsl::DType::Float32, "x");
  dsl::Tensor b = A.makeVector(dsl::DType::Float32, "b");

  auto solver = solver::makeSolver(config);
  solver->apply(A, x, b);

  graph::Engine engine(ctx.graph());
  A.upload(engine);
  Rng rng(7);
  std::vector<double> rhs(problem.matrix.rows());
  for (double& v : rhs) v = rng.uniform(-1.0, 1.0);
  A.writeVector(engine, b, rhs);
  engine.run(ctx.program());

  // The outcome comes from result(): MPIR records its refinements in
  // trueHistory(), so history() may be empty.
  const solver::SolveResult& result = solver->result();
  std::printf("\n%s after %zu %s, final relative residual %.3e "
              "(simulated %.2f ms on %zu tiles)\n",
              solver::toString(result.status), result.iterations,
              solver->name() == "mpir" ? "refinements" : "iterations",
              result.finalResidual, 1e3 * engine.elapsedSeconds(), tiles);
  // Print a sparse convergence trace.
  const auto& hist = solver->history();
  for (std::size_t i = 0; i < hist.size();
       i += std::max<std::size_t>(1, hist.size() / 10)) {
    std::printf("  iter %4zu  rel residual %.3e\n", hist[i].iteration,
                hist[i].residual);
  }
  return result.status == solver::SolveStatus::Converged ? 0 : 1;
}
