// The benchmark's four workloads: fixed request lists generated from a seed.
//
// Every matrix and right-hand side is built here from `seed`; the solver
// stack only ever sees the generated inputs. A workload is bounded by its
// request count (never by wall time): the count is a fixed per-second quota
// times the --seconds argument, so the same (seed, seconds) pair always
// produces the same requests.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "matrix/generators.hpp"
#include "solver/service.hpp"
#include "support/json.hpp"

namespace bench_e2e {

struct Request {
  /// The system's matrix. Requests of one structure share the pointer when
  /// their coefficients are equal too.
  std::shared_ptr<const graphene::matrix::GeneratedMatrix> m;
  std::size_t structure = 0;  // index of the distinct sparsity structure
  std::vector<double> rhs;
  /// Open loop only: when the request is due, in seconds after the start
  /// of the timed phase.
  double dueSeconds = 0;
};

struct Workload {
  std::string name;
  bool openLoop = false;
  graphene::solver::ServiceOptions options;
  graphene::json::Value config;  // solver JSON, shared by every request
  /// Bound on the host double-precision relative residual of an answer.
  double verifyTolerance = 0;
  /// CPU reference, run to the solver's tolerance: BiCGStab with global
  /// ILU(0), else plain CG.
  bool baselineBiCgStab = false;
  /// Untimed requests that build every pipeline the timed phase leases:
  /// one per distinct structure, built `pipelinesPerStructure` times.
  std::vector<Request> setup;
  std::size_t pipelinesPerStructure = 1;
  std::vector<Request> timed;
};

const std::vector<std::string>& workloadNames();

/// Builds workload `name` for `seed`, sized for `seconds` of timed work.
Workload makeWorkload(const std::string& name, std::uint64_t seed,
                      double seconds);

}  // namespace bench_e2e
