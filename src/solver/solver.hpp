// Solver interface (paper §V).
//
// "A key feature is the modular design, which allows for nested solver
// configurations — any solver can serve as a preconditioner for another."
// A Solver emits, via symbolic execution, the program computing
// z ≈ A⁻¹ r from a zero initial guess. Used at the top level it is the
// solve; used inside another solver it is the preconditioner application.
//
// The hierarchy is configured through JSON (§V): see makeSolver().
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "solver/dist_matrix.hpp"
#include "support/json.hpp"

namespace graphene::solver {

/// One host-recorded convergence sample.
struct IterationRecord {
  std::size_t iteration = 0;  // cumulative inner-iteration count
  double residual = 0.0;      // relative residual ‖r‖/‖b‖
};

/// Structured outcome of an iterative solve. Iteration no longer fails
/// silently: numerical breakdown, divergence, and NaN/Inf residuals are
/// first-class, testable outcomes (the design production frameworks such as
/// Ginkgo use for their stopping/breakdown logic).
enum class SolveStatus {
  NotRun,         // apply() emitted, program not executed yet
  Running,        // execution started, no verdict yet
  Converged,      // relative residual reached the tolerance
  MaxIterations,  // iteration budget exhausted (also the tolerance==0 mode)
  Breakdown,      // recurrence collapsed (e.g. BiCGStab rho → 0)
  Diverged,       // residual grew past the divergence threshold
  NanDetected,    // NaN/Inf residual survived every restart attempt
  CorruptionDetected,  // ABFT checksum mismatch survived every recovery try
  // Service-envelope verdicts (SolverService, solver/service.hpp). A solve
  // that never ran or was stopped by the robustness envelope still ends in
  // a first-class, testable outcome — the converge-or-fail-typed invariant
  // extends to serving.
  DeadlineExceeded,    // job ran past its deadline (stopped at a superstep)
  Cancelled,           // cooperative cancellation honoured mid-solve
  AdmissionRejected,   // admission control refused the job (queue/SRAM)
  CircuitOpen,         // matrix fingerprint quarantined after repeat failures
};

inline const char* toString(SolveStatus status) {
  switch (status) {
    case SolveStatus::NotRun: return "not-run";
    case SolveStatus::Running: return "running";
    case SolveStatus::Converged: return "converged";
    case SolveStatus::MaxIterations: return "max-iterations";
    case SolveStatus::Breakdown: return "breakdown";
    case SolveStatus::Diverged: return "diverged";
    case SolveStatus::NanDetected: return "nan-detected";
    case SolveStatus::CorruptionDetected: return "corruption-detected";
    case SolveStatus::DeadlineExceeded: return "deadline-exceeded";
    case SolveStatus::Cancelled: return "cancelled";
    case SolveStatus::AdmissionRejected: return "admission-rejected";
    case SolveStatus::CircuitOpen: return "circuit-open";
  }
  return "unknown";
}

/// Filled in by host callbacks while the emitted program executes; read it
/// after engine.run().
struct SolveResult {
  SolveStatus status = SolveStatus::NotRun;
  std::size_t iterations = 0;   // Krylov iterations, or refinements (MPIR)
  double finalResidual = -1.0;  // last recorded relative residual
  std::size_t restarts = 0;     // automatic restarts taken (Krylov guard)
  std::size_t rollbacks = 0;    // checkpoint rollbacks taken (MPIR)
};

/// Fault-tolerance knobs of the iterative solvers, configured through the
/// JSON "robustness" object. The defaults keep recovery on; setting
/// maxRestarts/maxRollbacks to 0 removes the recovery program steps
/// entirely (the guards that detect and report bad states remain).
struct RobustnessOptions {
  /// CG, pipelined CG and BiCGStab (the Krylov guard,
  /// solver/krylov_guard.hpp): automatic restarts (re-seed from the last
  /// checkpointed iterate) before giving up on a NaN/diverged/broken-down/
  /// stagnated/checksum-flagged state.
  std::size_t maxRestarts = 2;
  /// Relative residual above which the iteration counts as diverged.
  double divergenceFactor = 1e8;
  /// BiCGStab: |rho| <= breakdownTolerance * ‖b‖² flags a breakdown.
  double breakdownTolerance = 1e-30;
  /// CG, pipelined CG and BiCGStab: checkpoint the iterate every N
  /// iterations (0 disables, which also disables restarts — nothing valid
  /// to restart from).
  std::size_t checkpointEvery = 8;
  /// MPIR: rollback retry budget. Each consecutive rollback costs double
  /// the previous one (backoff), so a persistently corrupted refinement
  /// loop exhausts the budget quickly instead of thrashing.
  std::size_t maxRollbacks = 3;
  /// MPIR: a residual that grows by more than this factor (in norm) over
  /// the last good refinement step is treated as corrupted.
  double residualGrowthFactor = 100.0;
  /// ABFT checksum verification of the SpMV and dot-reduction kernels.
  /// Off by default: enabling it appends checksum compute sets to every
  /// SpMV emission, so the disabled path carries zero cost.
  bool abft = false;
  /// Relative checksum defect above which an ABFT check counts as a
  /// mismatch (rounding headroom for the float32 kernels).
  double abftTolerance = 1e-3;
};

/// Parses the optional "robustness" object of a solver config.
RobustnessOptions parseRobustness(const json::Value& config);

class Solver {
 public:
  virtual ~Solver() = default;

  virtual std::string name() const = 0;

  /// Emits one-time preparation (e.g. the (D)ILU factorisation). Idempotent:
  /// composite solvers call this before building loop bodies so setup steps
  /// are scheduled exactly once, outside any loop.
  void ensureSetup(DistMatrix& a) {
    if (!setupDone_) {
      setupDone_ = true;
      setup(a);
    }
  }

  /// Emits the program computing z ≈ A⁻¹ r with zero initial guess.
  /// z and r are float32 vectors with the matrix's owned mapping.
  virtual void apply(DistMatrix& a, Tensor& z, Tensor& r) = 0;

  /// Residual history recorded by host callbacks during execution
  /// (top-level/iterative solvers only; empty for preconditioners).
  /// Guaranteed free of NaN/Inf garbage: non-finite samples are surfaced
  /// through result().status instead of being recorded.
  const std::vector<IterationRecord>& history() const { return *history_; }
  void clearHistory() { history_->clear(); }

  /// Structured outcome of the last execution (iterative solvers; stays
  /// NotRun for pure preconditioners).
  const SolveResult& result() const { return *result_; }

  /// Id of the device tensor holding this solver's best-known iterate while
  /// the emitted program runs — the checkpoint when checkpointing is on,
  /// else the live iterate. The remap layer migrates solver state through
  /// it after a hard fault. kInvalidTensor for solvers with no such state
  /// (preconditioners); valid only after apply() has been emitted.
  virtual graph::TensorId stateTensor() const { return graph::kInvalidTensor; }

  /// The nested solver this one delegates to, or nullptr for leaf solvers.
  /// CG/BiCGStab return their preconditioner, MPIR its inner solver (IR is
  /// preconditioned Richardson, so the inner solve *is* the preconditioner
  /// application). Lets nested configurations be introspected uniformly —
  /// e.g. the trace exporter naming solver rows, or tooling walking a chain
  /// like mpir → bicgstab → ilu.
  virtual Solver* preconditioner() { return nullptr; }

  /// "cg+jacobi", "mpir+bicgstab+ilu": the solver chain, outermost first.
  std::string chainName() {
    std::string s = name();
    for (Solver* p = preconditioner(); p != nullptr;
         p = p->preconditioner()) {
      s += "+" + p->name();
    }
    return s;
  }

 protected:
  virtual void setup(DistMatrix& a) { (void)a; }

  std::shared_ptr<std::vector<IterationRecord>> history_ =
      std::make_shared<std::vector<IterationRecord>>();
  std::shared_ptr<SolveResult> result_ = std::make_shared<SolveResult>();

 private:
  bool setupDone_ = false;
};

/// Builds a (possibly nested) solver from a JSON configuration, e.g.:
///   {
///     "type": "mpir",
///     "extendedType": "doubleword",
///     "maxRefinements": 20, "tolerance": 1e-13,
///     "inner": {
///       "type": "bicgstab", "maxIterations": 100, "tolerance": 0,
///       "preconditioner": {"type": "ilu"}
///     }
///   }
/// Types: cg (add "pipelined": true for pipelined CG), bicgstab, mpir, ir,
/// gauss-seidel, richardson, jacobi, ilu, dilu, identity.
std::unique_ptr<Solver> makeSolver(const json::Value& config);

/// Convenience: parses the JSON text, then builds the solver.
std::unique_ptr<Solver> makeSolverFromString(const std::string& jsonText);

}  // namespace graphene::solver
