// The recovery envelope of the Krylov solvers (CG, pipelined CG, BiCGStab).
//
// One policy hardens all three against numerical faults:
//   - a host guard after every iteration: a NaN/Inf or diverged residual,
//     or an ABFT mismatch (sticky SpMV checksum flag, or a duplicated (r,r)
//     reduction that disagrees), restarts the recurrence from the last
//     checkpointed iterate; once RobustnessOptions::maxRestarts is spent
//     the solve ends with a typed SolveStatus instead;
//   - a checkpoint of the iterate every RobustnessOptions::checkpointEvery
//     iterations;
//   - under ABFT, a post-loop re-measurement of the true residual ‖b − A·x‖
//     that downgrades a silently wrong "converged" x to CorruptionDetected.
// A solver emits its own recurrence and calls the guard at those points; it
// passes only its identity and the one extra check it carries (BiCGStab's
// rho breakdown, pipelined CG's stagnation window). The guard object lives
// only while the program is emitted: every host callback it emits captures
// tensor ids, options and shared state by value.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "solver/solver.hpp"

namespace graphene::solver {

/// Names a guarded solver leaves behind.
struct KrylovIdentity {
  const char* solver;          // trace and fault-log source, e.g. "cg"
  const char* prefix;          // tensor-name prefix: "cg", "pcg", "bicg"
  const char* restartCounter;  // metrics counter bumped per restart
};

/// The solver-specific test the host guard runs besides NaN, divergence and
/// ABFT. At most one of the two is set.
struct KrylovCheck {
  /// BiCGStab: before convergence, |rho| ≤ breakdownTolerance·‖b‖² is a
  /// breakdown. It pre-empts the other tests: restart, else Breakdown.
  graph::TensorId breakdownRho = graph::kInvalidTensor;
  /// Pipelined CG: no halving of the best residual within this many
  /// iterations (still above tolerance, restarts left) restarts the
  /// recurrence; 0 disables.
  std::size_t stagnationWindow = 0;
};

/// The loop state the guard reads and re-seeds. Every tensor outlives the
/// guard.
struct KrylovLoop {
  Tensor& x;                // the iterate
  const Tensor& b;          // right-hand side
  const Tensor& bNormSq;    // ‖b‖²
  const Tensor& resNormSq;  // recurrence ‖r‖², the convergence test
  const Tensor& iter;       // Int32 iteration counter
};

class KrylovGuard {
 public:
  /// Creates the self-healing tensors `<prefix>_ok`, `<prefix>_restart`,
  /// `<prefix>_ckpt` (recovery on) and `<prefix>_rrdup` (ABFT on), in that
  /// order, seeding the checkpoint with the current x.
  KrylovGuard(DistMatrix& a, KrylovLoop loop, KrylovIdentity id,
              const RobustnessOptions& robust, double tolerance,
              std::shared_ptr<std::vector<IterationRecord>> history,
              std::shared_ptr<SolveResult> result, KrylovCheck check = {});

  /// The checkpoint when recovery is on, else the live iterate.
  graph::TensorId stateTensor() const;

  /// Emits the host step that re-arms the result before the loop, and
  /// returns the loop condition: iteration budget, tolerance, and the
  /// guard's abort flag.
  dsl::Expression arm(std::size_t maxIterations);

  /// Emits the restart branch (recovery on): x is re-seeded from the
  /// checkpoint, then `reseed` rebuilds the solver's recurrence state.
  void restartIf(const std::function<void()>& reseed);

  /// Emits the ABFT duplicate of (r,r): an independently emitted reduction
  /// the host guard compares bit-for-bit with the loop's own.
  void duplicateResidual(const Tensor& r);

  /// Emits the end of an iteration: the checkpoint step, then the host
  /// guard.
  void endIteration();

  /// Emits the post-loop verification (ABFT with a tolerance: ‖b − A·x‖
  /// re-measured via `scratch`) and the final verdict.
  void finish(Tensor& scratch);

 private:
  struct Stagnation {
    double bestRel = 1.0;
    std::size_t bestIt = 0;
  };
  /// What the emitted host callbacks read; each copies it.
  struct Host {
    KrylovIdentity id;
    KrylovCheck check;
    RobustnessOptions opts;
    double tolerance = 0.0;
    bool recovery = false;
    graph::TensorId resId, bId, iterId, okId, restartId, abftId, dupId;
    std::shared_ptr<std::vector<IterationRecord>> history;
    std::shared_ptr<SolveResult> result;
    std::shared_ptr<Stagnation> stagnation;

    void checkIteration(graph::Engine& e) const;
  };

  DistMatrix& a_;
  KrylovLoop loop_;
  Tensor ok_;
  Tensor restart_;
  std::optional<Tensor> ckpt_;
  std::optional<Tensor> resDup_;
  Host host_;
};

/// Emits the host step that re-arms `result` (Running, nothing counted)
/// before a solve loop. The history is deliberately not cleared: as an MPIR
/// inner solver the step runs every refinement, and the history's
/// cumulative iteration count is what the refinement records are keyed on.
void emitResultArm(std::shared_ptr<SolveResult> result);

/// Emits the post-loop host step that turns a still-Running result into
/// Converged or MaxIterations from the recurrence residual. With a valid
/// `verId` (‖b − A·x‖²), a converged result whose true residual exceeds 50×
/// the tolerance becomes CorruptionDetected.
void emitFinalVerdict(std::shared_ptr<SolveResult> result,
                      graph::TensorId resId, graph::TensorId bId,
                      graph::TensorId iterId, double tolerance,
                      graph::TensorId verId = graph::kInvalidTensor);

/// Books one ABFT mismatch at `iteration` of `solver`: the mismatch
/// counter, an "abft-mismatch" fault event, and a re-armed checksum flag.
void recordAbftMismatch(graph::Engine& e, const char* solver,
                        std::size_t iteration, graph::TensorId flagId);

}  // namespace graphene::solver
