// Concrete solvers and preconditioners of the suite (§V).
#pragma once

#include <memory>

#include "graph/graph.hpp"
#include "solver/solver.hpp"

namespace graphene::solver {

/// z = r. The "no preconditioner" element.
class IdentitySolver final : public Solver {
 public:
  std::string name() const override { return "identity"; }
  void apply(DistMatrix& a, Tensor& z, Tensor& r) override;
};

/// Damped Jacobi: z ← z + ω D⁻¹ (r − A z), `iterations` times, starting
/// from z = 0. The first sweep is taken in closed form, z = ω D⁻¹ r, since
/// A·0 = 0: k sweeps cost k − 1 halo exchanges and SpMVs, each followed by
/// one fused update.
class JacobiSolver final : public Solver {
 public:
  explicit JacobiSolver(std::size_t iterations = 3, float omega = 1.0f)
      : iterations_(iterations), omega_(omega) {}
  std::string name() const override { return "jacobi"; }
  void apply(DistMatrix& a, Tensor& z, Tensor& r) override;

 private:
  std::size_t iterations_;
  float omega_;
};

/// Gauss-Seidel (§V-D), parallelised per tile with Level-Set Scheduling
/// across the six workers; tile couplings use the last exchanged halo
/// (hybrid GS/block-Jacobi, the standard distributed formulation).
///
/// With tolerance == 0 it runs a fixed number of sweeps (smoother /
/// preconditioner mode); with tolerance > 0 it iterates until the relative
/// residual falls below it (standalone solver mode).
class GaussSeidelSolver final : public Solver {
 public:
  GaussSeidelSolver(std::size_t sweeps, double tolerance = 0.0,
                    std::size_t maxIterations = 1000)
      : sweeps_(sweeps), tolerance_(tolerance), maxIterations_(maxIterations) {}
  std::string name() const override { return "gauss-seidel"; }
  void apply(DistMatrix& a, Tensor& z, Tensor& r) override;

 protected:
  void setup(DistMatrix& a) override;

 private:
  void emitSweep(DistMatrix& a, Tensor& z, Tensor& r);

  std::size_t sweeps_;
  double tolerance_;
  std::size_t maxIterations_;
  std::optional<Tensor> lvlOrder_, lvlPtr_;
  std::vector<std::int32_t> lvlOrderHost_, lvlPtrHost_;
};

/// ILU(0) and DILU preconditioners (§V-E). The factorisation runs on the
/// device, parallelised with Level-Set Scheduling, and keeps the original
/// sparsity pattern restricted to each tile's owned block (halo couplings
/// are disregarded — block-Jacobi ILU, whose effect on preconditioner
/// quality the paper discusses in §VI-D).
class IluSolver final : public Solver {
 public:
  enum class Variant { Ilu0, Dilu };
  explicit IluSolver(Variant variant = Variant::Ilu0) : variant_(variant) {}
  std::string name() const override {
    return variant_ == Variant::Ilu0 ? "ilu" : "dilu";
  }
  void apply(DistMatrix& a, Tensor& z, Tensor& r) override;

 protected:
  void setup(DistMatrix& a) override;

 private:
  Variant variant_;
  // Filtered per-tile structure (owned columns only, diagonal included).
  std::optional<Tensor> fVal_, fCol_, fRowPtr_, diagIdx_;
  std::optional<Tensor> fwdOrder_, fwdPtr_, bwdOrder_, bwdPtr_;
  std::optional<Tensor> scratchY_;
  std::optional<Tensor> mirrorVal_;  // DILU: value of the transposed entry
  std::optional<Tensor> dtilde_;     // DILU: modified diagonal
};

/// Richardson iteration: z ← z + ω (r − A z), `iterations` times, starting
/// from z = 0; the first sweep is taken in closed form, z = ω r. The
/// simplest stationary solver; mostly useful to sanity-check
/// preconditioner-free configurations and as a didactic smoother.
class RichardsonSolver final : public Solver {
 public:
  explicit RichardsonSolver(std::size_t iterations = 10, float omega = 0.5f)
      : iterations_(iterations), omega_(omega) {}
  std::string name() const override { return "richardson"; }
  void apply(DistMatrix& a, Tensor& z, Tensor& r) override;

 private:
  std::size_t iterations_;
  float omega_;
};

/// Preconditioned Conjugate Gradient for SPD systems — the paper's Table II
/// matrices are all symmetric positive definite, making PCG the natural
/// companion to PBiCGStab in the solver suite (it does one SpMV and one
/// preconditioner apply per iteration instead of two each). Two global
/// reductions per iteration: (p, Ap), and (r, z) jointly with (r, r)
/// (dsl::ReduceMany, bit-identical to separate dots).
class CgSolver final : public Solver {
 public:
  CgSolver(std::size_t maxIterations, double tolerance,
           std::unique_ptr<Solver> preconditioner,
           RobustnessOptions robustness = {})
      : maxIterations_(maxIterations), tolerance_(tolerance),
        precond_(std::move(preconditioner)), robust_(robustness) {}
  std::string name() const override { return "cg"; }
  void apply(DistMatrix& a, Tensor& z, Tensor& r) override;
  Solver* preconditioner() override { return precond_.get(); }
  graph::TensorId stateTensor() const override { return stateId_; }

 private:
  std::size_t maxIterations_;
  double tolerance_;
  std::unique_ptr<Solver> precond_;
  RobustnessOptions robust_;
  graph::TensorId stateId_ = graph::kInvalidTensor;
};

/// Pipelined Preconditioned Conjugate Gradient (Ghysels & Vanroose).
/// Numerically equivalent to PCG (same Krylov space, iterate recurrences
/// rearranged), but all three inner products of an iteration are merged into
/// ONE joint global reduction (dsl::ReduceMany), and the preconditioner
/// apply + SpMV of the next iteration are emitted inside the reduction's
/// latency-hiding window. Per iteration that is one reduction
/// gather/broadcast instead of three — on a pod, O(1) link round-trips per
/// iteration instead of three, which is where strong scaling of small
/// systems goes to die. Runs under the same recovery guard as CgSolver and
/// BiCgStabSolver (solver/krylov_guard.hpp: host residual guard,
/// checkpoint/restart, ABFT duplicate reduction, post-loop verification),
/// plus a 32-iteration stagnation window of its own.
class PipelinedCgSolver final : public Solver {
 public:
  PipelinedCgSolver(
      std::size_t maxIterations, double tolerance,
      std::unique_ptr<Solver> preconditioner,
      RobustnessOptions robustness = {},
      std::size_t residualReplaceEvery = 16)
      : maxIterations_(maxIterations), tolerance_(tolerance),
        precond_(std::move(preconditioner)), robust_(robustness),
        replaceEvery_(residualReplaceEvery) {}
  std::string name() const override { return "pipelined-cg"; }
  void apply(DistMatrix& a, Tensor& z, Tensor& r) override;
  Solver* preconditioner() override { return precond_.get(); }
  graph::TensorId stateTensor() const override { return stateId_; }

 private:
  std::size_t maxIterations_;
  double tolerance_;
  std::unique_ptr<Solver> precond_;
  RobustnessOptions robust_;
  /// Period of the residual-replacement step (Cools et al., SIMAX 2018):
  /// every N iterations the drifting recurrence iterates r, u, w, s, q, z
  /// are recomputed from their definitions (true residual, A p, ...) while
  /// the search direction p is kept. Restores classic CG's attainable
  /// accuracy, which the pipelined recurrences otherwise lose to local
  /// rounding-error amplification. 0 disables.
  std::size_t replaceEvery_;
  graph::TensorId stateId_ = graph::kInvalidTensor;
};

/// Preconditioned BiCGStab (§V-C, van der Vorst), following the paper's
/// Fig. 4 listing. tolerance == 0 runs exactly maxIterations iterations
/// (the inner-solver mode of the MPIR experiments). Three global reductions
/// per iteration instead of the listing's five: (r̂, Ay); (t, t) jointly
/// with (t, s); and the next iteration's rho = (r̂, r) jointly with (r, r)
/// (dsl::ReduceMany, bit-identical to separate dots).
class BiCgStabSolver final : public Solver {
 public:
  BiCgStabSolver(std::size_t maxIterations, double tolerance,
                 std::unique_ptr<Solver> preconditioner,
                 RobustnessOptions robustness = {})
      : maxIterations_(maxIterations), tolerance_(tolerance),
        precond_(std::move(preconditioner)), robust_(robustness) {}
  std::string name() const override { return "bicgstab"; }
  void apply(DistMatrix& a, Tensor& z, Tensor& r) override;
  Solver* preconditioner() override { return precond_.get(); }
  graph::TensorId stateTensor() const override { return stateId_; }

  /// Measurement aid for the convergence figures: every `everyIterations`
  /// the *true* residual b − A·x is computed on the device in double-word
  /// precision and recorded — this is how the paper's non-MPIR curves reveal
  /// their 1e-6 stall even though the float32 recurrence keeps shrinking.
  void enableTrueResidualMonitor(std::size_t everyIterations) {
    monitorEvery_ = everyIterations;
  }
  const std::vector<IterationRecord>& trueResidualHistory() const {
    return *trueHistory_;
  }

 private:
  void emitTrueResidualMonitor(DistMatrix& a, Tensor& x, Tensor& b);

  std::size_t maxIterations_;
  double tolerance_;
  std::unique_ptr<Solver> precond_;
  RobustnessOptions robust_;
  graph::TensorId stateId_ = graph::kInvalidTensor;
  std::size_t monitorEvery_ = 0;
  std::shared_ptr<std::vector<IterationRecord>> trueHistory_ =
      std::make_shared<std::vector<IterationRecord>>();
  std::optional<Tensor> monX_, monB_, monR_, monNormSq_, monBNormSq_,
      monIter_;
};

/// (Mixed-precision) Iterative Refinement (§V-B, Moler / Langou / Buttari):
///   1. r(m) = b − A x(m)      in extended precision
///   2. solve A c = r(m)       in working precision (any inner solver)
///   3. x(m+1) = x(m) + c      in extended precision
/// extendedType selects double-word (DW), emulated float64 (DP) — or
/// Float32, which degenerates to plain IR (the paper's "IR" baseline that
/// fails to improve convergence).
class MpirSolver final : public Solver {
 public:
  MpirSolver(DType extendedType, std::size_t maxRefinements, double tolerance,
             std::unique_ptr<Solver> inner, RobustnessOptions robustness = {})
      : extType_(extendedType), maxRefinements_(maxRefinements),
        tolerance_(tolerance), inner_(std::move(inner)),
        robust_(robustness) {}
  std::string name() const override { return "mpir"; }
  void apply(DistMatrix& a, Tensor& z, Tensor& r) override;
  graph::TensorId stateTensor() const override { return stateId_; }
  Solver* inner() { return inner_.get(); }
  /// IR is preconditioned Richardson in the extended type: the inner solve
  /// plays the preconditioner role in the nested-config introspection.
  Solver* preconditioner() override { return inner_.get(); }

  /// True-residual history: one sample per refinement step, measured in the
  /// extended type (this is what Figures 9/10 plot).
  const std::vector<IterationRecord>& trueResidualHistory() const {
    return *trueHistory_;
  }

  /// The extended-precision solution (valid after execution).
  const std::optional<Tensor>& extendedSolution() const { return xExt_; }

 private:
  DType extType_;
  std::size_t maxRefinements_;
  double tolerance_;
  std::unique_ptr<Solver> inner_;
  RobustnessOptions robust_;
  graph::TensorId stateId_ = graph::kInvalidTensor;
  std::optional<Tensor> xExt_;
  std::shared_ptr<std::vector<IterationRecord>> trueHistory_ =
      std::make_shared<std::vector<IterationRecord>>();
};

}  // namespace graphene::solver
