// (Mixed-Precision) Iterative Refinement (§V-B).
//
// The refinement loop is hardened with checkpoint/rollback: the last good
// extended iterate is kept on the device, and a corrupted residual (NaN/Inf
// or a jump past RobustnessOptions::residualGrowthFactor over the last good
// step) rolls x back and re-refines. Retries are bounded with backoff — each
// consecutive rollback costs double the previous one against a fixed budget,
// so a persistently corrupted loop stops with a typed status instead of
// thrashing.
#include <cmath>

#include "solver/krylov_guard.hpp"
#include "solver/solvers.hpp"
#include "support/trace.hpp"

namespace graphene::solver {

using dsl::Dot;
using dsl::Expression;
using dsl::Tensor;

namespace {

/// Host-side guard state shared between the refinement-loop callbacks.
struct MpirGuardState {
  double lastGoodResidual = -1.0;  // relative norm of the last good step
  std::size_t budgetUsed = 0;      // backoff units consumed so far
  std::size_t nextCost = 1;        // cost of the next rollback (doubles)
};

}  // namespace

void MpirSolver::apply(DistMatrix& a, Tensor& x, Tensor& b) {
  inner_->ensureSetup(a);
  if (robust_.abft) a.enableAbft(robust_.abftTolerance);

  // Extended-precision state (step 1 and 3 operate here).
  Tensor bExt = a.makeVector(extType_, "mpir_b");
  bExt = Expression(b).cast(extType_);
  xExt_ = a.makeVector(extType_, "mpir_x");
  Tensor& xExt = *xExt_;
  {
    // Zero-initialise via a cast of the zeroed working solution.
    x = Expression(0.0f);
    xExt = Expression(x).cast(extType_);
  }
  Tensor rExt = a.makeVector(extType_, "mpir_r");
  Tensor rWork = a.makeVector(DType::Float32, "mpir_rwork");
  Tensor c = a.makeVector(DType::Float32, "mpir_c");

  // ‖b‖² in extended precision for the true relative residual.
  Tensor bNormSq = Tensor(Dot(Expression(bExt), Expression(bExt)));
  Tensor resNormSq = Tensor::scalar(extType_, "mpir_resnormsq");
  resNormSq = Expression(bNormSq);
  Tensor m = Tensor::scalar(DType::Int32, "mpir_m");
  m = Expression(0);

  // Self-healing state: host-controlled abort flag, rollback request flag,
  // and the last good extended iterate (the rollback target).
  Tensor ok = Tensor::scalar(DType::Int32, "mpir_ok");
  ok = Expression(1);
  Tensor rollback = Tensor::scalar(DType::Int32, "mpir_rollback");
  rollback = Expression(0);
  const bool recovery = robust_.maxRollbacks > 0;
  std::optional<Tensor> xGood;
  if (recovery) {
    xGood.emplace(a.makeVector(extType_, "mpir_xgood"));
    *xGood = Expression(xExt);  // x0 = 0 is always a valid rollback point
  }
  stateId_ = recovery ? xGood->id() : xExt.id();

  auto trueHist = trueHistory_;
  auto resPtr = result_;
  auto guard = std::make_shared<MpirGuardState>();
  const RobustnessOptions opts = robust_;
  const double tolerance = tolerance_;
  Solver* innerRaw = inner_.get();
  graph::TensorId resId = resNormSq.id(), bId = bNormSq.id();
  graph::TensorId okId = ok.id(), rollbackId = rollback.id(), mId = m.id();
  graph::TensorId abftId =
      robust_.abft ? a.abftFlagId() : graph::kInvalidTensor;

  dsl::HostCall([resPtr, trueHist, guard](graph::Engine&) {
    *resPtr = SolveResult{};
    resPtr->status = SolveStatus::Running;
    trueHist->clear();
    *guard = MpirGuardState{};
  });

  const double tol2 = tolerance_ * tolerance_;
  Expression keepGoing =
      Expression(m) < static_cast<int>(maxRefinements_) &&
      Expression(resNormSq).cast(DType::Float64) >
          (Expression(bNormSq) * Expression::constant(graph::Scalar(
                                     static_cast<float>(tol2))))
              .cast(DType::Float64);

  dsl::While(keepGoing && Expression(ok) > Expression(0), [&] {
    // Step 1: r(m) = b − A x(m), extended precision.
    a.residualExt(rExt, bExt, xExt);
    resNormSq = Dot(Expression(rExt), Expression(rExt));
    // Guard: decide whether this residual is trustworthy. A corrupted one
    // (NaN/Inf, or growth past residualGrowthFactor over the last good step)
    // schedules a rollback; a clean one is recorded and becomes the new
    // checkpoint.
    dsl::HostCall([trueHist, resPtr, guard, innerRaw, opts, recovery, resId,
                   bId, rollbackId, okId, mId, abftId](graph::Engine& e) {
      const double rr = e.readScalar(resId).toHostDouble();
      const double bb = e.readScalar(bId).toHostDouble();
      const double rel = std::sqrt(std::abs(rr) / std::max(bb, 1e-300));
      bool abftBad = false;
      if (abftId != graph::kInvalidTensor) {
        const double flag = e.readScalar(abftId).toHostDouble();
        abftBad = !(flag <= opts.abftTolerance);
      }
      const bool corrupted =
          !std::isfinite(rr) || abftBad ||
          (guard->lastGoodResidual >= 0.0 &&
           rel > guard->lastGoodResidual * opts.residualGrowthFactor);
      if (abftBad) {
        recordAbftMismatch(
            e, "mpir",
            static_cast<std::size_t>(e.readScalar(mId).toHostDouble()),
            abftId);
      }
      if (!corrupted) {
        trueHist->push_back({innerRaw->history().size(), rel});
        resPtr->iterations =
            static_cast<std::size_t>(e.readScalar(mId).toHostDouble());
        resPtr->finalResidual = rel;
        guard->lastGoodResidual = rel;
        guard->nextCost = 1;  // a good step resets the backoff
        support::recordIteration(e.traceSink(), "mpir", resPtr->iterations,
                                 rel, e.simCycles(),
                                 e.profile().computeSupersteps);
        return;
      }
      if (recovery &&
          guard->budgetUsed + guard->nextCost <= opts.maxRollbacks) {
        guard->budgetUsed += guard->nextCost;
        guard->nextCost *= 2;
        ++resPtr->rollbacks;
        e.profile().metrics.addCounter("mpir.rollbacks", 1);
        e.writeScalar(rollbackId, graph::Scalar(std::int32_t(1)));
        // Repair the condition scalar so the While loop survives the NaN
        // (NaN comparisons are false and would end the loop prematurely).
        e.writeScalar(resId, graph::Scalar(static_cast<float>(bb)));
        e.profile().faultEvents.push_back(
            {"recovery:rollback", e.profile().computeSupersteps, "mpir",
             static_cast<std::size_t>(e.readScalar(mId).toHostDouble()), -1,
             0.0,
             !std::isfinite(rr)
                 ? "nan residual; restored last good iterate"
             : abftBad ? "abft mismatch; restored last good iterate"
                       : "residual jumped; restored last good iterate"});
      } else {
        resPtr->status = !std::isfinite(rr) ? SolveStatus::NanDetected
                         : abftBad          ? SolveStatus::CorruptionDetected
                                            : SolveStatus::Diverged;
        resPtr->iterations =
            static_cast<std::size_t>(e.readScalar(mId).toHostDouble());
        e.writeScalar(okId, graph::Scalar(std::int32_t(0)));
      }
    });
    if (recovery) {
      dsl::If(
          Expression(rollback) > Expression(0),
          [&] {
            // Restore the last good iterate and measure its residual afresh
            // — the refinement below then re-refines from known-good state.
            xExt = Expression(*xGood);
            a.residualExt(rExt, bExt, xExt);
            resNormSq = Dot(Expression(rExt), Expression(rExt));
            rollback = Expression(0);
          },
          [&] { *xGood = Expression(xExt); });
    }
    // Step 2: solve A c = r(m) in working precision.
    {
      dsl::Expression narrow = Expression(rExt).cast(DType::Float32);
      narrow.materializeInto(rWork, "extended_precision");
    }
    inner_->apply(a, c, rWork);
    // Step 3: x(m+1) = x(m) + c, extended precision.
    {
      dsl::Expression update =
          Expression(xExt) + Expression(c).cast(extType_);
      update.materializeInto(xExt, "extended_precision");
    }
    m = Expression(m) + 1;
  });

  // Post-loop (ABFT only): the loop's last residual measurement predates
  // its final refinement step, so re-measure b − A·x for the final iterate
  // — the reported status then reflects the x the caller actually gets,
  // and the measurement itself is checksum-guarded.
  if (robust_.abft) {
    a.residualExt(rExt, bExt, xExt);
    resNormSq = Dot(Expression(rExt), Expression(rExt));
  }

  dsl::HostCall([resPtr, resId, bId, mId, abftId, opts,
                 tolerance](graph::Engine& e) {
    if (resPtr->status != SolveStatus::Running) return;
    const double rr = e.readScalar(resId).toHostDouble();
    const double bb = e.readScalar(bId).toHostDouble();
    const double rel = std::sqrt(std::abs(rr) / std::max(bb, 1e-300));
    resPtr->iterations =
        static_cast<std::size_t>(e.readScalar(mId).toHostDouble());
    if (std::isfinite(rel)) resPtr->finalResidual = rel;
    resPtr->status = tolerance > 0.0 && rel <= tolerance
                         ? SolveStatus::Converged
                         : SolveStatus::MaxIterations;
    if (abftId != graph::kInvalidTensor &&
        resPtr->status == SolveStatus::Converged) {
      const double flag = e.readScalar(abftId).toHostDouble();
      if (!(flag <= opts.abftTolerance)) {
        resPtr->status = SolveStatus::CorruptionDetected;
      }
    }
  });

  // The working-precision output is the rounded extended solution.
  x = Expression(xExt).cast(DType::Float32);
}

}  // namespace graphene::solver
