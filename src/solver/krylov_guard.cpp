#include "solver/krylov_guard.hpp"

#include <cmath>
#include <string>

#include "support/trace.hpp"

namespace graphene::solver {

using dsl::Dot;
using dsl::Expression;

namespace {

/// An Int32 replicated scalar, created and seeded in one step.
Tensor seededFlag(const std::string& name, int value) {
  Tensor flag = Tensor::scalar(DType::Int32, name);
  flag = Expression(value);
  return flag;
}

/// The checkpointed iterate restarts re-seed from, seeded with the current
/// x (x0 = 0 is always a valid restart point); none without recovery.
std::optional<Tensor> checkpoint(DistMatrix& a, const std::string& name,
                                 const Tensor& x,
                                 const RobustnessOptions& robust) {
  if (robust.maxRestarts == 0 || robust.checkpointEvery == 0) {
    return std::nullopt;
  }
  Tensor ckpt = a.makeVector(DType::Float32, name);
  ckpt = Expression(x);
  return ckpt;
}

double relative(double rr, double bb) {
  return std::sqrt(std::abs(rr) / std::max(bb, 1e-300));
}

void rearm(SolveResult& result) {
  result = SolveResult{};
  result.status = SolveStatus::Running;
}

}  // namespace

KrylovGuard::KrylovGuard(DistMatrix& a, KrylovLoop loop, KrylovIdentity id,
                         const RobustnessOptions& robust, double tolerance,
                         std::shared_ptr<std::vector<IterationRecord>> history,
                         std::shared_ptr<SolveResult> result,
                         KrylovCheck check)
    : a_(a),
      loop_(loop),
      // Host-controlled abort flag and restart request flag.
      ok_(seededFlag(std::string(id.prefix) + "_ok", 1)),
      restart_(seededFlag(std::string(id.prefix) + "_restart", 0)),
      ckpt_(checkpoint(a, std::string(id.prefix) + "_ckpt", loop.x, robust)),
      // ABFT dot-reduction check: a second, independently emitted reduction
      // of the same operand. Fault-free they are bit-identical; corruption
      // landing between or inside the reductions makes them disagree.
      resDup_(robust.abft ? std::optional<Tensor>(Tensor::scalar(
                                DType::Float32,
                                std::string(id.prefix) + "_rrdup"))
                          : std::nullopt),
      host_{.id = id,
            .check = check,
            .opts = robust,
            .tolerance = tolerance,
            .recovery = ckpt_.has_value(),
            .resId = loop.resNormSq.id(),
            .bId = loop.bNormSq.id(),
            .iterId = loop.iter.id(),
            .okId = ok_.id(),
            .restartId = restart_.id(),
            .abftId = robust.abft ? a.abftFlagId() : graph::kInvalidTensor,
            .dupId = resDup_ ? resDup_->id() : graph::kInvalidTensor,
            .history = std::move(history),
            .result = std::move(result),
            .stagnation = std::make_shared<Stagnation>()} {}

graph::TensorId KrylovGuard::stateTensor() const {
  return ckpt_ ? ckpt_->id() : loop_.x.id();
}

Expression KrylovGuard::arm(std::size_t maxIterations) {
  dsl::HostCall([result = host_.result,
                 stagnation = host_.stagnation](graph::Engine&) {
    rearm(*result);
    *stagnation = Stagnation{};
  });
  const auto maxIt = static_cast<int>(maxIterations);
  const auto tol2 = static_cast<float>(host_.tolerance * host_.tolerance);
  Expression keepGoing =
      host_.tolerance > 0.0
          ? Expression(loop_.iter) < maxIt &&
                Expression(loop_.resNormSq) >
                    Expression(tol2) * Expression(loop_.bNormSq)
          : Expression(loop_.iter) < maxIt;
  return keepGoing && Expression(ok_) > Expression(0);
}

void KrylovGuard::restartIf(const std::function<void()>& reseed) {
  if (!ckpt_) return;
  // The host guard requested a restart: re-seed from the checkpoint. The
  // solver recomputes its residual from scratch, so corrupted recurrence
  // state is fully flushed.
  dsl::If(Expression(restart_) > Expression(0), [&] {
    loop_.x = Expression(*ckpt_);
    reseed();
    restart_ = Expression(0);
  });
}

void KrylovGuard::duplicateResidual(const Tensor& r) {
  if (resDup_) *resDup_ = Dot(r, r);
}

void KrylovGuard::endIteration() {
  if (ckpt_) {
    dsl::If(Expression(loop_.iter) %
                    static_cast<int>(host_.opts.checkpointEvery) ==
                Expression(0),
            [&] { *ckpt_ = Expression(loop_.x); });
  }
  dsl::HostCall([host = host_](graph::Engine& e) { host.checkIteration(e); });
}

void KrylovGuard::Host::checkIteration(graph::Engine& e) const {
  const double rr = e.readScalar(resId).toHostDouble();
  const double bb = e.readScalar(bId).toHostDouble();
  const auto it = static_cast<std::size_t>(e.readScalar(iterId).toHostDouble());
  const double rel = relative(rr, bb);
  bool broken = false;
  if (check.breakdownRho != graph::kInvalidTensor) {
    const double rho = e.readScalar(check.breakdownRho).toHostDouble();
    const bool converged = tolerance > 0.0 && rel <= tolerance;
    broken = !converged &&
             std::abs(rho) <= opts.breakdownTolerance * std::max(bb, 1e-300);
  }
  const bool bad = !std::isfinite(rr) || rel > opts.divergenceFactor;
  // ABFT verdict: the sticky checksum flag (SpMV defects) and the
  // duplicated dot reduction (which is bit-identical fault-free).
  bool abftBad = false;
  if (!bad && !broken && abftId != graph::kInvalidTensor) {
    const double flag = e.readScalar(abftId).toHostDouble();
    const double dup = e.readScalar(dupId).toHostDouble();
    abftBad = !(flag <= opts.abftTolerance) || dup != rr;
  }
  // Stagnation: silent finite corruption can leave the recurrences
  // incoherent, so the residual plateaus above tolerance for good; only
  // fresh directions from the checkpoint cure that.
  bool stagnated = false;
  if (!bad && !abftBad && check.stagnationWindow > 0) {
    if (rel < 0.5 * stagnation->bestRel) {
      stagnation->bestRel = rel;
      stagnation->bestIt = it;
    }
    stagnated = recovery && tolerance > 0.0 &&
                it > stagnation->bestIt + check.stagnationWindow &&
                result->restarts < opts.maxRestarts;
  }
  if (!bad && !broken && !abftBad && !stagnated) {
    history->push_back({history->size() + 1, rel});
    result->iterations = it;
    result->finalResidual = rel;
    support::recordIteration(e.traceSink(), id.solver, history->size(), rel,
                             e.simCycles(), e.profile().computeSupersteps);
    return;
  }
  if (abftBad) recordAbftMismatch(e, id.solver, it, abftId);
  // A NaN/Inf, runaway, broken-down or checksum-flagged residual never
  // reaches the history; it either triggers a restart or becomes the typed
  // outcome.
  if (recovery && result->restarts < opts.maxRestarts) {
    ++result->restarts;
    e.profile().metrics.addCounter(id.restartCounter, 1);
    e.writeScalar(restartId, graph::Scalar(std::int32_t(1)));
    // Repair the condition scalar so the While loop survives the NaN (NaN
    // comparisons are false and would end the loop prematurely).
    e.writeScalar(resId, graph::Scalar(static_cast<float>(bb)));
    // Re-arm the stagnation window from the restart point.
    stagnation->bestIt = it;
    e.profile().faultEvents.push_back(
        {"recovery:restart", e.profile().computeSupersteps, id.solver, it, -1,
         0.0,
         broken ? "rho breakdown; re-seeding from checkpoint"
         : bad  ? (!std::isfinite(rr)
                       ? "nan residual; re-seeding from checkpoint"
                       : "diverged; re-seeding from checkpoint")
         : stagnated ? "stagnated residual; re-seeding from checkpoint"
                     : "abft mismatch; re-seeding from checkpoint"});
  } else {
    result->status = broken ? SolveStatus::Breakdown
                     : bad  ? (std::isfinite(rr) ? SolveStatus::Diverged
                                                 : SolveStatus::NanDetected)
                            : SolveStatus::CorruptionDetected;
    result->iterations = it;
    e.writeScalar(okId, graph::Scalar(std::int32_t(0)));
  }
}

void KrylovGuard::finish(Tensor& scratch) {
  // Post-loop verification (ABFT only): re-measure the true residual
  // ‖b − A·x‖ from scratch. Corruption that slipped a *small* value into the
  // recurrence's residual norm would otherwise end the loop with a silently
  // wrong "converged" x.
  graph::TensorId verId = graph::kInvalidTensor;
  if (host_.opts.abft && host_.tolerance > 0.0) {
    a_.spmv(scratch, loop_.x);
    Tensor vr =
        a_.makeVector(DType::Float32, std::string(host_.id.prefix) + "_verify");
    vr = Expression(loop_.b) - Expression(scratch);
    verId = Tensor(Dot(vr, vr)).id();
  }
  emitFinalVerdict(host_.result, host_.resId, host_.bId, host_.iterId,
                   host_.tolerance, verId);
}

void emitResultArm(std::shared_ptr<SolveResult> result) {
  dsl::HostCall([result](graph::Engine&) { rearm(*result); });
}

void emitFinalVerdict(std::shared_ptr<SolveResult> result,
                      graph::TensorId resId, graph::TensorId bId,
                      graph::TensorId iterId, double tolerance,
                      graph::TensorId verId) {
  dsl::HostCall([result, resId, bId, iterId, tolerance,
                 verId](graph::Engine& e) {
    if (result->status != SolveStatus::Running) return;
    const double bb = e.readScalar(bId).toHostDouble();
    const double rel = relative(e.readScalar(resId).toHostDouble(), bb);
    result->iterations =
        static_cast<std::size_t>(e.readScalar(iterId).toHostDouble());
    if (std::isfinite(rel)) result->finalResidual = rel;
    result->status = tolerance > 0.0 && rel <= tolerance
                         ? SolveStatus::Converged
                         : SolveStatus::MaxIterations;
    if (result->status == SolveStatus::Converged &&
        verId != graph::kInvalidTensor) {
      const double vrel = relative(e.readScalar(verId).toHostDouble(), bb);
      // Slack over the recurrence tolerance: the float32 recurrence
      // residual legitimately drifts from the true one near convergence.
      if (!(vrel <= 50.0 * tolerance)) {
        result->status = SolveStatus::CorruptionDetected;
        result->finalResidual = vrel;
      }
    }
  });
}

void recordAbftMismatch(graph::Engine& e, const char* solver,
                        std::size_t iteration, graph::TensorId flagId) {
  e.profile().metrics.addCounter("resilience.abft.mismatches", 1);
  e.profile().faultEvents.push_back({"abft-mismatch",
                                     e.profile().computeSupersteps, solver,
                                     iteration, -1, 0.0,
                                     "checksum defect above tolerance"});
  e.writeScalar(flagId, graph::Scalar(0.0f));  // re-arm the flag
}

}  // namespace graphene::solver
