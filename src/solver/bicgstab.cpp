// Preconditioned BiCGStab (§V-C), following the paper's Fig. 4 DSL listing.
//
// An iteration runs three global reductions instead of the listing's five:
// (t, t) and (t, s) are reduced jointly, and so are the next iteration's
// rho = (r̂, r) and (r, r) at the bottom of the loop (dsl::ReduceMany forms
// each sum in the order a single reduction does, so the iterates are
// bit-identical to five separate dots). On a pod each reduction saved is a
// chip-spanning gather and broadcast.
//
// The loop runs inside the Krylov recovery guard (solver/krylov_guard.hpp),
// which also checks the rho recurrence scalar every iteration: a collapsed
// rho (|rho| ≤ breakdownTolerance·‖b‖²) triggers a restart from the last
// checkpoint like a NaN/diverged residual does, and once the restart budget
// is exhausted the solve ends with a typed SolveStatus (Breakdown /
// Diverged / NanDetected) instead of a garbage history.
#include <cmath>

#include "solver/krylov_guard.hpp"
#include "solver/solvers.hpp"

namespace graphene::solver {

using dsl::Dot;
using dsl::Expression;
using dsl::Tensor;

void BiCgStabSolver::apply(DistMatrix& a, Tensor& x, Tensor& b) {
  precond_->ensureSetup(a);
  if (robust_.abft) a.enableAbft(robust_.abftTolerance);

  // Zero initial guess: r0 = b − A·x = b.
  x = Expression(0.0f);
  Tensor rA0 = a.makeVector(DType::Float32, "bicg_shadow");
  rA0 = Expression(b);  // deep copy: the shadow residual stays fixed
  Tensor rA = a.makeVector(DType::Float32, "bicg_resid");
  rA = Expression(b);
  Tensor pA = a.makeVector(DType::Float32, "bicg_p");
  pA = Expression(0.0f);
  Tensor yA = a.makeVector(DType::Float32, "bicg_y");
  Tensor zA = a.makeVector(DType::Float32, "bicg_z");
  Tensor AyA = a.makeVector(DType::Float32, "bicg_Ay");
  AyA = Expression(0.0f);
  Tensor sA = a.makeVector(DType::Float32, "bicg_s");
  Tensor tA = a.makeVector(DType::Float32, "bicg_t");

  Tensor bNormSq = Dot(b, b);
  Tensor rA0rAold = Tensor(Expression(bNormSq));
  // rho = (r̂, r), reduced at the bottom of the previous iteration. At loop
  // entry r̂ = r = b, so it starts as ‖b‖², the same sum bit for bit.
  Tensor rA0rA = Tensor::scalar(DType::Float32, "bicg_rho");
  rA0rA = Expression(bNormSq);
  Tensor alpha = Tensor::scalar(DType::Float32, "bicg_alpha");
  alpha = Expression(1.0f);
  Tensor omega = Tensor::scalar(DType::Float32, "bicg_omega");
  omega = Expression(1.0f);
  Tensor beta = Tensor::scalar(DType::Float32, "bicg_beta");
  Tensor resNormSq = Tensor(Expression(bNormSq));
  Tensor iter = Tensor::scalar(DType::Int32, "bicg_iter");
  iter = Expression(0);

  KrylovGuard guard(a, {x, b, bNormSq, resNormSq, iter},
                    {"bicgstab", "bicg", "bicgstab.restarts"}, robust_,
                    tolerance_, history_, result_,
                    {.breakdownRho = rA0rAold.id()});
  stateId_ = guard.stateTensor();

  // Breakdown guards (the paper's implementation has "early exits due to
  // convergence or singularity"): once the float32 residual hits its floor,
  // the rho / omega denominators collapse to zero — Select keeps the update
  // coefficients finite and the iteration merely stagnates instead of
  // producing NaNs. The host guard additionally *reports* a collapsed rho
  // as SolveStatus::Breakdown (after exhausting the restart budget).
  Tensor denom = Tensor::scalar(DType::Float32, "bicg_denom");

  dsl::While(guard.arm(maxIterations_), [&] {
    // Re-seed the Krylov recurrence from the checkpointed iterate: the
    // shadow residual is re-anchored to the fresh true residual and all
    // recurrence scalars return to their iteration-0 values.
    guard.restartIf([&] {
      a.spmv(sA, x);
      rA = Expression(b) - Expression(sA);
      rA0 = Expression(rA);
      pA = Expression(0.0f);
      AyA = Expression(0.0f);
      alpha = Expression(1.0f);
      omega = Expression(1.0f);
      rA0rAold = Dot(rA, rA);
      resNormSq = Expression(rA0rAold);
      rA0rA = Expression(rA0rAold);  // r̂ = r: rho is the fresh (r, r)
    });
    beta = dsl::Select(
        Abs(Expression(rA0rAold)) * Abs(Expression(omega)) > Expression(0.0f),
        (Expression(rA0rA) / Expression(rA0rAold)) *
            (Expression(alpha) / Expression(omega)),
        Expression(0.0f));
    pA = Expression(rA) +
         Expression(beta) * (Expression(pA) - Expression(omega) * Expression(AyA));
    precond_->apply(a, yA, pA);
    a.spmv(AyA, yA);
    denom = Dot(rA0, AyA);
    alpha = dsl::Select(Abs(Expression(denom)) > Expression(0.0f),
                        Expression(rA0rA) / Expression(denom),
                        Expression(0.0f));
    sA = Expression(rA) - Expression(alpha) * Expression(AyA);
    precond_->apply(a, zA, sA);
    a.spmv(tA, zA);
    auto tts = dsl::ReduceMany(
        {Expression(tA) * Expression(tA), Expression(tA) * Expression(sA)});
    omega = dsl::Select(Expression(tts[0]) > Expression(0.0f),
                        Expression(tts[1]) / Expression(tts[0]),
                        Expression(0.0f));
    x = Expression(x) + Expression(alpha) * Expression(yA) +
        Expression(omega) * Expression(zA);
    rA = Expression(sA) - Expression(omega) * Expression(tA);
    // This iteration's rho moves to rA0rAold, where the guard's breakdown
    // check reads it; the next one is reduced with (r, r).
    rA0rAold = Expression(rA0rA);
    iter = Expression(iter) + 1;
    auto rhoRr = dsl::ReduceMany(
        {Expression(rA0) * Expression(rA), Expression(rA) * Expression(rA)});
    rA0rA = Expression(rhoRr[0]);
    resNormSq = Expression(rhoRr[1]);
    guard.duplicateResidual(rA);
    guard.endIteration();
    if (monitorEvery_ > 0) emitTrueResidualMonitor(a, x, b);
  });
  guard.finish(tA);
}

void BiCgStabSolver::emitTrueResidualMonitor(DistMatrix& a, Tensor& x,
                                             Tensor& b) {
  // Lazily created measurement state (double-word).
  if (!monX_) {
    monX_ = a.makeVector(DType::DoubleWord, "bicg_mon_x");
    monB_ = a.makeVector(DType::DoubleWord, "bicg_mon_b");
    monR_ = a.makeVector(DType::DoubleWord, "bicg_mon_r");
    monNormSq_ = Tensor::scalar(DType::DoubleWord, "bicg_mon_nn");
    monBNormSq_ = Tensor::scalar(DType::DoubleWord, "bicg_mon_bb");
    monIter_ = Tensor::scalar(DType::Int32, "bicg_mon_i");
  }
  Tensor& monX = *monX_;
  Tensor& monB = *monB_;
  Tensor& monR = *monR_;
  Tensor& monNormSq = *monNormSq_;
  Tensor& monBNormSq = *monBNormSq_;
  Tensor& monIter = *monIter_;
  monIter = Expression(monIter) + 1;
  dsl::If(Expression(monIter) % static_cast<int>(monitorEvery_) == 0, [&] {
    monX = Expression(x).cast(DType::DoubleWord);
    monB = Expression(b).cast(DType::DoubleWord);
    a.residualExt(monR, monB, monX);
    monNormSq = Dot(Expression(monR), Expression(monR));
    monBNormSq = Dot(Expression(monB), Expression(monB));
    auto trueHist = trueHistory_;
    auto innerHist = history_;
    graph::TensorId nnId = monNormSq.id(), bbId = monBNormSq.id();
    dsl::HostCall([trueHist, innerHist, nnId, bbId](graph::Engine& e) {
      double rr = e.readScalar(nnId).toHostDouble();
      double bb = e.readScalar(bbId).toHostDouble();
      trueHist->push_back({innerHist->size(),
                           std::sqrt(std::abs(rr) / std::max(bb, 1e-300))});
    });
  });
}

}  // namespace graphene::solver
