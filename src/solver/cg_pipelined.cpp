// Pipelined Preconditioned Conjugate Gradient (Ghysels & Vanroose,
// "Hiding global synchronization latency in the preconditioned Conjugate
// Gradient algorithm", Parallel Computing 40, 2014).
//
// Classic PCG needs three inner products per iteration — (p,Ap), (r,z) and
// the convergence check (r,r) — at three different points of the recurrence,
// so every iteration pays three global reduction round-trips. On a pod each
// round-trip crosses the IPU-Links twice (gather + broadcast); for small
// systems those fixed latencies dominate and strong scaling collapses.
//
// PIPECG rearranges the recurrences so all inner products are computable at
// the SAME point, from vectors already available:
//
//   gamma = (r, u)    delta = (w, u)    rr = (r, r)
//
// with u = M^-1 r and w = A u maintained as iterates. The three reductions
// merge into ONE joint reduction (dsl::ReduceMany), and the next iteration's
// preconditioner apply m = M^-1 w and matrix product n = A m are emitted
// inside the reduction's latency window — the BSP cost model prices the
// overlap region between the reduction's gather and its final combine, which
// is exactly where those compute supersteps land. The scalar recurrences
//
//   beta = gamma / gamma_old        alpha = gamma / (delta - beta gamma / alpha_old)
//   z = n + beta z;  q = m + beta q;  s = w + beta s;  p = u + beta p
//   x += alpha p;  r -= alpha s;  u -= alpha q;  w -= alpha z
//
// reproduce PCG's iterates in exact arithmetic (float32 rounding makes the
// trajectories drift by at most an iteration or so near the tolerance).
//
// The loop runs inside the same Krylov recovery guard as CgSolver
// (solver/krylov_guard.hpp): host residual checks with NaN/divergence
// detection, checkpoint/restart (a restart raises the `fresh` flag, which
// re-enters the first-iteration recurrence with beta = 0), an independently
// emitted duplicate of (r,r) under ABFT, post-loop true residual
// verification, and a stagnation window of its own.
#include "solver/krylov_guard.hpp"
#include "solver/solvers.hpp"

namespace graphene::solver {

using dsl::Dot;
using dsl::Expression;
using dsl::Tensor;

void PipelinedCgSolver::apply(DistMatrix& a, Tensor& x, Tensor& b) {
  precond_->ensureSetup(a);
  if (robust_.abft) a.enableAbft(robust_.abftTolerance);
  dsl::Context::current().graph().setReduceMode(reduction_);

  // Initial iterates: r0 = b (x0 = 0), u0 = M^-1 r0, w0 = A u0.
  x = Expression(0.0f);
  Tensor r = a.makeVector(DType::Float32, "pcg_r");
  r = Expression(b);
  Tensor u = a.makeVector(DType::Float32, "pcg_u");
  precond_->apply(a, u, r);
  Tensor w = a.makeVector(DType::Float32, "pcg_w");
  a.spmv(w, u);
  // Pipeline iterates: m = M^-1 w, n = A m, and the four direction vectors.
  Tensor m = a.makeVector(DType::Float32, "pcg_m");
  Tensor n = a.makeVector(DType::Float32, "pcg_n");
  Tensor z = a.makeVector(DType::Float32, "pcg_z");
  z = Expression(0.0f);
  Tensor q = a.makeVector(DType::Float32, "pcg_q");
  q = Expression(0.0f);
  Tensor s = a.makeVector(DType::Float32, "pcg_s");
  s = Expression(0.0f);
  Tensor p = a.makeVector(DType::Float32, "pcg_p");
  p = Expression(0.0f);

  Tensor bNormSq = Dot(b, b);
  Tensor gammaOld = Tensor::scalar(DType::Float32, "pcg_gamma_old");
  gammaOld = Expression(1.0f);
  Tensor alphaOld = Tensor::scalar(DType::Float32, "pcg_alpha_old");
  alphaOld = Expression(1.0f);
  Tensor alpha = Tensor::scalar(DType::Float32, "pcg_alpha");
  Tensor beta = Tensor::scalar(DType::Float32, "pcg_beta");
  Tensor denom = Tensor::scalar(DType::Float32, "pcg_denom");
  Tensor resNormSq = Tensor(Expression(bNormSq));
  Tensor iter = Tensor::scalar(DType::Int32, "pcg_iter");
  iter = Expression(0);
  // `fresh` selects the first-iteration recurrence (beta = 0, directions
  // seeded from the current iterates). Raised initially and by restarts.
  Tensor fresh = Tensor::scalar(DType::Int32, "pcg_fresh");
  fresh = Expression(1);

  // Stagnation guard: silent finite corruption (below the divergence
  // threshold, missed by ABFT timing) leaves the direction recurrences
  // incoherent — the residual then oscillates around a plateau forever.
  // Residual replacement keeps it honest but cannot restore conjugacy, so
  // the host guard also tracks the best residual: no halving of it within
  // the window (while still above tolerance) means the Krylov process is
  // stuck, and a checkpoint restart (fresh directions) is the only cure.
  constexpr std::size_t kStagnationWindow = 32;
  KrylovGuard guard(a, {x, b, bNormSq, resNormSq, iter},
                    {"pipelined-cg", "pcg", "cg.restarts"}, robust_,
                    tolerance_, history_, result_,
                    {.stagnationWindow = kStagnationWindow});
  stateId_ = guard.stateTensor();

  dsl::While(guard.arm(maxIterations_), [&] {
    // Host-requested restart: rebuild every pipeline iterate from the
    // checkpoint, and re-enter the fresh path so the direction vectors are
    // re-seeded (beta = 0).
    guard.restartIf([&] {
      a.spmv(n, x);
      r = Expression(b) - Expression(n);
      precond_->apply(a, u, r);
      a.spmv(w, u);
      resNormSq = Dot(r, r);
      fresh = Expression(1);
    });

    if (replaceEvery_ > 0) {
      // Residual replacement (Cools, Yetkin, Agullo, Giraud & Vanroose,
      // SIAM J. Matrix Anal. 2018): the pipelined recurrences for r, u, w
      // and the auxiliary vectors amplify local rounding error, which in
      // float32 stalls the attainable accuracy well above classic CG's.
      // Periodically recompute every drifted iterate from its definition —
      // r = b - A x, u = M^-1 r, w = A u, s = A p, q = M^-1 s, z = A q —
      // keeping the search direction p, so convergence continues where the
      // recurrences left off instead of restarting.
      dsl::If(Expression(iter) > Expression(0) &&
                  Expression(iter) % static_cast<int>(replaceEvery_) ==
                      Expression(0) &&
                  Expression(fresh) == Expression(0),
              [&] {
                a.spmv(n, x);
                r = Expression(b) - Expression(n);
                precond_->apply(a, u, r);
                a.spmv(w, u);
                a.spmv(s, p);
                precond_->apply(a, q, s);
                a.spmv(z, q);
                resNormSq = Dot(r, r);
              });
    }

    // The heart of PIPECG: one joint reduction for gamma = (r,u),
    // delta = (w,u) and rr = (r,r); the preconditioner apply and SpMV of
    // m/n execute inside its latency window.
    auto red = dsl::ReduceMany(
        {Expression(r) * Expression(u), Expression(w) * Expression(u),
         Expression(r) * Expression(r)},
        dsl::ReduceKind::Sum, [&] {
          precond_->apply(a, m, w);
          a.spmv(n, m);
        });
    Tensor& gamma = red[0];
    Tensor& delta = red[1];
    resNormSq = Expression(red[2]);
    // The ABFT duplicate of (r,r) stays a SEPARATE reduction tree (its own
    // partial compute set and gather) rather than a fourth joint output —
    // riding the joint reduction's exchange would make corruption of that
    // exchange hit original and duplicate identically, hiding it.
    guard.duplicateResidual(r);

    // Scalar recurrences, breakdown-guarded like CgSolver: a vanishing
    // denominator yields alpha/beta = 0 (stall) instead of NaN, and the
    // host guard then takes over.
    beta = dsl::Select(
        Expression(fresh) > Expression(0), Expression(0.0f),
        dsl::Select(Abs(Expression(gammaOld)) > Expression(0.0f),
                    Expression(gamma) / Expression(gammaOld),
                    Expression(0.0f)));
    denom = Expression(delta) -
            Expression(beta) *
                dsl::Select(Abs(Expression(alphaOld)) > Expression(0.0f),
                            Expression(gamma) / Expression(alphaOld),
                            Expression(0.0f));
    alpha = dsl::Select(Abs(Expression(denom)) > Expression(0.0f),
                        Expression(gamma) / Expression(denom),
                        Expression(0.0f));

    // Vector recurrences. With fresh (beta = 0) these seed z = n, q = m,
    // s = w, p = u — the classic first CG step.
    z = Expression(n) + Expression(beta) * Expression(z);
    q = Expression(m) + Expression(beta) * Expression(q);
    s = Expression(w) + Expression(beta) * Expression(s);
    p = Expression(u) + Expression(beta) * Expression(p);
    x = Expression(x) + Expression(alpha) * Expression(p);
    r = Expression(r) - Expression(alpha) * Expression(s);
    u = Expression(u) - Expression(alpha) * Expression(q);
    w = Expression(w) - Expression(alpha) * Expression(z);

    gammaOld = Expression(gamma);
    alphaOld = Expression(alpha);
    fresh = Expression(0);
    iter = Expression(iter) + 1;
    guard.endIteration();
  });
  guard.finish(n);
}

}  // namespace graphene::solver
