// Preconditioned Conjugate Gradient (for the SPD systems of Table II) and
// the Richardson iteration.
//
// CG runs inside the Krylov recovery guard (solver/krylov_guard.hpp):
// host residual checks every iteration, checkpoint restarts, ABFT and
// post-loop verification, with the outcome reported through
// Solver::result().
#include "solver/krylov_guard.hpp"
#include "solver/solvers.hpp"
#include "support/trace.hpp"

namespace graphene::solver {

using dsl::Dot;
using dsl::Expression;
using dsl::Tensor;

void RichardsonSolver::apply(DistMatrix& a, Tensor& z, Tensor& r) {
  if (iterations_ == 0) {
    z = Expression(0.0f);
    return;
  }
  // Iteration counter shared by every execution of the emitted sweeps —
  // Richardson computes no residual norm (that would change its cycle
  // cost), so its trace samples carry the iteration index only.
  auto count = std::make_shared<std::size_t>(0);
  auto recordSweep = [&] {
    dsl::HostCall([count](graph::Engine& e) {
      ++*count;
      support::recordIteration(e.traceSink(), "richardson", *count, -1.0,
                               e.simCycles(),
                               e.profile().computeSupersteps);
    });
  };
  // A sweep from z = 0 sees A·0 = 0, so the first one is z = ω·r.
  z = Expression(omega_) * Expression(r);
  recordSweep();
  if (iterations_ == 1) return;
  Tensor res = a.makeVector(DType::Float32, "rich_res");
  dsl::Repeat(iterations_ - 1, [&] {
    a.spmv(res, z);
    z = Expression(z) +
        Expression(omega_) * (Expression(r) - Expression(res));
    recordSweep();
  });
}

void CgSolver::apply(DistMatrix& a, Tensor& x, Tensor& b) {
  precond_->ensureSetup(a);
  if (robust_.abft) a.enableAbft(robust_.abftTolerance);
  // How this solver's dot products reduce on pods (flat vs per-IPU
  // two-level); a Graph-wide knob, set before any reduction is emitted.
  dsl::Context::current().graph().setReduceMode(reduction_);

  x = Expression(0.0f);
  Tensor r = a.makeVector(DType::Float32, "cg_resid");
  r = Expression(b);  // r0 = b - A*0
  Tensor z = a.makeVector(DType::Float32, "cg_z");
  precond_->apply(a, z, r);
  Tensor p = a.makeVector(DType::Float32, "cg_p");
  p = Expression(z);
  Tensor Ap = a.makeVector(DType::Float32, "cg_Ap");

  Tensor bNormSq = Dot(b, b);
  Tensor rz = Tensor(Dot(r, z));
  Tensor rzNew = Tensor::scalar(DType::Float32, "cg_rznew");
  Tensor alpha = Tensor::scalar(DType::Float32, "cg_alpha");
  Tensor beta = Tensor::scalar(DType::Float32, "cg_beta");
  Tensor denom = Tensor::scalar(DType::Float32, "cg_denom");
  Tensor resNormSq = Tensor(Expression(bNormSq));
  Tensor iter = Tensor::scalar(DType::Int32, "cg_iter");
  iter = Expression(0);

  KrylovGuard guard(a, {x, b, bNormSq, resNormSq, iter},
                    {"cg", "cg", "cg.restarts"}, robust_, tolerance_,
                    history_, result_);
  stateId_ = guard.stateTensor();

  dsl::While(guard.arm(maxIterations_), [&] {
    guard.restartIf([&] {
      a.spmv(Ap, x);
      r = Expression(b) - Expression(Ap);
      precond_->apply(a, z, r);
      p = Expression(z);
      rz = Dot(r, z);
      resNormSq = Dot(r, r);
    });
    a.spmv(Ap, p);
    denom = Dot(p, Ap);
    alpha = dsl::Select(Abs(Expression(denom)) > Expression(0.0f),
                        Expression(rz) / Expression(denom), Expression(0.0f));
    x = Expression(x) + Expression(alpha) * Expression(p);
    r = Expression(r) - Expression(alpha) * Expression(Ap);
    precond_->apply(a, z, r);
    rzNew = Dot(r, z);
    beta = dsl::Select(Abs(Expression(rz)) > Expression(0.0f),
                       Expression(rzNew) / Expression(rz), Expression(0.0f));
    p = Expression(z) + Expression(beta) * Expression(p);
    rz = Expression(rzNew);
    iter = Expression(iter) + 1;
    resNormSq = Dot(r, r);
    guard.duplicateResidual(r);
    guard.endIteration();
  });
  guard.finish(Ap);
}

}  // namespace graphene::solver
