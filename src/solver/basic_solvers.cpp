// Identity and Jacobi solvers.
#include "solver/solvers.hpp"

namespace graphene::solver {

using dsl::Expression;

void IdentitySolver::apply(DistMatrix& a, Tensor& z, Tensor& r) {
  (void)a;
  z = Expression(r);
}

void JacobiSolver::apply(DistMatrix& a, Tensor& z, Tensor& r) {
  if (iterations_ == 0) {
    z = Expression(0.0f);
    return;
  }
  // A sweep from z = 0 sees A·0 = 0, so the first one is z = ω·r/D.
  z = Expression(omega_) * Expression(r) / Expression(a.diagonal());
  if (iterations_ == 1) return;
  Tensor res = a.makeVector(DType::Float32, "jacobi_res");
  dsl::Repeat(iterations_ - 1, [&] {
    a.spmv(res, z);
    z = Expression(z) + Expression(omega_) *
                            (Expression(r) - Expression(res)) /
                            Expression(a.diagonal());
  });
}

}  // namespace graphene::solver
