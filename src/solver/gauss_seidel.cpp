// Gauss-Seidel with Level-Set Scheduling (§V-A, §V-D).
#include <cmath>

#include "levelset/levelset.hpp"
#include "solver/krylov_guard.hpp"
#include "solver/solvers.hpp"
#include "support/trace.hpp"

namespace graphene::solver {

using dsl::Context;
using dsl::Dot;
using dsl::ExecuteOnTiles;
using dsl::Expression;
using dsl::For;
using dsl::ParallelFor;
using dsl::Select;
using dsl::Tensor;
using dsl::Value;

void GaussSeidelSolver::setup(DistMatrix& a) {
  Context& ctx = Context::current();
  const std::size_t nTiles = ctx.target().totalTiles();
  std::vector<std::size_t> orderSizes(nTiles, 0), ptrSizes(nTiles, 0);
  std::vector<std::vector<std::int32_t>> orders(nTiles), ptrs(nTiles);
  for (std::size_t t = 0; t < nTiles; ++t) {
    const DistMatrix::TileLocal& local = a.tileLocal()[t];
    if (local.numOwned == 0) continue;
    // Dependencies: strictly-lower entries among *owned* columns; halo
    // references carry no intra-sweep ordering (they use the last exchange).
    auto sched = levelset::buildLevels(local.rowPtr, local.col,
                                       local.numOwned, /*lower=*/true);
    orders[t] = sched.order;
    ptrs[t] = sched.levelPtr;
    orderSizes[t] = orders[t].size();
    ptrSizes[t] = ptrs[t].size();
  }
  lvlOrder_.emplace(DType::Int32, graph::TileMapping::ragged(orderSizes),
                    ctx.freshName("gs_order"));
  lvlPtr_.emplace(DType::Int32, graph::TileMapping::ragged(ptrSizes),
                  ctx.freshName("gs_lvlptr"));
  for (std::size_t t = 0; t < nTiles; ++t) {
    lvlOrderHost_.insert(lvlOrderHost_.end(), orders[t].begin(),
                         orders[t].end());
    lvlPtrHost_.insert(lvlPtrHost_.end(), ptrs[t].begin(), ptrs[t].end());
  }
  // Upload the schedule before execution begins.
  std::vector<std::int32_t> orderHost = lvlOrderHost_;
  std::vector<std::int32_t> ptrHost = lvlPtrHost_;
  graph::TensorId orderId = lvlOrder_->id();
  graph::TensorId ptrId = lvlPtr_->id();
  dsl::HostCall([orderHost, ptrHost, orderId, ptrId](graph::Engine& e) {
    e.writeTensor<std::int32_t>(orderId, orderHost);
    e.writeTensor<std::int32_t>(ptrId, ptrHost);
  });
}

void GaussSeidelSolver::emitSweep(DistMatrix& a, Tensor& z, Tensor& r) {
  a.haloExchange(z);
  Tensor& halo = a.haloBuffer(DType::Float32);
  ExecuteOnTiles(
      {z, r, halo, a.diagonal(), a.offVal(), a.offCol(), a.offRowPtr(),
       a.haloSplit(), *lvlOrder_, *lvlPtr_},
      [&](std::vector<Value>& args) {
        Value zv = args[0], rv = args[1], hv = args[2], dv = args[3],
              av = args[4], cv = args[5], rp = args[6], sp = args[7],
              order = args[8], lvl = args[9];
        Value numOwned = zv.size();
        // One worker-parallel region per level, synchronised in between —
        // the single-compute-set iputhreading pattern (§V-A).
        For(0, lvl.size() - 1, 1, [&](Value l) {
          ParallelFor(lvl[l], lvl[l + 1], [&](Value idx) {
            Value row = order[idx];
            Value acc = rv[row];
            For(rp[row], sp[row], 1, [&](Value k) {
              acc = acc - Value(av[k]) * Value(zv[cv[k]]);
            });
            For(sp[row], rp[row + 1], 1, [&](Value k) {
              acc = acc - Value(av[k]) * Value(hv[Value(cv[k]) - numOwned]);
            });
            zv[row] = acc / Value(dv[row]);
          });
        });
      },
      "gauss_seidel", a.activeTiles());
}

void GaussSeidelSolver::apply(DistMatrix& a, Tensor& z, Tensor& r) {
  ensureSetup(a);
  z = Expression(0.0f);
  if (tolerance_ <= 0.0) {
    // Smoother / preconditioner mode: fixed sweep count.
    dsl::Repeat(sweeps_, [&] { emitSweep(a, z, r); });
    return;
  }
  // Standalone solver mode: sweep until the relative residual converges.
  Tensor res = a.makeVector(DType::Float32, "gs_res");
  Tensor bNormSq = Dot(r, r);
  Tensor resNormSq = Tensor(Expression(bNormSq));
  Tensor iter = Tensor::scalar(DType::Int32, "gs_iter");
  iter = Expression(0);
  const float tol2 = static_cast<float>(tolerance_ * tolerance_);
  auto histPtr = history_;
  auto resPtr = result_;
  graph::TensorId resId = resNormSq.id(), bId = bNormSq.id();
  emitResultArm(result_);
  dsl::While(
      Expression(iter) < static_cast<int>(maxIterations_) &&
          Expression(resNormSq) > Expression(tol2) * Expression(bNormSq),
      [&] {
        for (std::size_t s = 0; s < sweeps_; ++s) emitSweep(a, z, r);
        a.spmv(res, z);
        res = Expression(r) - Expression(res);
        resNormSq = Dot(res, res);
        iter = Expression(iter) + 1;
        dsl::HostCall([histPtr, resPtr, resId, bId](graph::Engine& e) {
          double rr = e.readScalar(resId).toHostDouble();
          double bb = e.readScalar(bId).toHostDouble();
          double rel = std::sqrt(std::abs(rr) / std::max(bb, 1e-300));
          // Keep the history free of NaN/Inf garbage: a non-finite residual
          // becomes a typed outcome instead of a bogus sample.
          if (!std::isfinite(rel)) {
            resPtr->status = SolveStatus::NanDetected;
            return;
          }
          histPtr->push_back({histPtr->size() + 1, rel});
          resPtr->finalResidual = rel;
          support::recordIteration(e.traceSink(), "gauss-seidel",
                                   histPtr->size(), rel, e.simCycles(),
                                   e.profile().computeSupersteps);
        });
      });
  emitFinalVerdict(result_, resId, bId, iter.id(), tolerance_);
}

}  // namespace graphene::solver
