#include "solver/dist_matrix.hpp"

#include <unordered_map>

#include "support/env.hpp"
#include "support/error.hpp"

namespace graphene::solver {

using dsl::Context;
using dsl::Execute;
using dsl::ExecuteOnTiles;
using dsl::For;
using dsl::ParallelFor;
using dsl::Select;
using dsl::Value;

DistMatrix::DistMatrix(const matrix::CsrMatrix& a,
                       partition::DistributedLayout layout)
    : layout_(std::move(layout)) {
  // A/B escape hatch mirroring GRAPHENE_NO_FASTPATH: profile a run without
  // the §IV halo reordering without touching call sites.
  if (support::envFlag("GRAPHENE_NO_HALO_REORDER")) perCellHalo_ = true;
  Context& ctx = Context::current();
  const std::size_t nTiles = ctx.target().totalTiles();
  GRAPHENE_CHECK(layout_.numTiles == nTiles,
                 "layout tile count (", layout_.numTiles,
                 ") must match the target (", nTiles, ")");
  GRAPHENE_CHECK(a.rows() == layout_.rowToTile.size(), "layout size mismatch");

  // Mappings.
  std::vector<std::size_t> ownedSizes(nTiles), haloSizes(nTiles);
  for (std::size_t t = 0; t < nTiles; ++t) {
    ownedSizes[t] = layout_.tiles[t].numOwned;
    haloSizes[t] = layout_.tiles[t].numHalo;
    if (ownedSizes[t] > 0) activeTiles_.push_back(t);
  }
  ownedMapping_ = graph::TileMapping::ragged(ownedSizes);
  haloMapping_ = graph::TileMapping::ragged(haloSizes);
  ownedFlatOffset_.resize(nTiles, 0);
  for (std::size_t t = 1; t < nTiles; ++t) {
    ownedFlatOffset_[t] = ownedFlatOffset_[t - 1] + ownedSizes[t - 1];
  }

  // Host-side localisation: per tile, the owned submatrix with local column
  // indices (owned local ids < numOwned; halo copies >= numOwned).
  tileLocal_.resize(nTiles);
  auto rowPtr = a.rowPtr();
  auto colIdx = a.colIdx();
  auto values = a.values();
  std::vector<std::size_t> offRowPtrSizes(nTiles);
  for (std::size_t t = 0; t < nTiles; ++t) {
    const partition::TileLayout& tl = layout_.tiles[t];
    TileLocal& local = tileLocal_[t];
    local.numOwned = tl.numOwned;
    local.numHalo = tl.numHalo;
    std::unordered_map<std::size_t, std::int32_t> globalToLocal;
    globalToLocal.reserve(tl.localToGlobal.size());
    for (std::size_t i = 0; i < tl.localToGlobal.size(); ++i) {
      globalToLocal[tl.localToGlobal[i]] = static_cast<std::int32_t>(i);
    }
    local.rowPtr.assign(tl.numOwned + 1, 0);
    for (std::size_t i = 0; i < tl.numOwned; ++i) {
      const std::size_t g = tl.localToGlobal[i];
      // Entries sorted by local column index for merge-based factorisations.
      std::vector<std::pair<std::int32_t, double>> entries;
      for (std::size_t k = rowPtr[g]; k < rowPtr[g + 1]; ++k) {
        auto it = globalToLocal.find(static_cast<std::size_t>(colIdx[k]));
        GRAPHENE_CHECK(it != globalToLocal.end(),
                       "matrix entry references a cell outside the tile's "
                       "halo — layout is inconsistent");
        entries.emplace_back(it->second, values[k]);
      }
      std::sort(entries.begin(), entries.end());
      for (const auto& [c, v] : entries) {
        local.col.push_back(c);
        local.val.push_back(v);
      }
      local.rowPtr[i + 1] = local.col.size();
    }
    offRowPtrSizes[t] = tl.numOwned > 0 ? tl.numOwned + 1 : 0;
  }

  // Device staging in the modified-CRS split: dense diagonal + off-diagonal
  // CRS (per-tile concatenation).
  std::vector<std::size_t> offValSizes(nTiles, 0);
  for (std::size_t t = 0; t < nTiles; ++t) {
    const TileLocal& local = tileLocal_[t];
    if (local.numOwned == 0) continue;
    std::size_t tileOff = 0;
    rowPtrHost_.push_back(0);  // per-tile CRS starts at 0
    for (std::size_t i = 0; i < local.numOwned; ++i) {
      bool sawDiag = false;
      std::int32_t ownedRun = static_cast<std::int32_t>(tileOff);
      for (std::size_t k = local.rowPtr[i]; k < local.rowPtr[i + 1]; ++k) {
        if (local.col[k] == static_cast<std::int32_t>(i)) {
          diagHost_.push_back(static_cast<float>(local.val[k]));
          sawDiag = true;
        } else {
          valHost_.push_back(static_cast<float>(local.val[k]));
          colHost_.push_back(local.col[k]);
          // Columns are sorted ascending, halo indices come last: the first
          // halo entry fixes this row's owned/halo split.
          if (static_cast<std::size_t>(local.col[k]) < local.numOwned) {
            ownedRun = static_cast<std::int32_t>(tileOff) + 1;
          }
          ++tileOff;
        }
      }
      GRAPHENE_CHECK(sawDiag && diagHost_.back() != 0.0f,
                     "modified CRS requires a nonzero diagonal");
      rowPtrHost_.push_back(static_cast<std::int32_t>(tileOff));
      splitHost_.push_back(ownedRun);
    }
    offValSizes[t] = tileOff;
  }

  diag_.emplace(DType::Float32, ownedMapping_, ctx.freshName("A_diag"));
  offVal_.emplace(DType::Float32, graph::TileMapping::ragged(offValSizes),
                  ctx.freshName("A_val"));
  offCol_.emplace(DType::Int32, graph::TileMapping::ragged(offValSizes),
                  ctx.freshName("A_col"));
  offRowPtr_.emplace(DType::Int32, graph::TileMapping::ragged(offRowPtrSizes),
                     ctx.freshName("A_rowptr"));
  offSplit_.emplace(DType::Int32, ownedMapping_, ctx.freshName("A_split"));
}

Tensor DistMatrix::makeVector(DType type, const std::string& name) const {
  return Tensor(type, ownedMapping_, name);
}

Tensor& DistMatrix::haloBuffer(DType type) {
  auto it = haloBuffers_.find(type);
  if (it == haloBuffers_.end()) {
    it = haloBuffers_
             .emplace(type, Tensor(type, haloMapping_,
                                   Context::current().freshName("halo")))
             .first;
  }
  return it->second;
}

void DistMatrix::haloExchange(const Tensor& v) {
  GRAPHENE_CHECK(v.info().mapping == ownedMapping_,
                 "halo exchange needs an owned-mapped vector");
  Tensor& halo = haloBuffer(v.type());
  const std::vector<partition::HaloTransfer>* plan = &layout_.transfers;
  if (perCellHalo_) {
    if (perCellPlan_.empty() && !layout_.transfers.empty()) {
      perCellPlan_ = partition::naivePerCellTransfers(layout_);
    }
    plan = &perCellPlan_;
  }
  std::vector<graph::CopySegment> segs;
  segs.reserve(plan->size());
  for (const partition::HaloTransfer& tr : *plan) {
    graph::CopySegment s;
    s.src = v.id();
    s.srcTile = tr.srcTile;
    s.srcBegin = tr.srcLocalOffset;
    s.dst = halo.id();
    s.count = tr.count;
    for (const partition::HaloTransfer::Dst& d : tr.dsts) {
      // Halo-local offset = layout offset minus the owned prefix.
      s.dsts.push_back(
          {d.tile, d.localOffset - layout_.tiles[d.tile].numOwned});
    }
    segs.push_back(std::move(s));
  }
  if (!segs.empty()) {
    graph::ProgramPtr copy = graph::Program::copy(std::move(segs));
    double wireBytes = 0;
    for (const graph::CopySegment& s : copy->copies) {
      wireBytes += static_cast<double>(s.count * ipu::sizeOf(v.type()));
    }
    copy->copyMetrics.emplace_back("halo.bytes", wireBytes);
    copy->copyMetrics.emplace_back("halo.exchanges", 1.0);
    Context::current().emit(std::move(copy));
  }
}

void DistMatrix::spmv(Tensor& y, const Tensor& v, bool exchange,
                      const std::string& category) {
  GRAPHENE_CHECK(y.type() == v.type(), "spmv dtype mismatch");
  if (exchange) haloExchange(v);
  Tensor& halo = haloBuffer(v.type());
  graph::ComputeSetId cs = ExecuteOnTiles(
      {y, v, halo, *diag_, *offVal_, *offCol_, *offRowPtr_, *offSplit_},
      [&](std::vector<Value>& args) {
        Value yv = args[0], xv = args[1], hv = args[2], dv = args[3],
              av = args[4], cv = args[5], rp = args[6], sp = args[7];
        Value numOwned = xv.size();
        ParallelFor(0, yv.size(), [&](Value r) {
          Value acc = Value(dv[r]) * Value(xv[r]);
          // Owned-column run, then halo run (§IV layout: no per-entry
          // branching; two tight hardware loops).
          For(rp[r], sp[r], 1, [&](Value k) {
            acc = acc + Value(av[k]) * Value(xv[cv[k]]);
          });
          For(sp[r], rp[r + 1], 1, [&](Value k) {
            acc = acc + Value(av[k]) * Value(hv[Value(cv[k]) - numOwned]);
          });
          yv[r] = acc;
        });
      },
      category, activeTiles_);
  // 1 multiply per stored coefficient (diag + off-diag) and 1 add per
  // off-diagonal entry, per execution of the emitted compute set.
  graph::Graph& g = Context::current().graph();
  g.addComputeSetMetric(
      cs, "spmv.flops",
      static_cast<double>(diagHost_.size() + 2 * valHost_.size()));
  g.addComputeSetMetric(cs, "spmv.count", 1.0);
  // The check is a separate compute set: it re-reads y after the BSP sync,
  // so corruption landing on y *between* supersteps is caught too.
  if (abftEnabled_) emitAbftCheck(y, v, nullptr);
}

void DistMatrix::residualExt(Tensor& r, const Tensor& b, const Tensor& x) {
  GRAPHENE_CHECK(r.type() == b.type() && b.type() == x.type(),
                 "residualExt dtype mismatch");
  GRAPHENE_CHECK(x.type() == DType::DoubleWord || x.type() == DType::Float64 ||
                     x.type() == DType::Float32,
                 "residualExt needs an extended (or float32) type");
  haloExchange(x);
  Tensor& halo = haloBuffer(x.type());
  ExecuteOnTiles(
      {r, b, x, halo, *diag_, *offVal_, *offCol_, *offRowPtr_, *offSplit_},
      [&](std::vector<Value>& args) {
        Value rv = args[0], bv = args[1], xv = args[2], hv = args[3],
              dv = args[4], av = args[5], cv = args[6], rp = args[7],
              sp = args[8];
        Value numOwned = xv.size();
        ParallelFor(0, rv.size(), [&](Value row) {
          // acc = A x (row), accumulated in the extended type: float32
          // coefficients times extended x use the cheap DW·FP algorithms.
          Value acc = Value(dv[row]) * Value(xv[row]);
          For(rp[row], sp[row], 1, [&](Value k) {
            acc = acc + Value(av[k]) * Value(xv[cv[k]]);
          });
          For(sp[row], rp[row + 1], 1, [&](Value k) {
            acc = acc + Value(av[k]) * Value(hv[Value(cv[k]) - numOwned]);
          });
          rv[row] = Value(bv[row]) - acc;
        });
      },
      "spmv", activeTiles_);
  if (abftEnabled_) emitAbftCheck(r, x, &b);
}

void DistMatrix::recomputeAbftColumnSums() {
  // Per-tile, per-local-column coefficient sums (diagonal included), in the
  // same float32 the device multiplies with so the checksum identity sees
  // the exact coefficients the SpMV sees. Accumulated in double: the
  // checksum must not itself be the noisiest term of the compare.
  const std::size_t nTiles = layout_.numTiles;
  std::vector<double> owned, halo;
  std::size_t ownedTotal = 0, haloTotal = 0;
  for (std::size_t t = 0; t < nTiles; ++t) {
    ownedTotal += tileLocal_[t].numOwned;
    haloTotal += tileLocal_[t].numHalo;
  }
  owned.assign(ownedTotal, 0.0);
  halo.assign(haloTotal, 0.0);
  std::size_t ownedBase = 0, haloBase = 0;
  for (std::size_t t = 0; t < nTiles; ++t) {
    const TileLocal& local = tileLocal_[t];
    for (std::size_t k = 0; k < local.col.size(); ++k) {
      const auto c = static_cast<std::size_t>(local.col[k]);
      const double v = static_cast<double>(static_cast<float>(local.val[k]));
      if (c < local.numOwned) {
        owned[ownedBase + c] += v;
      } else {
        halo[haloBase + (c - local.numOwned)] += v;
      }
    }
    ownedBase += local.numOwned;
    haloBase += local.numHalo;
  }
  abftOwnedHost_.assign(owned.begin(), owned.end());
  abftHaloHost_.assign(halo.begin(), halo.end());
}

void DistMatrix::enableAbft(double tolerance) {
  if (abftEnabled_) return;
  abftEnabled_ = true;
  abftTolerance_ = tolerance;
  recomputeAbftColumnSums();

  const std::size_t nTiles = layout_.numTiles;
  Context& ctx = Context::current();
  abftColOwned_.emplace(DType::Float32, ownedMapping_,
                        ctx.freshName("abft_colsum"));
  abftColHalo_.emplace(DType::Float32, haloMapping_,
                       ctx.freshName("abft_colsum_halo"));
  // Two elements per active tile, not one: with every tile active a
  // 1-per-tile tensor is indistinguishable from a replicated scalar, and
  // reduce() would fold it *per tile* — the defect would stay on the tile
  // that found it instead of reaching the replica the host guard reads.
  std::vector<std::size_t> relSizes(nTiles, 0);
  for (std::size_t t : activeTiles_) relSizes[t] = 2;
  abftRel_.emplace(DType::Float32, graph::TileMapping::ragged(relSizes),
                   ctx.freshName("abft_rel"));
  abftFlag_.emplace(Tensor::scalar(DType::Float32, ctx.freshName("abft_flag")));
  *abftFlag_ = dsl::Expression(0.0f);
}

graph::TensorId DistMatrix::abftFlagId() const {
  GRAPHENE_CHECK(abftFlag_.has_value(), "ABFT is not enabled");
  return abftFlag_->id();
}

void DistMatrix::emitAbftCheck(const Tensor& y, const Tensor& x,
                               const Tensor* rhs) {
  Tensor& halo = haloBuffer(x.type());
  const graph::Scalar extZero = graph::Scalar::fromHostDouble(y.type(), 0.0);
  std::vector<dsl::TensorRef> tensors = {y, x, halo, *abftColOwned_,
                                         *abftColHalo_, *abftRel_};
  if (rhs != nullptr) tensors.push_back(*rhs);
  graph::ComputeSetId cs = ExecuteOnTiles(
      tensors,
      [&](std::vector<Value>& args) {
        Value yv = args[0], xv = args[1], hv = args[2], co = args[3],
              ch = args[4], relv = args[5];
        // defect accumulates in y's dtype (extended types keep their
        // precision); scale collects |term|₁ in float32 — the compare is
        // relative, so float32 headroom is plenty.
        Value defect = Value(extZero);
        Value scale = Value(0.0f);
        For(0, yv.size(), 1, [&](Value r) {
          defect = defect + Value(yv[r]);
          scale = scale + Abs(Value(yv[r]).cast(DType::Float32));
        });
        // colsum·x enters with the sign that zeroes the identity:
        //   y = A·x      ⇒ Σy − colsum·x            == 0
        //   r = b − A·x  ⇒ Σr + colsum·x − Σb       == 0
        const bool residual = rhs != nullptr;
        auto foldTerm = [&](Value term) {
          defect = residual ? defect + term : defect - term;
          scale = scale + Abs(term.cast(DType::Float32));
        };
        For(0, xv.size(), 1,
            [&](Value c) { foldTerm(Value(co[c]) * Value(xv[c])); });
        For(0, hv.size(), 1,
            [&](Value h) { foldTerm(Value(ch[h]) * Value(hv[h])); });
        if (residual) {
          Value bv = args[6];
          For(0, bv.size(), 1, [&](Value r) {
            defect = defect - Value(bv[r]);
            scale = scale + Abs(Value(bv[r]).cast(DType::Float32));
          });
        }
        Value rel = Abs(defect.cast(DType::Float32)) /
                    Max(scale, Value(1e-30f));
        relv[0] = rel;
        relv[1] = Value(0.0f);  // padding slot (see enableAbft)
      },
      "abft", activeTiles_);
  Context::current().graph().addComputeSetMetric(cs, "resilience.abft.checks",
                                                 1.0);
  // Fold this check's worst tile into the sticky flag scalar; the host
  // guard reads it against the tolerance and writes 0 to re-arm.
  *abftFlag_ = dsl::Max(dsl::Expression(*abftFlag_),
                        abftRel_->reduce(dsl::ReduceKind::Max));
}

void DistMatrix::updateValues(const matrix::CsrMatrix& a) {
  GRAPHENE_CHECK(a.rows() == rows(), "updateValues: row count changed (",
                 a.rows(), " vs ", rows(), ")");
  auto rowPtr = a.rowPtr();
  auto colIdx = a.colIdx();
  auto values = a.values();

  // Re-run the constructor's localisation walk, values only. The entry sort
  // is by local column (unique per row), so the permutation is identical to
  // the one the structure was built with — each sorted entry must land on
  // the same local column, which is exactly the structure-identity check.
  const std::size_t nTiles = layout_.numTiles;
  for (std::size_t t = 0; t < nTiles; ++t) {
    const partition::TileLayout& tl = layout_.tiles[t];
    TileLocal& local = tileLocal_[t];
    std::unordered_map<std::size_t, std::int32_t> globalToLocal;
    globalToLocal.reserve(tl.localToGlobal.size());
    for (std::size_t i = 0; i < tl.localToGlobal.size(); ++i) {
      globalToLocal[tl.localToGlobal[i]] = static_cast<std::int32_t>(i);
    }
    std::size_t cursor = 0;  // into local.col / local.val
    for (std::size_t i = 0; i < tl.numOwned; ++i) {
      const std::size_t g = tl.localToGlobal[i];
      GRAPHENE_CHECK(
          rowPtr[g + 1] - rowPtr[g] == local.rowPtr[i + 1] - local.rowPtr[i],
          "updateValues: sparsity structure changed at row ", g,
          " — rebuild the DistMatrix instead");
      std::vector<std::pair<std::int32_t, double>> entries;
      for (std::size_t k = rowPtr[g]; k < rowPtr[g + 1]; ++k) {
        auto it = globalToLocal.find(static_cast<std::size_t>(colIdx[k]));
        GRAPHENE_CHECK(it != globalToLocal.end(),
                       "updateValues: sparsity structure changed at row ", g,
                       " — rebuild the DistMatrix instead");
        entries.emplace_back(it->second, values[k]);
      }
      std::sort(entries.begin(), entries.end());
      for (const auto& [c, v] : entries) {
        GRAPHENE_CHECK(local.col[cursor] == c,
                       "updateValues: sparsity structure changed at row ", g,
                       " — rebuild the DistMatrix instead");
        local.val[cursor] = v;
        ++cursor;
      }
    }
  }

  // Refresh the upload() staging from the updated tile-local values (same
  // diag/off-diag split walk as the constructor; structure arrays keep).
  diagHost_.clear();
  valHost_.clear();
  for (std::size_t t = 0; t < nTiles; ++t) {
    const TileLocal& local = tileLocal_[t];
    for (std::size_t i = 0; i < local.numOwned; ++i) {
      for (std::size_t k = local.rowPtr[i]; k < local.rowPtr[i + 1]; ++k) {
        if (local.col[k] == static_cast<std::int32_t>(i)) {
          diagHost_.push_back(static_cast<float>(local.val[k]));
          GRAPHENE_CHECK(diagHost_.back() != 0.0f,
                         "modified CRS requires a nonzero diagonal");
        } else {
          valHost_.push_back(static_cast<float>(local.val[k]));
        }
      }
    }
  }
  GRAPHENE_CHECK(valHost_.size() == colHost_.size(),
                 "updateValues: staging size mismatch after refresh");

  if (abftEnabled_) recomputeAbftColumnSums();
}

void DistMatrix::upload(graph::Engine& engine) const {
  engine.writeTensor<float>(diag_->id(), diagHost_);
  engine.writeTensor<float>(offVal_->id(), valHost_);
  engine.writeTensor<std::int32_t>(offCol_->id(), colHost_);
  engine.writeTensor<std::int32_t>(offRowPtr_->id(), rowPtrHost_);
  engine.writeTensor<std::int32_t>(offSplit_->id(), splitHost_);
  if (abftColOwned_.has_value()) {
    engine.writeTensor<float>(abftColOwned_->id(), abftOwnedHost_);
    engine.writeTensor<float>(abftColHalo_->id(), abftHaloHost_);
  }
}

void DistMatrix::writeVector(graph::Engine& engine, const Tensor& v,
                             std::span<const double> globalValues) const {
  GRAPHENE_CHECK(globalValues.size() == rows(), "vector size mismatch");
  GRAPHENE_CHECK(v.info().mapping == ownedMapping_,
                 "writeVector needs an owned-mapped vector");
  const DType t = v.type();
  for (std::size_t g = 0; g < globalValues.size(); ++g) {
    const std::size_t tile = layout_.rowToTile[g];
    const std::size_t flat =
        ownedFlatOffset_[tile] + layout_.globalToLocalOwned[g];
    engine.storeElement(v.id(), flat,
                        graph::Scalar::fromHostDouble(t, globalValues[g]));
  }
}

std::vector<double> DistMatrix::readVector(graph::Engine& engine,
                                           const Tensor& v) const {
  GRAPHENE_CHECK(v.info().mapping == ownedMapping_,
                 "readVector needs an owned-mapped vector");
  return readVectorById(engine, v.id());
}

std::vector<double> DistMatrix::readVectorById(graph::Engine& engine,
                                               graph::TensorId id) const {
  std::vector<double> out(rows());
  for (std::size_t g = 0; g < out.size(); ++g) {
    const std::size_t tile = layout_.rowToTile[g];
    const std::size_t flat =
        ownedFlatOffset_[tile] + layout_.globalToLocalOwned[g];
    out[g] = engine.loadElement(id, flat).toHostDouble();
  }
  return out;
}

}  // namespace graphene::solver
