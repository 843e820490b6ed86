// DistMatrix — a sparse matrix distributed across the tiles of the simulated
// IPU, in the framework's modified-CRS device format (§II-C) with the §IV
// halo-region layout.
//
// Per tile it holds: the dense diagonal of its owned rows, the off-diagonal
// CRS arrays with *local* column indices into [owned | halo] space, and the
// blockwise halo-exchange plan. SpMV and the extended-precision residual of
// the MPIR method are emitted as CodeDSL codelets using all six workers.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "dsl/tensor.hpp"
#include "graph/engine.hpp"
#include "matrix/csr.hpp"
#include "partition/halo.hpp"

namespace graphene::solver {

using dsl::DType;
using dsl::Tensor;

class DistMatrix {
 public:
  /// Builds device structures from a host matrix and a row→tile layout.
  /// Requires an active dsl::Context.
  DistMatrix(const matrix::CsrMatrix& a, partition::DistributedLayout layout);

  const partition::DistributedLayout& layout() const { return layout_; }
  std::size_t rows() const { return layout_.rowToTile.size(); }

  /// Tiles that own at least one row (vertices are only placed there).
  const std::vector<std::size_t>& activeTiles() const { return activeTiles_; }

  /// The per-tile owned-row mapping shared by all solver vectors.
  const graph::TileMapping& ownedMapping() const { return ownedMapping_; }

  /// Creates a vector with the owned-row mapping.
  Tensor makeVector(DType type = DType::Float32,
                    const std::string& name = "") const;

  /// Emits the blockwise halo exchange: separator regions of `v` are
  /// broadcast into this matrix's halo buffer for v's dtype.
  void haloExchange(const Tensor& v);

  /// Switches halo exchanges to the per-cell baseline plan (one transfer
  /// per separator cell — what a compiler without the §IV reordering would
  /// emit). Same payloads and numerics, far more exchange instructions;
  /// exists for A/B profiling of the reordering (SessionOptions.perCellHalo).
  /// Must be set before the solver program is emitted.
  void setPerCellHalo(bool on) { perCellHalo_ = on; }
  bool perCellHalo() const { return perCellHalo_; }

  /// Emits y = A·v. `exchange=false` skips the halo update (the scaling
  /// benches measure compute-only this way; values in the halo buffer are
  /// then whatever the last exchange left).
  void spmv(Tensor& y, const Tensor& v, bool exchange = true,
            const std::string& category = "spmv");

  /// Emits r = b − A·x with x, b, r all in an extended type (DoubleWord or
  /// Float64); matrix coefficients stay float32 (MPIR step 1, §V-B).
  void residualExt(Tensor& r, const Tensor& b, const Tensor& x);

  /// Enables ABFT checksum verification (algorithm-based fault tolerance,
  /// Huang & Abraham style). Per tile the identity
  ///   Σ_rows y[r] == Σ_cols colsum[c]·x[c]
  /// holds for y = A·x, where colsum is the per-local-column sum of the
  /// tile's coefficients (diagonal included). After this call every spmv()
  /// and residualExt() emission appends a checksum-check compute set that
  /// evaluates the per-tile relative defect and folds its maximum into the
  /// ABFT flag scalar. `tolerance` is the relative defect above which a
  /// check counts as a mismatch (rounding headroom: the identity is exact
  /// only in exact arithmetic). Must be called before the spmv emissions it
  /// should guard; it is a no-op on repeat calls.
  void enableAbft(double tolerance);
  bool abftEnabled() const { return abftEnabled_; }
  double abftTolerance() const { return abftTolerance_; }

  /// Replicated float32 scalar: the maximum relative checksum defect folded
  /// in since the last reset. Host guards read it after each iteration and
  /// write 0 to re-arm (valid only after enableAbft()).
  graph::TensorId abftFlagId() const;

  /// Uploads the matrix coefficients (must run before the program).
  void upload(graph::Engine& engine) const;

  /// Replaces the coefficients with those of `a`, which must have the
  /// *identical* sparsity structure (same rowPtr/colIdx) this DistMatrix was
  /// built from — any structural difference is a hard error. Refreshes the
  /// host staging that upload() pushes (ABFT column checksums included), so
  /// an already-emitted program re-executes against the new values after the
  /// next upload(). Caveat: factorisation preconditioners ((D)ILU,
  /// Gauss-Seidel) capture host value arrays at emission time and are NOT
  /// refreshed — value-only reuse is only sound for solver chains without
  /// them (the plan cache enforces this).
  void updateValues(const matrix::CsrMatrix& a);

  /// Host→device write of a vector in *global row order* (any dtype).
  void writeVector(graph::Engine& engine, const Tensor& v,
                   std::span<const double> globalValues) const;

  /// Device→host read of a vector back to global row order.
  std::vector<double> readVector(graph::Engine& engine, const Tensor& v) const;

  /// Same, addressed by tensor id. The tensor must use the owned-row
  /// mapping (any dtype) — the hard-fault migration path uses this to pull
  /// a solver's checkpoint out of a dying engine.
  std::vector<double> readVectorById(graph::Engine& engine,
                                     graph::TensorId id) const;

  /// Host-side local structure of one tile's owned submatrix (full rows
  /// including the diagonal, local column indices into [owned | halo]).
  /// Used by the (D)ILU and Gauss-Seidel builders.
  struct TileLocal {
    std::size_t numOwned = 0;
    std::size_t numHalo = 0;
    std::vector<std::size_t> rowPtr;   // numOwned + 1
    std::vector<std::int32_t> col;     // local indices, ascending per row
    std::vector<double> val;
  };
  const std::vector<TileLocal>& tileLocal() const { return tileLocal_; }

  /// Device tensors (for custom codelets).
  Tensor& diagonal() { return *diag_; }
  Tensor& offVal() { return *offVal_; }
  Tensor& offCol() { return *offCol_; }
  Tensor& offRowPtr() { return *offRowPtr_; }
  /// Per row: offset into the off-diagonal arrays where the halo-referencing
  /// entries begin. Local column indices are sorted, and halo copies live
  /// *after* the owned cells (§IV layout), so every row splits into an
  /// owned-column run followed by a halo run — the generated codelets loop
  /// over each run without per-entry branching.
  Tensor& haloSplit() { return *offSplit_; }
  Tensor& haloBuffer(DType type);

  /// Exchange-plan statistics (ablation bench): transfers in the blockwise
  /// plan vs the per-cell baseline.
  std::size_t numBlockwiseTransfers() const { return layout_.transfers.size(); }

 private:
  partition::DistributedLayout layout_;
  graph::TileMapping ownedMapping_;
  graph::TileMapping haloMapping_;
  std::vector<std::size_t> activeTiles_;
  std::vector<std::size_t> ownedFlatOffset_;  // per tile, into owned tensors
  bool perCellHalo_ = false;
  /// Cached per-cell plan (built lazily on first per-cell haloExchange).
  std::vector<partition::HaloTransfer> perCellPlan_;

  std::vector<TileLocal> tileLocal_;

  /// Recomputes abftOwnedHost_/abftHaloHost_ from tileLocal_ (enableAbft
  /// and updateValues share it).
  void recomputeAbftColumnSums();

  /// Emits the ABFT checksum check for an spmv-shaped emission. For
  /// y = A·x pass rhs == nullptr; for r = b − A·x pass rhs = &b (the
  /// identity then reads Σr + colsum·x − Σb == 0).
  void emitAbftCheck(const Tensor& y, const Tensor& x, const Tensor* rhs);

  // Device tensors (optional: constructed in ctor; pointers keep Tensor
  // default-constructible-free).
  std::optional<Tensor> diag_, offVal_, offCol_, offRowPtr_, offSplit_;
  std::map<DType, Tensor> haloBuffers_;

  // ABFT state (allocated by enableAbft).
  bool abftEnabled_ = false;
  double abftTolerance_ = 1e-3;
  std::optional<Tensor> abftColOwned_, abftColHalo_;  // per-column checksums
  std::optional<Tensor> abftRel_;   // per-active-tile relative defect
  std::optional<Tensor> abftFlag_;  // replicated max-defect scalar

  // Host staging for upload().
  std::vector<float> diagHost_, valHost_;
  std::vector<std::int32_t> colHost_, rowPtrHost_, splitHost_;
  std::vector<float> abftOwnedHost_, abftHaloHost_;
};

}  // namespace graphene::solver
