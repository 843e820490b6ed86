// The dataflow graph: tensor variables, codelets, and compute sets, plus the
// per-tile SRAM ledger that constrains them. The Engine executes Programs
// against a Graph.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "graph/codelet.hpp"
#include "graph/program.hpp"
#include "graph/tensor.hpp"
#include "ipu/cost_model.hpp"
#include "ipu/memory.hpp"
#include "ipu/target.hpp"

namespace graphene::graph {

class Graph {
 public:
  explicit Graph(ipu::IpuTarget target)
      : target_(target), ledger_(target) {}

  const ipu::IpuTarget& target() const { return target_; }

  /// The tile hosting control state: reduction gathers/finals, the
  /// authoritative replica of replicated scalars (loop conditions,
  /// convergence flags) and their host-side reads. Defaults to tile 0. A
  /// resilience layer that blacklists tiles must point it at a surviving
  /// tile *before* programs are emitted — control placed on a dead tile
  /// would freeze every loop condition at its last value.
  std::size_t controlTile() const { return controlTile_; }
  void setControlTile(std::size_t tile) {
    GRAPHENE_CHECK(tile < target_.totalTiles(), "control tile ", tile,
                   " out of range for ", target_.totalTiles(), " tiles");
    controlTile_ = tile;
  }

  /// Tiles that must not host reduction leaders or other per-IPU control
  /// state (dead tiles under a hard-fault blacklist). Like the control tile,
  /// this must be set *before* programs are emitted.
  void setExcludedTiles(std::vector<std::size_t> tiles) {
    for (std::size_t t : tiles) {
      GRAPHENE_CHECK(t < target_.totalTiles(), "excluded tile ", t,
                     " out of range for ", target_.totalTiles(), " tiles");
    }
    excludedTiles_ = std::move(tiles);
  }
  const std::vector<std::size_t>& excludedTiles() const {
    return excludedTiles_;
  }
  bool tileExcluded(std::size_t tile) const {
    for (std::size_t t : excludedTiles_) {
      if (t == tile) return true;
    }
    return false;
  }

  ipu::CostModel& costModel() { return costModel_; }
  const ipu::CostModel& costModel() const { return costModel_; }

  /// Creates a tensor variable; reserves its SRAM on every mapped tile.
  TensorId addTensor(TensorInfo info);

  const TensorInfo& tensor(TensorId id) const;
  std::size_t numTensors() const { return tensors_.size(); }

  CodeletId addCodelet(Codelet codelet);
  const Codelet& codelet(CodeletId id) const;
  std::size_t numCodelets() const { return codelets_.size(); }

  ComputeSetId addComputeSet(std::string category);
  void addVertex(ComputeSetId cs, Vertex v);
  /// Registers a counter ticked into Profile::metrics on every execution of
  /// `cs` (e.g. SpMV FLOPs). Cheap: the engine walks an almost-always-empty
  /// list per superstep.
  void addComputeSetMetric(ComputeSetId cs, std::string name, double value);
  const ComputeSet& computeSet(ComputeSetId id) const;
  std::size_t numComputeSets() const { return computeSets_.size(); }

  const ipu::TileMemoryLedger& ledger() const { return ledger_; }

 private:
  ipu::IpuTarget target_;
  std::size_t controlTile_ = 0;
  std::vector<std::size_t> excludedTiles_;
  ipu::CostModel costModel_;
  ipu::TileMemoryLedger ledger_;
  std::vector<TensorInfo> tensors_;
  std::vector<Codelet> codelets_;
  std::vector<ComputeSet> computeSets_;
};

}  // namespace graphene::graph
