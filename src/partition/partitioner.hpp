// Pod-aware row→tile partitioning behind one object.
//
// `Partitioner` carries the machine topology, the tile blacklist and the
// strategy in one value, and produces either a raw row→tile map or the full
// §IV halo layout.
//
// On a pod the assignment is hierarchical, mirroring the machine's two-level
// interconnect: rows are first split across IPUs minimizing the cut surface
// (cheap on-chip fabric inside a subdomain, expensive IPU-Links across), and
// each IPU's rows are then tiled across its surviving tiles. For grid
// matrices both stages use nested block-grid decomposition; unstructured
// matrices (or pods with dead tiles) use BFS-grown connected subdomains,
// weighted by each IPU's surviving tile count.
//
//   partition::Partitioner p(Topology::pod(4, 16));
//   p.setBlacklist({7, 21});
//   auto layout = p.layout(g);          // or p.map(g) for the raw map
#pragma once

#include <cstddef>
#include <vector>

#include "ipu/topology.hpp"
#include "matrix/csr.hpp"
#include "matrix/generators.hpp"
#include "partition/halo.hpp"

namespace graphene::partition {

class Partitioner {
 public:
  enum class Strategy {
    Auto,    ///< block-grid when geometry is available, BFS otherwise
    Grid,    ///< require geometry, always block-grid
    Bfs,     ///< always BFS-grown connected chunks
    Linear,  ///< contiguous row blocks (baseline / debugging)
  };

  explicit Partitioner(ipu::Topology topology,
                       Strategy strategy = Strategy::Auto);

  /// Rows are never placed on these global tile ids (hard-fault remap).
  Partitioner& setBlacklist(std::vector<std::size_t> deadTiles);

  const ipu::Topology& topology() const { return topology_; }
  const std::vector<std::size_t>& blacklist() const { return blacklist_; }
  Strategy strategy() const { return strategy_; }

  /// Row → global tile id. Global tile ids are IPU-major
  /// (tile = ipu * tilesPerIpu + localTile), matching IpuTarget::ipuOfTile.
  std::vector<std::size_t> map(const matrix::GeneratedMatrix& g) const;

  /// map() + §IV halo layout (regions, blockwise exchange plan) in one step.
  DistributedLayout layout(const matrix::GeneratedMatrix& g) const;

 private:
  ipu::Topology topology_;
  Strategy strategy_;
  std::vector<std::size_t> blacklist_;
};

/// Structural entries (i,j), i != j, whose endpoints land on different IPUs
/// under `rowToTile` — the cut surface the pod-aware split minimizes, and
/// the direct driver of link traffic per SpMV.
std::size_t interIpuCut(const matrix::CsrMatrix& a,
                        const std::vector<std::size_t>& rowToTile,
                        const ipu::Topology& topology);

}  // namespace graphene::partition
