// Tests for partitioning and the §IV halo-region reordering strategy.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "matrix/generators.hpp"
#include "partition/halo.hpp"
#include "partition/partition.hpp"
#include "partition/partitioner.hpp"

using namespace graphene;
using namespace graphene::partition;

TEST(Partition, LinearIsBalancedAndContiguous) {
  auto p = partitionLinear(103, 8);
  auto sizes = partitionSizes(p, 8);
  for (std::size_t s : sizes) {
    EXPECT_GE(s, 12u);
    EXPECT_LE(s, 13u);
  }
  for (std::size_t i = 1; i < p.size(); ++i) EXPECT_GE(p[i], p[i - 1]);
}

TEST(Partition, GridCoversAllTilesEvenly) {
  auto p = partitionGrid(16, 16, 16, 8);
  auto sizes = partitionSizes(p, 8);
  for (std::size_t s : sizes) EXPECT_EQ(s, 512u);  // 8x8x8 blocks
}

TEST(Partition, GridHandlesNonCubicFactorisations) {
  auto p = partitionGrid(20, 10, 5, 6);
  auto sizes = partitionSizes(p, 6);
  std::size_t total = std::accumulate(sizes.begin(), sizes.end(), std::size_t{0});
  EXPECT_EQ(total, 1000u);
  for (std::size_t s : sizes) {
    EXPECT_GT(s, 0u);
    EXPECT_LT(s, 400u);  // roughly balanced
  }
}

TEST(Partition, BfsAssignsEveryRowToValidTile) {
  auto g = matrix::g3CircuitLike(3000);
  auto p = partitionBfs(g.matrix, 7);
  auto sizes = partitionSizes(p, 7);
  std::size_t total = std::accumulate(sizes.begin(), sizes.end(), std::size_t{0});
  EXPECT_EQ(total, g.matrix.rows());
  // Balance within 2x of the average.
  double avg = static_cast<double>(total) / 7.0;
  for (std::size_t s : sizes) {
    EXPECT_GT(static_cast<double>(s), 0.3 * avg);
    EXPECT_LT(static_cast<double>(s), 2.0 * avg);
  }
}

// ---------------------------------------------------------------------------
// Halo layout invariants (property-checked over several matrices/partitions)
// ---------------------------------------------------------------------------

struct LayoutCase {
  const char* name;
  matrix::GeneratedMatrix (*make)();
  std::size_t tiles;
};

matrix::GeneratedMatrix mesh8x8() { return matrix::poisson2d5(8, 8); }
matrix::GeneratedMatrix mesh3d() { return matrix::poisson3d7(8, 8, 8); }
matrix::GeneratedMatrix circuit() { return matrix::g3CircuitLike(2000); }
matrix::GeneratedMatrix shell() { return matrix::afShellLike(1500); }

class HaloLayoutInvariants : public ::testing::TestWithParam<LayoutCase> {};

TEST_P(HaloLayoutInvariants, EveryCellAppearsExactlyOnceAsOwned) {
  const LayoutCase& c = GetParam();
  auto g = c.make();
  auto layout =
      Partitioner(ipu::Topology::singleIpu(c.tiles)).layout(g);
  std::vector<int> seen(g.matrix.rows(), 0);
  for (const TileLayout& tl : layout.tiles) {
    for (std::size_t i = 0; i < tl.numOwned; ++i) {
      ++seen[tl.localToGlobal[i]];
      EXPECT_EQ(layout.rowToTile[tl.localToGlobal[i]], tl.tile);
    }
  }
  for (int s : seen) EXPECT_EQ(s, 1);
}

TEST_P(HaloLayoutInvariants, HaloCopiesCoverAllRemoteReferences) {
  // Every column referenced by a row on tile t must be readable on t:
  // either owned there or present in t's halo.
  const LayoutCase& c = GetParam();
  auto g = c.make();
  auto layout = Partitioner(ipu::Topology::singleIpu(c.tiles)).layout(g);
  auto rowPtr = g.matrix.rowPtr();
  auto col = g.matrix.colIdx();
  for (const TileLayout& tl : layout.tiles) {
    std::set<std::size_t> visible(tl.localToGlobal.begin(),
                                  tl.localToGlobal.end());
    for (std::size_t i = 0; i < tl.numOwned; ++i) {
      std::size_t r = tl.localToGlobal[i];
      for (std::size_t k = rowPtr[r]; k < rowPtr[r + 1]; ++k) {
        EXPECT_TRUE(visible.count(static_cast<std::size_t>(col[k])))
            << "tile " << tl.tile << " row " << r << " needs col " << col[k];
      }
    }
  }
}

TEST_P(HaloLayoutInvariants, RegionsPartitionSeparatorCells) {
  const LayoutCase& c = GetParam();
  auto g = c.make();
  auto layout = Partitioner(ipu::Topology::singleIpu(c.tiles)).layout(g);
  std::set<std::size_t> inRegions;
  for (const Region& region : layout.regions) {
    EXPECT_FALSE(region.consumerTiles.empty());
    for (std::size_t t : region.consumerTiles) {
      EXPECT_NE(t, region.ownerTile);
    }
    // Consistent ordering: ascending global ids.
    for (std::size_t i = 1; i < region.cells.size(); ++i) {
      EXPECT_LT(region.cells[i - 1], region.cells[i]);
    }
    for (std::size_t r : region.cells) {
      EXPECT_TRUE(inRegions.insert(r).second) << "cell in two regions";
      EXPECT_EQ(layout.rowToTile[r], region.ownerTile);
    }
  }
  EXPECT_EQ(inRegions.size(), layout.numSeparatorCells());
}

TEST_P(HaloLayoutInvariants, ConsistentOrderingAcrossSeparatorAndHalos) {
  // The §IV core property: the cell order inside a separator region equals
  // the cell order inside every corresponding halo region, so a blockwise
  // copy lands every value at the right local slot.
  const LayoutCase& c = GetParam();
  auto g = c.make();
  auto layout = Partitioner(ipu::Topology::singleIpu(c.tiles)).layout(g);
  for (const HaloTransfer& tr : layout.transfers) {
    const Region& region = layout.regions[tr.regionId];
    const TileLayout& src = layout.tiles[tr.srcTile];
    for (std::size_t i = 0; i < tr.count; ++i) {
      EXPECT_EQ(src.localToGlobal[tr.srcLocalOffset + i], region.cells[i]);
    }
    for (const HaloTransfer::Dst& d : tr.dsts) {
      const TileLayout& dst = layout.tiles[d.tile];
      for (std::size_t i = 0; i < tr.count; ++i) {
        EXPECT_EQ(dst.localToGlobal[d.localOffset + i], region.cells[i]);
      }
    }
  }
}

TEST_P(HaloLayoutInvariants, TransfersAreBlockwiseBroadcasts) {
  const LayoutCase& c = GetParam();
  auto g = c.make();
  auto layout = Partitioner(ipu::Topology::singleIpu(c.tiles)).layout(g);
  // One transfer per region, broadcast to all consumers.
  EXPECT_EQ(layout.transfers.size(), layout.regions.size());
  std::size_t cellsMoved = 0;
  for (const HaloTransfer& tr : layout.transfers) {
    cellsMoved += tr.count * tr.dsts.size();
  }
  EXPECT_EQ(cellsMoved, layout.numHaloCopies());
  // Fewer transfer instructions than the per-cell baseline.
  auto naive = naivePerCellTransfers(layout);
  EXPECT_EQ(naive.size(), layout.numSeparatorCells());
  EXPECT_LE(layout.transfers.size(), naive.size());
}

TEST_P(HaloLayoutInvariants, PermutationIsValid) {
  const LayoutCase& c = GetParam();
  auto g = c.make();
  auto layout = Partitioner(ipu::Topology::singleIpu(c.tiles)).layout(g);
  auto perm = layout.reorderingPermutation();
  std::vector<int> seen(perm.size(), 0);
  for (std::size_t p : perm) {
    ASSERT_LT(p, perm.size());
    ++seen[p];
  }
  for (int s : seen) EXPECT_EQ(s, 1);
  // Applying the permutation keeps the matrix symmetric & well-formed.
  auto b = g.matrix.permuted(perm);
  EXPECT_EQ(b.nnz(), g.matrix.nnz());
  EXPECT_TRUE(b.isSymmetric(1e-10));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, HaloLayoutInvariants,
    ::testing::Values(LayoutCase{"mesh8x8_4t", &mesh8x8, 4},
                      LayoutCase{"mesh8x8_7t", &mesh8x8, 7},
                      LayoutCase{"mesh3d_8t", &mesh3d, 8},
                      LayoutCase{"mesh3d_5t", &mesh3d, 5},
                      LayoutCase{"circuit_6t", &circuit, 6},
                      LayoutCase{"shell_9t", &shell, 9}),
    [](const ::testing::TestParamInfo<LayoutCase>& info) {
      return info.param.name;
    });

TEST(HaloLayout, PaperFigure3MeshExample) {
  // The paper's Fig. 3: an 8x8 mesh partitioned across four tiles. Tile 1
  // (top-right quadrant in their figure) must exchange edge regions with two
  // direct neighbours and a corner region involving all.
  auto g = matrix::poisson2d5(8, 8);
  auto layout = buildLayout(g.matrix, partitionGrid(8, 8, 1, 4), 4);

  // 4x4 blocks: 16 cells per tile.
  for (const TileLayout& tl : layout.tiles) {
    EXPECT_EQ(tl.numOwned, 16u);
    // Interior of each 4x4 block (5-point stencil): the 3x3 corner block
    // away from both cut lines ⇒ 9 interior cells.
    EXPECT_EQ(tl.numInterior, 9u);
    // Separator: 7 cells (one edge of 4 + one of 4 sharing the corner).
    EXPECT_EQ(tl.numOwned - tl.numInterior, 7u);
    // Halo: mirrored separators from the two adjacent quadrants: 4 + 4.
    EXPECT_EQ(tl.numHalo, 8u);
    // Three separator regions: the edge toward each direct neighbour (3
    // cells each) plus the cut-corner cell, which both neighbours require
    // and which therefore forms its own broadcast region.
    EXPECT_EQ(tl.separatorRegions.size(), 3u);
    // Four halo regions consumed: each neighbour's facing edge (3 cells)
    // plus each neighbour's corner region (1 cell).
    EXPECT_EQ(tl.haloRegions.size(), 4u);
  }
  // 3 regions per tile, 12 in total; the corner regions have two consumers
  // (broadcast in a single blockwise transfer — the §IV payoff).
  EXPECT_EQ(layout.regions.size(), 12u);
  std::size_t broadcast = 0;
  for (const Region& r : layout.regions) {
    if (r.consumerTiles.size() == 2) {
      EXPECT_EQ(r.cells.size(), 1u);  // the cut corner
      ++broadcast;
    }
  }
  EXPECT_EQ(broadcast, 4u);
}

TEST(HaloLayout, BroadcastRegionsAppearFor3dStencils) {
  // A 7-point stencil split along two axes creates edge cells required by
  // two neighbours — regions with multiple consumers exercised here.
  auto g = matrix::poisson3d7(8, 8, 8);
  auto layout = buildLayout(g.matrix, partitionGrid(8, 8, 8, 8), 8);
  std::size_t broadcastRegions = 0;
  for (const Region& r : layout.regions) {
    if (r.consumerTiles.size() > 1) ++broadcastRegions;
  }
  EXPECT_GT(broadcastRegions, 0u);
  // Broadcast saves sends: the blockwise plan issues fewer transfers than
  // there are (region, consumer) pairs.
  std::size_t pairs = 0;
  for (const Region& r : layout.regions) pairs += r.consumerTiles.size();
  EXPECT_LT(layout.transfers.size(), pairs);
}

TEST(HaloLayout, SingleTileHasNoHalo) {
  auto g = matrix::poisson2d5(6, 6);
  auto layout = buildLayout(g.matrix, partitionLinear(36, 1), 1);
  EXPECT_TRUE(layout.regions.empty());
  EXPECT_TRUE(layout.transfers.empty());
  EXPECT_EQ(layout.tiles[0].numOwned, 36u);
  EXPECT_EQ(layout.tiles[0].numInterior, 36u);
  EXPECT_EQ(layout.tiles[0].numHalo, 0u);
}

// ---------------------------------------------------------------------------
// Pod-aware partitioning (multi-IPU)
// ---------------------------------------------------------------------------

TEST(PodPartition, MapIsIpuMajorAndComplete) {
  auto g = matrix::poisson3d7(12, 12, 12);
  const ipu::Topology topo = ipu::Topology::pod(4, 8);
  auto map = Partitioner(topo).map(g);
  ASSERT_EQ(map.size(), g.matrix.rows());
  std::vector<std::size_t> rowsPerIpu(4, 0);
  for (std::size_t t : map) {
    ASSERT_LT(t, topo.totalTiles());
    ++rowsPerIpu[topo.target().ipuOfTile(t)];
  }
  // Every chip carries a share, balanced within 2x of the mean.
  const double avg = static_cast<double>(g.matrix.rows()) / 4.0;
  for (std::size_t r : rowsPerIpu) {
    EXPECT_GT(static_cast<double>(r), 0.4 * avg);
    EXPECT_LT(static_cast<double>(r), 2.0 * avg);
  }
}

TEST(PodPartition, CutSurfaceMonotoneInPodSize) {
  // More chips at fixed tiles/chip = more subdomain surface crossing links.
  auto g = matrix::poisson3d7(12, 12, 12);
  std::size_t prev = 0;
  for (std::size_t ipus : {2u, 4u, 8u}) {
    const ipu::Topology topo = ipu::Topology::pod(ipus, 16);
    auto map = Partitioner(topo).map(g);
    const std::size_t cut = interIpuCut(g.matrix, map, topo);
    EXPECT_GT(cut, 0u);
    EXPECT_GE(cut, prev);
    prev = cut;
  }
}

TEST(PodPartition, PodAwareCutNoWorseThanLinearBaseline) {
  // The hierarchical split must not cross more links than the naive
  // contiguous-blocks baseline on a structured grid.
  auto g = matrix::poisson3d7(16, 16, 16);
  const ipu::Topology topo = ipu::Topology::pod(4, 16);
  const std::size_t podCut =
      interIpuCut(g.matrix, Partitioner(topo).map(g), topo);
  const std::size_t linCut = interIpuCut(
      g.matrix, Partitioner(topo, Partitioner::Strategy::Linear).map(g),
      topo);
  EXPECT_LE(podCut, linCut);
}

TEST(PodPartition, InterIpuCutCountsOnlyCrossChipEdges) {
  // 2x2 grid, rows {0,1} on chip 0 and {2,3} on chip 1: exactly the four
  // structural entries (0,2),(2,0),(1,3),(3,1) cross the link.
  auto g = matrix::poisson2d5(2, 2);
  const ipu::Topology topo = ipu::Topology::pod(2, 1);
  const std::vector<std::size_t> map = {0, 0, 1, 1};
  EXPECT_EQ(interIpuCut(g.matrix, map, topo), 4u);
  // Everything on one chip: no cut.
  const std::vector<std::size_t> oneChip = {0, 0, 0, 0};
  EXPECT_EQ(interIpuCut(g.matrix, oneChip, topo), 0u);
}

TEST(PodPartition, BlacklistRemapsAcrossIpuBoundaries) {
  // Kill chip 1 entirely plus one tile of chip 2: rows must migrate across
  // IPU boundaries onto surviving tiles only, weighted by surviving
  // capacity, and the layout must still build.
  auto g = matrix::poisson3d7(10, 10, 10);
  const ipu::Topology topo = ipu::Topology::pod(4, 8);
  std::vector<std::size_t> dead = {8, 9, 10, 11, 12, 13, 14, 15, 17};
  Partitioner part(topo);
  part.setBlacklist(dead);
  auto map = part.map(g);
  ASSERT_EQ(map.size(), g.matrix.rows());
  std::set<std::size_t> deadSet(dead.begin(), dead.end());
  std::vector<std::size_t> rowsPerIpu(4, 0);
  for (std::size_t t : map) {
    ASSERT_LT(t, topo.totalTiles());
    EXPECT_FALSE(deadSet.count(t)) << "row placed on dead tile " << t;
    ++rowsPerIpu[topo.target().ipuOfTile(t)];
  }
  EXPECT_EQ(rowsPerIpu[1], 0u);  // the dead chip carries nothing
  // Chip 2 lost 1 of 8 tiles; it still carries rows, but fewer than the
  // intact chips.
  EXPECT_GT(rowsPerIpu[2], 0u);
  EXPECT_LT(rowsPerIpu[2], rowsPerIpu[0]);
  EXPECT_LT(rowsPerIpu[2], rowsPerIpu[3]);
  auto layout = part.layout(g);
  EXPECT_EQ(layout.tiles.size(), topo.totalTiles());
}
