// Row→tile partitioning strategies.
//
// The framework distributes the matrix row-wise across all tiles (§II-B).
// For grid-derived matrices a block-grid decomposition minimises the
// surface-to-volume ratio; for unstructured matrices a BFS-grown partition
// keeps subdomains connected.
#pragma once

#include <cstddef>
#include <vector>

#include "matrix/csr.hpp"

namespace graphene::partition {

/// Contiguous row blocks of (almost) equal size.
std::vector<std::size_t> partitionLinear(std::size_t rows, std::size_t tiles);

/// Factors `tiles` into px*py*pz as close to a cube as possible
/// (px >= py >= pz, px*py*pz == tiles). Shared by the flat and the nested
/// (pod) grid decompositions.
void factorCubic(std::size_t tiles, std::size_t& px, std::size_t& py,
                 std::size_t& pz);

/// Block-grid decomposition of an nx × ny × nz grid into `tiles` cuboidal
/// subdomains (tiles is factored into px·py·pz as cubically as possible).
/// Cell (x,y,z) keeps the generator's index order: idx = (z*ny + y)*nx + x.
std::vector<std::size_t> partitionGrid(std::size_t nx, std::size_t ny,
                                       std::size_t nz, std::size_t tiles);

/// BFS-grown partition for unstructured matrices: grows connected chunks of
/// ~rows/tiles cells following the adjacency of A.
std::vector<std::size_t> partitionBfs(const matrix::CsrMatrix& a,
                                      std::size_t tiles);

/// Number of rows per tile (validation / balance statistics).
std::vector<std::size_t> partitionSizes(const std::vector<std::size_t>& rowToTile,
                                        std::size_t tiles);

}  // namespace graphene::partition
