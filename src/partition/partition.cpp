#include "partition/partition.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "support/error.hpp"

namespace graphene::partition {

std::vector<std::size_t> partitionLinear(std::size_t rows,
                                         std::size_t tiles) {
  GRAPHENE_CHECK(tiles > 0, "need at least one tile");
  std::vector<std::size_t> rowToTile(rows);
  const std::size_t base = rows / tiles, rem = rows % tiles;
  std::size_t row = 0;
  for (std::size_t t = 0; t < tiles; ++t) {
    std::size_t count = base + (t < rem ? 1 : 0);
    for (std::size_t i = 0; i < count; ++i) rowToTile[row++] = t;
  }
  return rowToTile;
}

namespace {

/// Factors `tiles` into px*py*pz as close to a cube as possible, with
/// px >= py >= pz and px*py*pz == tiles.
void factor3(std::size_t tiles, std::size_t& px, std::size_t& py,
             std::size_t& pz) {
  px = tiles;
  py = pz = 1;
  double best = 1e300;
  for (std::size_t a = 1; a * a * a <= tiles * tiles * tiles; ++a) {
    if (tiles % a) continue;
    for (std::size_t b = a; a * b * b <= tiles * tiles; ++b) {
      if ((tiles / a) % b) continue;
      std::size_t c = tiles / (a * b);
      if (c < b) continue;
      // Score: spread of the three factors (smaller = more cubical).
      double score = static_cast<double>(c) / static_cast<double>(a);
      if (score < best) {
        best = score;
        px = c;
        py = b;
        pz = a;
      }
    }
  }
}

}  // namespace

void factorCubic(std::size_t tiles, std::size_t& px, std::size_t& py,
                 std::size_t& pz) {
  factor3(tiles, px, py, pz);
}

std::vector<std::size_t> partitionGrid(std::size_t nx, std::size_t ny,
                                       std::size_t nz, std::size_t tiles) {
  GRAPHENE_CHECK(tiles > 0 && nx > 0 && ny > 0 && nz > 0, "bad grid/tiles");
  std::size_t px, py, pz;
  factor3(tiles, px, py, pz);
  // Assign the largest factor to the largest grid dimension.
  std::size_t dims[3] = {nx, ny, nz};
  std::size_t facs[3] = {px, py, pz};  // descending
  std::size_t order[3] = {0, 1, 2};
  std::sort(order, order + 3,
            [&](std::size_t a, std::size_t b) { return dims[a] > dims[b]; });
  std::size_t fx = 1, fy = 1, fz = 1;
  std::size_t* assigned[3] = {&fx, &fy, &fz};
  for (int i = 0; i < 3; ++i) *assigned[order[static_cast<std::size_t>(i)]] = facs[i];

  std::vector<std::size_t> rowToTile(nx * ny * nz);
  for (std::size_t z = 0; z < nz; ++z) {
    for (std::size_t y = 0; y < ny; ++y) {
      for (std::size_t x = 0; x < nx; ++x) {
        const std::size_t tx = std::min(fx - 1, x * fx / nx);
        const std::size_t ty = std::min(fy - 1, y * fy / ny);
        const std::size_t tz = std::min(fz - 1, z * fz / nz);
        rowToTile[(z * ny + y) * nx + x] = (tz * fy + ty) * fx + tx;
      }
    }
  }
  return rowToTile;
}

std::vector<std::size_t> partitionBfs(const matrix::CsrMatrix& a,
                                      std::size_t tiles) {
  GRAPHENE_CHECK(tiles > 0, "need at least one tile");
  const std::size_t n = a.rows();
  std::vector<std::size_t> rowToTile(n, tiles);  // `tiles` = unassigned
  auto rowPtr = a.rowPtr();
  auto col = a.colIdx();

  const std::size_t targetSize = (n + tiles - 1) / tiles;
  std::size_t currentTile = 0;
  std::size_t currentCount = 0;
  std::queue<std::size_t> frontier;
  std::size_t nextSeed = 0;

  for (std::size_t assigned = 0; assigned < n;) {
    if (frontier.empty()) {
      while (nextSeed < n && rowToTile[nextSeed] != tiles) ++nextSeed;
      GRAPHENE_CHECK(nextSeed < n, "BFS partition lost cells");
      frontier.push(nextSeed);
      rowToTile[nextSeed] = currentTile;
      ++currentCount;
      ++assigned;
    }
    while (!frontier.empty() && currentCount < targetSize) {
      std::size_t u = frontier.front();
      frontier.pop();
      for (std::size_t k = rowPtr[u]; k < rowPtr[u + 1]; ++k) {
        std::size_t v = static_cast<std::size_t>(col[k]);
        if (rowToTile[v] == tiles && currentCount < targetSize) {
          rowToTile[v] = currentTile;
          ++currentCount;
          ++assigned;
          frontier.push(v);
        }
      }
    }
    if (currentCount >= targetSize) {
      // Leftover frontier cells belong to the next tile's search space.
      std::queue<std::size_t>().swap(frontier);
      currentTile = std::min(currentTile + 1, tiles - 1);
      currentCount = 0;
    }
  }
  return rowToTile;
}

std::vector<std::size_t> partitionSizes(
    const std::vector<std::size_t>& rowToTile, std::size_t tiles) {
  std::vector<std::size_t> sizes(tiles, 0);
  for (std::size_t t : rowToTile) {
    GRAPHENE_CHECK(t < tiles, "row assigned to invalid tile");
    ++sizes[t];
  }
  return sizes;
}

}  // namespace graphene::partition
