#pragma once
// Configuration-space domain decomposition (the paper's first level of
// parallelism, Section IV). Only configuration dimensions are decomposed
// across ranks; velocity space stays node-local (the paper's second,
// shared-memory level), so the only inter-rank traffic is the single layer
// of configuration-space ghost cells the DG surface terms need.

#include <array>
#include <vector>

#include "grid/grid.hpp"

namespace vdg {

/// Sentinel returned by the neighbor lookups when the step would cross a
/// non-periodic domain edge: there is nobody to exchange ghosts with, and
/// the edge-owning rank applies the physical boundary condition instead.
inline constexpr int kNoNeighbor = -1;

/// Multi-dimensional block decomposition of the first `cdim` (configuration)
/// dimensions of a grid into numRanks = prod(blocks) near-equal blocks.
/// Rank order is odometer over block coordinates, dimension 0 fastest.
/// Neighbor lookup wraps periodically only in dimensions flagged periodic
/// (the default); in a non-periodic dimension the lookup returns
/// kNoNeighbor across the domain edge, so only edge-owning ranks touch that
/// face — with the physical fill of src/bc/, not an exchange. A periodic
/// dimension with one block is its own neighbor, making periodic wrap and
/// halo exchange one code path.
struct CartDecomp {
  int cdim = 1;                       ///< number of decomposed (config) dims
  std::array<int, kMaxDim> blocks{};  ///< blocks per dim; product == numRanks
  std::array<bool, kMaxDim> periodic{};  ///< per dim: wrap at domain edges
  std::array<std::vector<int>, kMaxDim> start;  ///< per dim, per block: first cell
  std::array<std::vector<int>, kMaxDim> count;  ///< per dim, per block: cell count

  /// Block-decompose `confGrid` over numRanks: every factorization of
  /// numRanks into per-dim block counts (each <= that dimension's cells)
  /// is considered; smallest maximum per-rank cell load wins, halo
  /// surface breaking ties. Throws when no factorization fits (one cell
  /// per block minimum). All dimensions periodic.
  static CartDecomp make(const Grid& confGrid, int numRanks);
  /// Same, with per-dimension periodicity flags (dims >= confGrid.ndim
  /// ignored). Non-periodic dims still decompose identically — only the
  /// neighbor lookup across their domain edges changes.
  static CartDecomp make(const Grid& confGrid, int numRanks,
                         const std::array<bool, kMaxDim>& periodicDims);

  [[nodiscard]] int numRanks() const;

  /// Block coordinates of a rank (dimension 0 fastest).
  [[nodiscard]] std::array<int, kMaxDim> coords(int rank) const;
  /// Rank at block coordinates, wrapping periodically per dimension.
  [[nodiscard]] int rankOf(std::array<int, kMaxDim> c) const;
  /// Neighbor of `rank` one block over in `dim` (side == -1 lower, +1
  /// upper): periodic wrap (rank itself when blocks[dim] == 1), or
  /// kNoNeighbor when the step crosses a non-periodic domain edge.
  [[nodiscard]] int neighbor(int rank, int dim, int side) const;

  /// Rank-local grid: `global` (conf or phase grid whose first cdim dims
  /// are configuration space) windowed to the rank's block via
  /// Grid::subgrid — coordinate arithmetic stays bit-identical to global.
  [[nodiscard]] Grid localGrid(const Grid& global, int rank) const;
};

/// Near-cubic factorization of `nodes` into 3 factors (for the analytic
/// 3-D block-decomposition scaling model).
[[nodiscard]] std::array<int, 3> factor3(int nodes);

}  // namespace vdg
