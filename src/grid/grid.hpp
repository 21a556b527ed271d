#pragma once
// Structured Cartesian grids in up to 6-D phase space, and DG coefficient
// fields over them (cell-major storage with a one-cell ghost layer, which is
// all a DG scheme needs for its surface terms).
//
// A Grid may be a *subgrid*: a contiguous window of a larger parent grid
// along one or more dimensions (the rank-local grids of the distributed
// layer). A subgrid remembers the parent's extent and its own index offset,
// and performs all coordinate arithmetic (dx, cellCenter) in the parent's
// terms — so a rank-local updater produces coefficients that are
// *bit-for-bit* identical to the same cells of a global serial run.

#include <array>
#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

#include "math/multi_index.hpp"

namespace vdg {

/// A uniform Cartesian grid. For phase-space grids the first cdim
/// dimensions are configuration space and the rest velocity space.
struct Grid {
  int ndim = 0;
  std::array<int, kMaxDim> cells{};
  std::array<double, kMaxDim> lower{};
  std::array<double, kMaxDim> upper{};

  // Subgrid support: when parentCells[d] > 0, dimension d is the window
  // [offset[d], offset[d] + cells[d]) of a parent grid with parentCells[d]
  // cells spanning [parentLower[d], parentUpper[d]]; dx and cellCenter then
  // evaluate the *parent's* expressions so local coordinate arithmetic is
  // bitwise identical to the parent's. parentCells[d] == 0 (the default)
  // means dimension d is not windowed.
  std::array<int, kMaxDim> parentCells{};
  std::array<int, kMaxDim> offset{};  ///< parent index of local cell 0
  std::array<double, kMaxDim> parentLower{};
  std::array<double, kMaxDim> parentUpper{};

  [[nodiscard]] double dx(int d) const {
    const auto s = static_cast<std::size_t>(d);
    if (parentCells[s] > 0) return (parentUpper[s] - parentLower[s]) / parentCells[s];
    return (upper[s] - lower[s]) / cells[s];
  }

  /// Center coordinate of cell i (0-based, local) along dimension d. For a
  /// subgrid this is parentLower + (offset + i + 0.5) * dx — the integer
  /// shift happens before the floating arithmetic, so the value matches the
  /// parent grid's cellCenter(d, offset + i) exactly.
  [[nodiscard]] double cellCenter(int d, int i) const {
    const auto s = static_cast<std::size_t>(d);
    const double lo = parentCells[s] > 0 ? parentLower[s] : lower[s];
    return lo + (offset[s] + i + 0.5) * dx(d);
  }

  [[nodiscard]] std::size_t numCells() const {
    std::size_t n = 1;
    for (int d = 0; d < ndim; ++d) n *= static_cast<std::size_t>(cells[static_cast<std::size_t>(d)]);
    return n;
  }

  /// True when any dimension is a window of a parent grid.
  [[nodiscard]] bool isSubgrid() const {
    for (int d = 0; d < ndim; ++d)
      if (parentCells[static_cast<std::size_t>(d)] > 0) return true;
    return false;
  }

  /// Restrict dimension d to the window [start, start + count) of this
  /// grid's cells, keeping coordinate arithmetic bit-identical to this
  /// grid's (see the subgrid fields above). Composable: a subgrid of a
  /// subgrid accumulates offsets against the original parent.
  [[nodiscard]] Grid subgrid(int d, int start, int count) const;

  /// The grid this subgrid is a window of (windowed dimensions restored to
  /// their parent extent; self for a non-subgrid).
  [[nodiscard]] Grid parent() const;

  /// Phase-space grid as the tensor product of a configuration grid and a
  /// velocity grid.
  [[nodiscard]] static Grid phase(const Grid& conf, const Grid& vel);

  /// Convenience constructor.
  [[nodiscard]] static Grid make(std::initializer_list<int> cells,
                                 std::initializer_list<double> lower,
                                 std::initializer_list<double> upper);
};

/// Invoke fn(idx) for every interior cell of the grid (odometer order:
/// dimension 0 fastest). Templated on the callable so the per-cell body
/// stays inlinable in the hot loops (Maxwell volume/surface, moments,
/// projection) — no type erasure, no indirect call per cell.
template <typename Fn>
void forEachCell(const Grid& grid, const Fn& fn) {
  forEachIndexInRange(grid.ndim, grid.cells.data(), 0, grid.numCells(), fn);
}

/// A DG coefficient field: ncomp doubles per cell, stored cell-major over
/// the grid extended by `nghost` ghost cells per side in every dimension.
class Field {
 public:
  Field() = default;
  Field(const Grid& grid, int ncomp, int nghost = 1);

  [[nodiscard]] const Grid& grid() const { return grid_; }
  [[nodiscard]] int ncomp() const { return ncomp_; }
  [[nodiscard]] int nghost() const { return nghost_; }

  /// Pointer to the coefficients of cell idx; ghost cells are addressed
  /// with indices in [-nghost, cells+nghost).
  [[nodiscard]] double* at(const MultiIndex& idx) { return data_.data() + offset(idx); }
  [[nodiscard]] const double* at(const MultiIndex& idx) const {
    return data_.data() + offset(idx);
  }
  [[nodiscard]] std::span<double> cell(const MultiIndex& idx) {
    return {at(idx), static_cast<std::size_t>(ncomp_)};
  }
  [[nodiscard]] std::span<const double> cell(const MultiIndex& idx) const {
    return {at(idx), static_cast<std::size_t>(ncomp_)};
  }

  [[nodiscard]] std::span<double> raw() { return data_; }
  [[nodiscard]] std::span<const double> raw() const { return data_; }

  void setZero();

  /// out = a*this (interior and ghosts).
  void scale(double a);
  /// this += a * other (element-wise over the whole extended array).
  void axpy(double a, const Field& other);
  /// this = a*x + b*y (shapes must match).
  void combine(double a, const Field& x, double b, const Field& y);
  /// this = (a*x + b*y) + c*z in one pass, with the rounding of combine()
  /// followed by axpy(c, z): bitwise the same result (grid.cpp builds
  /// without FP contraction). Shapes must match; this may alias x, y or z.
  void lincomb3(double a, const Field& x, double b, const Field& y, double c, const Field& z);
  void copyFrom(const Field& other);

  // --- contiguous halo slabs (the unit of inter-rank ghost traffic).
  //
  // A "slab" of dimension d is the nghost-thick layer of cells adjacent to
  // one boundary of d, spanning the *extended* box (interior + ghosts) of
  // every other dimension — exactly the cells a DG neighbor needs,
  // including the corner ghosts filled by earlier-dimension syncs. Pack
  // and unpack share one iteration order, so a buffer packed on one rank
  // unpacks correctly on its neighbor (whose transverse extents match by
  // construction of the Cartesian decomposition).

  /// Doubles in one face slab of dimension d.
  [[nodiscard]] std::size_t ghostSlabSize(int d) const;

  /// Pack the *interior* slab adjacent to the lower (side == -1) or upper
  /// (side == +1) boundary of dimension d into buf (size ghostSlabSize(d)).
  void packGhost(int d, int side, std::span<double> buf) const;

  /// Unpack a received slab into the *ghost* layer on `side` of dimension
  /// d. The periodic/neighbor pairing: a rank's lower ghost layer receives
  /// its lower neighbor's packGhost(d, +1) slab, and vice versa (with the
  /// neighbor being the field itself, this is exactly a periodic wrap).
  void unpackGhost(int d, int side, std::span<const double> buf);

  /// Fill ghost layers of dimension d by periodic wrap of interior data —
  /// implemented as a self pack/unpack exchange, so the serial path and
  /// the distributed halo exchange share one slab code path.
  void syncPeriodic(int d);
  /// Fill ghost layers of dimension d with zeros (zero-flux helper).
  void zeroGhost(int d);
  /// Fill ghost layers of dimension d by copying the adjacent interior cell.
  void copyGhost(int d);

  /// Invoke fn(ghostIdx) for every ghost cell of the lower (side == -1) or
  /// upper (side == +1) boundary of dimension d, spanning the *extended*
  /// box of every other dimension — the same cells a halo slab covers.
  /// This is the fill seam of the physical boundary conditions (src/bc/):
  /// a BoundaryCondition decides per ghost cell what interior data (if
  /// any) to mirror or extrapolate into it.
  template <typename Fn>
  void forEachBoundaryGhost(int d, int side, const Fn& fn) const {
    forEachSlabCell(d, side, /*ghost=*/true,
                    [&](const MultiIndex& idx, std::size_t /*off*/) { fn(idx); });
  }

 private:
  [[nodiscard]] std::size_t offset(const MultiIndex& idx) const {
    std::size_t o = 0;
    for (int d = 0; d < grid_.ndim; ++d) {
      const int i = idx[d] + nghost_;
      assert(i >= 0 && i < ext_[static_cast<std::size_t>(d)]);
      o += static_cast<std::size_t>(i) * stride_[static_cast<std::size_t>(d)];
    }
    return o * static_cast<std::size_t>(ncomp_);
  }

  /// Iterate all ghost cells of dim d, giving the ghost index and its
  /// periodic image (templated: the sync/zero/copy loops stay inlinable).
  template <typename Fn>
  void forEachGhost(int d, const Fn& fn) const {
    const int nd = grid_.ndim;
    const int nc = grid_.cells[static_cast<std::size_t>(d)];
    MultiIndex idx;
    for (int i = 0; i < nd; ++i) idx[i] = -nghost_;
    while (true) {
      for (int g = 1; g <= nghost_; ++g) {
        MultiIndex lo = idx, hi = idx;
        lo[d] = -g;
        hi[d] = nc - 1 + g;
        MultiIndex loImg = lo, hiImg = hi;
        loImg[d] = nc - g;
        hiImg[d] = g - 1;
        fn(lo, loImg);
        fn(hi, hiImg);
      }
      int k = 0;
      while (k < nd) {
        if (k == d) {
          ++k;
          continue;
        }
        if (++idx[k] < grid_.cells[static_cast<std::size_t>(k)] + nghost_) break;
        idx[k] = -nghost_;
        ++k;
      }
      if (k == nd) break;
    }
  }

  /// Iterate the cells of one face slab of dim d in the canonical pack
  /// order, giving the cell index and its doubles-offset into the buffer.
  /// ghost == false: the interior slab on `side`; true: the ghost slab.
  template <typename Fn>
  void forEachSlabCell(int d, int side, bool ghost, const Fn& fn) const {
    const int nd = grid_.ndim;
    const int nc = grid_.cells[static_cast<std::size_t>(d)];
    const int base = ghost ? (side < 0 ? -nghost_ : nc) : (side < 0 ? 0 : nc - nghost_);
    MultiIndex idx;
    for (int i = 0; i < nd; ++i) idx[i] = -nghost_;
    std::size_t off = 0;
    while (true) {
      for (int g = 0; g < nghost_; ++g) {
        idx[d] = base + g;
        fn(idx, off);
        off += static_cast<std::size_t>(ncomp_);
      }
      int k = 0;
      while (k < nd) {
        if (k == d) {
          ++k;
          continue;
        }
        if (++idx[k] < grid_.cells[static_cast<std::size_t>(k)] + nghost_) break;
        idx[k] = -nghost_;
        ++k;
      }
      if (k == nd) break;
    }
  }

  Grid grid_;
  int ncomp_ = 0;
  int nghost_ = 0;
  std::array<int, kMaxDim> ext_{};
  std::array<std::size_t, kMaxDim> stride_{};
  std::vector<double> data_;
};

}  // namespace vdg
