#include "grid/grid.hpp"

#include <algorithm>
#include <stdexcept>

namespace vdg {

Grid Grid::subgrid(int d, int start, int count) const {
  const auto s = static_cast<std::size_t>(d);
  if (d < 0 || d >= ndim || start < 0 || count < 1 || start + count > cells[s])
    throw std::invalid_argument("Grid::subgrid: window out of range");
  Grid g = *this;
  if (g.parentCells[s] == 0) {
    g.parentCells[s] = cells[s];
    g.parentLower[s] = lower[s];
    g.parentUpper[s] = upper[s];
  }
  g.offset[s] += start;
  g.cells[s] = count;
  // Nominal local bounds (coordinate arithmetic uses the parent fields).
  const double pdx = g.dx(d);
  g.lower[s] = g.parentLower[s] + g.offset[s] * pdx;
  g.upper[s] = g.parentLower[s] + (g.offset[s] + count) * pdx;
  return g;
}

Grid Grid::parent() const {
  Grid g = *this;
  for (int d = 0; d < ndim; ++d) {
    const auto s = static_cast<std::size_t>(d);
    if (g.parentCells[s] == 0) continue;
    g.cells[s] = g.parentCells[s];
    g.lower[s] = g.parentLower[s];
    g.upper[s] = g.parentUpper[s];
    g.parentCells[s] = 0;
    g.offset[s] = 0;
    g.parentLower[s] = 0.0;
    g.parentUpper[s] = 0.0;
  }
  return g;
}

Grid Grid::phase(const Grid& conf, const Grid& vel) {
  if (conf.ndim + vel.ndim > kMaxDim)
    throw std::invalid_argument("Grid::phase: combined dimensionality exceeds 6");
  Grid g;
  g.ndim = conf.ndim + vel.ndim;
  const auto copyDim = [&g](const Grid& src, int from, int to) {
    const auto f = static_cast<std::size_t>(from);
    const auto t = static_cast<std::size_t>(to);
    g.cells[t] = src.cells[f];
    g.lower[t] = src.lower[f];
    g.upper[t] = src.upper[f];
    g.parentCells[t] = src.parentCells[f];
    g.offset[t] = src.offset[f];
    g.parentLower[t] = src.parentLower[f];
    g.parentUpper[t] = src.parentUpper[f];
  };
  for (int d = 0; d < conf.ndim; ++d) copyDim(conf, d, d);
  for (int d = 0; d < vel.ndim; ++d) copyDim(vel, d, conf.ndim + d);
  return g;
}

Grid Grid::make(std::initializer_list<int> cells, std::initializer_list<double> lower,
                std::initializer_list<double> upper) {
  if (cells.size() != lower.size() || cells.size() != upper.size() ||
      cells.size() > static_cast<std::size_t>(kMaxDim) || cells.size() == 0)
    throw std::invalid_argument("Grid::make: inconsistent dimension lists");
  Grid g;
  g.ndim = static_cast<int>(cells.size());
  std::copy(cells.begin(), cells.end(), g.cells.begin());
  std::copy(lower.begin(), lower.end(), g.lower.begin());
  std::copy(upper.begin(), upper.end(), g.upper.begin());
  for (int d = 0; d < g.ndim; ++d) {
    if (g.cells[static_cast<std::size_t>(d)] < 1 || g.dx(d) <= 0.0)
      throw std::invalid_argument("Grid::make: cells must be >= 1 and upper > lower");
  }
  return g;
}

Field::Field(const Grid& grid, int ncomp, int nghost)
    : grid_(grid), ncomp_(ncomp), nghost_(nghost) {
  std::size_t total = 1;
  for (int d = 0; d < grid_.ndim; ++d) {
    ext_[static_cast<std::size_t>(d)] = grid_.cells[static_cast<std::size_t>(d)] + 2 * nghost_;
    stride_[static_cast<std::size_t>(d)] = total;
    total *= static_cast<std::size_t>(ext_[static_cast<std::size_t>(d)]);
  }
  data_.assign(total * static_cast<std::size_t>(ncomp_), 0.0);
}

void Field::setZero() { std::fill(data_.begin(), data_.end(), 0.0); }

void Field::scale(double a) {
  for (double& v : data_) v *= a;
}

void Field::axpy(double a, const Field& other) {
  assert(data_.size() == other.data_.size());
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += a * other.data_[i];
}

void Field::combine(double a, const Field& x, double b, const Field& y) {
  assert(data_.size() == x.data_.size() && data_.size() == y.data_.size());
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] = a * x.data_[i] + b * y.data_[i];
}

void Field::lincomb3(double a, const Field& x, double b, const Field& y, double c,
                     const Field& z) {
  assert(data_.size() == x.data_.size() && data_.size() == y.data_.size() &&
         data_.size() == z.data_.size());
  for (std::size_t i = 0; i < data_.size(); ++i)
    data_[i] = (a * x.data_[i] + b * y.data_[i]) + c * z.data_[i];
}

void Field::copyFrom(const Field& other) {
  assert(data_.size() == other.data_.size());
  std::copy(other.data_.begin(), other.data_.end(), data_.begin());
}

std::size_t Field::ghostSlabSize(int d) const {
  std::size_t n = static_cast<std::size_t>(nghost_) * static_cast<std::size_t>(ncomp_);
  for (int k = 0; k < grid_.ndim; ++k) {
    if (k == d) continue;
    n *= static_cast<std::size_t>(grid_.cells[static_cast<std::size_t>(k)] + 2 * nghost_);
  }
  return n;
}

void Field::packGhost(int d, int side, std::span<double> buf) const {
  assert(buf.size() >= ghostSlabSize(d));
  forEachSlabCell(d, side, /*ghost=*/false, [&](const MultiIndex& idx, std::size_t off) {
    const double* src = at(idx);
    std::copy(src, src + ncomp_, buf.data() + off);
  });
}

void Field::unpackGhost(int d, int side, std::span<const double> buf) {
  assert(buf.size() >= ghostSlabSize(d));
  forEachSlabCell(d, side, /*ghost=*/true, [&](const MultiIndex& idx, std::size_t off) {
    const double* src = buf.data() + off;
    std::copy(src, src + ncomp_, at(idx));
  });
}

void Field::syncPeriodic(int d) {
  // Self halo exchange: the lower ghost layer receives the upper interior
  // slab and vice versa — the same pack format and pairing the distributed
  // Communicator uses between neighboring ranks, so the serial and
  // rank-parallel ghost paths are one code path (and bitwise identical:
  // both are pure copies of the same cells). Scratch is thread_local: this
  // runs per slot per conf dim on every RHS evaluation, and capacity
  // retention keeps the hot path allocation-free after warmup (per thread,
  // since rank threads may sync concurrently).
  static thread_local std::vector<double> lo, hi;
  const std::size_t n = ghostSlabSize(d);
  if (lo.size() < n) lo.resize(n);
  if (hi.size() < n) hi.resize(n);
  packGhost(d, -1, lo);
  packGhost(d, +1, hi);
  unpackGhost(d, -1, hi);
  unpackGhost(d, +1, lo);
}

void Field::zeroGhost(int d) {
  forEachGhost(d, [this](const MultiIndex& ghost, const MultiIndex&) {
    double* dst = at(ghost);
    std::fill(dst, dst + ncomp_, 0.0);
  });
}

void Field::copyGhost(int d) {
  const int nc = grid_.cells[static_cast<std::size_t>(d)];
  forEachGhost(d, [this, d, nc](const MultiIndex& ghost, const MultiIndex&) {
    MultiIndex interior = ghost;
    interior[d] = ghost[d] < 0 ? 0 : nc - 1;
    const double* src = at(interior);
    double* dst = at(ghost);
    std::copy(src, src + ncomp_, dst);
  });
}

}  // namespace vdg
