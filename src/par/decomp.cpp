#include "par/decomp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace vdg {

namespace {

/// Near-equal partition of n cells into k contiguous blocks.
void partition(int n, int k, std::vector<int>& start, std::vector<int>& count) {
  const int base = n / k;
  const int rem = n % k;
  int pos = 0;
  for (int b = 0; b < k; ++b) {
    const int c = base + (b < rem ? 1 : 0);
    start.push_back(pos);
    count.push_back(c);
    pos += c;
  }
}

/// Exhaustively enumerate factorizations of `ranks` into blocks over dims
/// [dim, cdim), accumulating into `blocks`; keep the best complete
/// assignment in `best`. Ordering: smallest maximum per-rank cell load
/// first (compute dominates), halo surface (sum over decomposed dims of
/// the transverse local area) as tie-break.
void searchBlocks(const Grid& conf, int cdim, int dim, int ranks,
                  std::array<int, kMaxDim>& blocks, std::array<int, kMaxDim>& best,
                  long long& bestLoad, long long& bestHalo) {
  if (dim == cdim) {
    if (ranks != 1) return;
    long long load = 1, halo = 0;
    for (int d = 0; d < cdim; ++d) {
      const auto s = static_cast<std::size_t>(d);
      // Worst-case (ceil) local extent of dimension d.
      load *= (conf.cells[s] + blocks[s] - 1) / blocks[s];
    }
    for (int d = 0; d < cdim; ++d) {
      const auto s = static_cast<std::size_t>(d);
      if (blocks[s] == 1) continue;  // self-wrap, no inter-rank traffic
      long long area = 2;
      for (int k = 0; k < cdim; ++k) {
        if (k == d) continue;
        const auto t = static_cast<std::size_t>(k);
        area *= (conf.cells[t] + blocks[t] - 1) / blocks[t];
      }
      halo += area;
    }
    if (load < bestLoad || (load == bestLoad && halo < bestHalo)) {
      bestLoad = load;
      bestHalo = halo;
      best = blocks;
    }
    return;
  }
  const auto s = static_cast<std::size_t>(dim);
  for (int b = 1; b <= std::min(ranks, conf.cells[s]); ++b) {
    if (ranks % b) continue;
    blocks[s] = b;
    searchBlocks(conf, cdim, dim + 1, ranks / b, blocks, best, bestLoad, bestHalo);
  }
  blocks[s] = 1;
}

}  // namespace

CartDecomp CartDecomp::make(const Grid& confGrid, int numRanks) {
  std::array<bool, kMaxDim> allPeriodic{};
  allPeriodic.fill(true);
  return make(confGrid, numRanks, allPeriodic);
}

CartDecomp CartDecomp::make(const Grid& confGrid, int numRanks,
                            const std::array<bool, kMaxDim>& periodicDims) {
  if (numRanks < 1) throw std::invalid_argument("CartDecomp: numRanks must be >= 1");
  CartDecomp d;
  d.cdim = confGrid.ndim;
  d.periodic = periodicDims;
  // Exhaustive search over factorizations of numRanks into per-dim block
  // counts (each <= the dimension's cells): divisor tuples are few, and
  // greedy placement misses valid tilings (e.g. 12 ranks on 4x3 must be
  // 4x3, but a greedy largest-factor pass strands a factor 2).
  std::array<int, kMaxDim> blocks{}, best{};
  long long bestLoad = std::numeric_limits<long long>::max(), bestHalo = bestLoad;
  searchBlocks(confGrid, d.cdim, 0, numRanks, blocks, best, bestLoad, bestHalo);
  if (bestLoad == std::numeric_limits<long long>::max())
    throw std::invalid_argument("CartDecomp: cannot place " + std::to_string(numRanks) +
                                " ranks on this grid (no block factorization fits, one cell "
                                "per block minimum)");
  d.blocks = best;
  for (int k = 0; k < d.cdim; ++k) {
    const auto s = static_cast<std::size_t>(k);
    partition(confGrid.cells[s], d.blocks[s], d.start[s], d.count[s]);
  }
  return d;
}

int CartDecomp::numRanks() const {
  int n = 1;
  for (int k = 0; k < cdim; ++k) n *= blocks[static_cast<std::size_t>(k)];
  return n;
}

std::array<int, kMaxDim> CartDecomp::coords(int rank) const {
  std::array<int, kMaxDim> c{};
  for (int k = 0; k < cdim; ++k) {
    const auto s = static_cast<std::size_t>(k);
    c[s] = rank % blocks[s];
    rank /= blocks[s];
  }
  return c;
}

int CartDecomp::rankOf(std::array<int, kMaxDim> c) const {
  int r = 0;
  for (int k = cdim - 1; k >= 0; --k) {
    const auto s = static_cast<std::size_t>(k);
    const int b = blocks[s];
    const int w = ((c[s] % b) + b) % b;  // periodic wrap
    r = r * b + w;
  }
  return r;
}

int CartDecomp::neighbor(int rank, int dim, int side) const {
  std::array<int, kMaxDim> c = coords(rank);
  const auto s = static_cast<std::size_t>(dim);
  c[s] += side;
  if (!periodic[s] && (c[s] < 0 || c[s] >= blocks[s])) return kNoNeighbor;
  return rankOf(c);
}

Grid CartDecomp::localGrid(const Grid& global, int rank) const {
  const std::array<int, kMaxDim> c = coords(rank);
  Grid g = global;
  for (int k = 0; k < cdim; ++k) {
    const auto s = static_cast<std::size_t>(k);
    g = g.subgrid(k, start[s][static_cast<std::size_t>(c[s])],
                  count[s][static_cast<std::size_t>(c[s])]);
  }
  return g;
}

std::array<int, 3> factor3(int nodes) {
  std::array<int, 3> best{nodes, 1, 1};
  double bestScore = 1e300;
  for (int a = 1; a <= nodes; ++a) {
    if (nodes % a) continue;
    const int bc = nodes / a;
    for (int b = 1; b <= bc; ++b) {
      if (bc % b) continue;
      const int c = bc / b;
      // Prefer near-cubic blocks: for a cube of N^3 cells split a x b x c,
      // the halo surface is proportional to (a + b + c) / (a b c), and
      // a b c = nodes is fixed, so minimize a + b + c.
      const double s = a + b + c;
      if (s < bestScore) {
        bestScore = s;
        best = {a, b, c};
      }
    }
  }
  return best;
}

}  // namespace vdg
