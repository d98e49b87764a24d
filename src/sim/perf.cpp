#include "sim/perf.hpp"

#include <algorithm>
#include <limits>
#include <cmath>
#include <sstream>

#include "support/error.hpp"

namespace tensorlib::sim {

std::string PerfResult::str() const {
  std::ostringstream os;
  os << "cycles=" << totalCycles << " (compute=" << computeCycles
     << ", bw=" << bandwidthCycles << ") macs=" << macs
     << " traffic=" << trafficWords << " util=" << utilization
     << (bandwidthBound ? " [bandwidth-bound]" : " [compute-bound]");
  return os.str();
}

PerfResult finalizePerf(PerfResult raw, const stt::ArrayConfig& config) {
  raw.bandwidthBound = raw.bandwidthCycles > raw.computeCycles;
  const double peCycles = static_cast<double>(config.rows * config.cols) *
                          static_cast<double>(raw.totalCycles);
  raw.utilization =
      peCycles > 0.0 ? static_cast<double>(raw.macs) / peCycles : 0.0;
  const double seconds =
      static_cast<double>(raw.totalCycles) / (config.frequencyMHz * 1e6);
  raw.throughputGops =
      seconds > 0.0 && std::isfinite(seconds)
          ? 2.0 * static_cast<double>(raw.macs) / seconds / 1e9
          : 0.0;
  return raw;
}

namespace {

/// Accumulates the closed-form pass costs of one mapping.
PerfResult accumulate(const stt::TileMapping& mapping,
                      const stt::ArrayConfig& config) {
  const double wordsPerCycle = config.wordsPerCycle();
  PerfResult out;
  for (const auto& tc : mapping.tiles) {
    const std::int64_t tilesTotal = tc.count * mapping.outerIterations;
    const std::int64_t passes =
        (tilesTotal + mapping.replication - 1) / mapping.replication;

    const std::int64_t bwCycles = static_cast<std::int64_t>(std::ceil(
        static_cast<double>(tc.trafficWords * mapping.replication) /
        wordsPerCycle));
    const std::int64_t passCycles = std::max(tc.computeCycles, bwCycles);

    out.computeCycles += passes * tc.computeCycles;
    out.bandwidthCycles += passes * bwCycles;
    out.totalCycles += passes * passCycles;
    out.macs += tilesTotal * tc.macs;
    out.trafficWords += tilesTotal * tc.trafficWords;
  }
  return out;
}

/// Max product of distinct selected-loop extents assignable injectively to
/// tensor dimensions with a nonzero coefficient (|coefficient| block of
/// rank rows x 3, row-major) — the covered-extent bound behind the
/// bandwidth terms of cyclesLowerBound.
std::int64_t coveredExtents(const std::int64_t* absC, std::size_t rank,
                            const std::int64_t* extents, std::size_t dim,
                            unsigned usedMask) {
  if (dim == rank) return 1;
  std::int64_t best = coveredExtents(absC, rank, extents, dim + 1, usedMask);
  for (std::size_t j = 0; j < 3; ++j) {
    if ((usedMask & (1u << j)) != 0 || absC[dim * 3 + j] == 0) continue;
    best = std::max(best, linalg::checkedMul(
                              extents[j],
                              coveredExtents(absC, rank, extents, dim + 1,
                                             usedMask | (1u << j))));
  }
  return best;
}

/// Everything cyclesLowerBound reads: per-list constants, the selection's
/// extents and outer product, the two space rows as |values| and each
/// tensor's |access| block (tensor k at absC + k * rankStride * 3).
struct BoundInputs {
  std::int64_t macs;
  std::int64_t outer;
  const std::int64_t* extents;
  const std::int64_t* absRow0;
  const std::int64_t* absRow1;
  std::size_t tensorCount;
  const std::int64_t* absC;
  std::size_t rankStride;
  const std::size_t* tensorRank;
};

/// The cycle lower bound (see perf.hpp for the three terms and why each is
/// sound). It never reads the time row.
std::int64_t boundCycles(const BoundInputs& in,
                         const stt::ArrayConfig& config) {
  // Compute bound: a full-rank transform maps at most one MAC per PE per
  // cycle at any tiling and replication, so totalCycles >= totalMacs / rate
  // with rate capped at rows * cols. (floor, not ceil, below absorbs the
  // floating-point division's last ulp.)
  double rate = static_cast<double>(config.rows * config.cols);
  if (rate <= 0.0) rate = 1.0;

  // Bandwidth rate cap: a pass of any tile g sustains at most
  // wordsPerCycle * intensity(g) MACs per cycle (replication scales traffic
  // and MACs alike), and for every injective matching of a tensor's
  // dimensions to selected loops, intensity(g) <= product of the UNMATCHED
  // loops' tile extents. Tile extents are individually capped by the array
  // fit (1 + |t_spatial_j| * (g_j - 1) must fit the rows/cols span), so
  //   intensity <= min over tensors of prod(caps) / bestMatchedProduct.
  const double wordsPerCycle = config.wordsPerCycle();
  const bool bandwidthLimited =
      wordsPerCycle > 0.0 && std::isfinite(wordsPerCycle);
  if (bandwidthLimited) {
    std::int64_t caps[3];
    for (std::size_t j = 0; j < 3; ++j) {
      std::int64_t cap = in.extents[j];
      if (in.absRow0[j] != 0)
        cap = std::min(cap, 1 + (config.rows - 1) / in.absRow0[j]);
      if (in.absRow1[j] != 0)
        cap = std::min(cap, 1 + (config.cols - 1) / in.absRow1[j]);
      caps[j] = std::max<std::int64_t>(cap, 1);
    }
    const double capProduct = static_cast<double>(
        linalg::checkedMul(caps[0], linalg::checkedMul(caps[1], caps[2])));
    double intensityCap = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < in.tensorCount; ++k) {
      const double matched = static_cast<double>(coveredExtents(
          in.absC + k * in.rankStride * 3, in.tensorRank[k], caps, 0, 0u));
      intensityCap = std::min(intensityCap, capProduct / matched);
    }
    rate = std::min(rate, wordsPerCycle * intensityCap);
  }
  std::int64_t bound = static_cast<std::int64_t>(
      std::floor(static_cast<double>(in.macs) / rate));

  // Bandwidth bound: each tensor's summed tile footprints cover at least
  // the product of the extents of distinct selected loops matched (one per
  // tensor dimension) to nonzero access coefficients — the per-dimension
  // interval the footprint model charges is at least the tile's extent of
  // that loop, and tile extents of one loop sum to the full extent across
  // any grid tiling. Outer iterations repeat the whole sweep.
  if (bandwidthLimited) {
    std::int64_t minTraffic = 0;
    for (std::size_t k = 0; k < in.tensorCount; ++k)
      minTraffic += linalg::checkedMul(
          in.outer, coveredExtents(in.absC + k * in.rankStride * 3,
                                   in.tensorRank[k], in.extents, 0, 0u));
    // floor, not ceil: immune to last-ulp rounding of the division while
    // still a valid integer lower bound.
    bound = std::max(bound, static_cast<std::int64_t>(std::floor(
                                static_cast<double>(minTraffic) / wordsPerCycle)));
  }
  return std::max<std::int64_t>(bound, 1);
}

}  // namespace

PerfResult perfFromMapping(const stt::TileMapping& mapping,
                           const stt::ArrayConfig& config) {
  return finalizePerf(accumulate(mapping, config), config);
}

PerfResult estimatePerformance(const stt::DataflowSpec& spec,
                               const stt::ArrayConfig& config) {
  return perfFromMapping(stt::computeMapping(spec, config), config);
}

std::int64_t cyclesLowerBound(const stt::DataflowSpec& spec,
                              const stt::ArrayConfig& config) {
  return cyclesLowerBound(*stt::packSpec(spec), 0, config);
}

std::int64_t cyclesLowerBound(const stt::SpecBlockSet& set, std::size_t i,
                              const stt::ArrayConfig& config) {
  const std::int64_t* absT = set.specAbsT(i);
  return boundCycles({set.algebraMacs, set.outer[i], set.specExtents(i), absT,
                      absT + 3, set.tensorsPerSpec, set.tensorAbsC(i, 0),
                      set.rankStride, set.tensorRank.data()},
                     config);
}

std::int64_t cyclesLowerBound(const stt::PartialTransform& partial,
                              const stt::ArrayConfig& config) {
  const stt::SelectionGeometry& g = *partial.geometry;
  return boundCycles({g.macs, g.outer, g.extents.data(), partial.absRow0.data(),
                      partial.absRow1.data(), g.tensorCount, g.absC.data(),
                      g.rankStride, g.tensorRank.data()},
                     config);
}

}  // namespace tensorlib::sim
