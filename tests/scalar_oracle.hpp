// The scalar reference the packed model arithmetic is pinned to.
//
//   * oracle::computeMapping: the exhaustive tile-mapping search, one spec
//     at a time through its DataflowSpec — every candidate tile is priced,
//     no loop ends early, nothing is packed or shared across specs.
//   * oracle::cyclesLowerBound: the cycle lower bound read straight off
//     the spec's transform and access matrices.
//   * oracle::Pricer: one design point priced the way a CostBackend must
//     price it — performance through oracle::computeMapping and
//     sim::perfFromMapping at the backend's operating point, cost figures
//     through the public spec wrappers (cost::estimateAsic/estimateFpga),
//     FPGA throughput recomputed from the oracle's own utilization.
//   * testing::scalarOracle: every enumerated spec priced by the Pricer
//     (no mapping classes, no pruning, no cache), folded through a
//     ParetoFrontier in enumeration order, the winner picked by pickBest.
//
// None of this shares the service's evaluation pipeline, so a bug in the
// packed search, the packed bound or the window pipeline cannot hide in
// both. CI greps this file to keep it that way.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <vector>

#include "cost/backend.hpp"
#include "driver/explore_service.hpp"
#include "driver/pareto.hpp"
#include "sim/perf.hpp"
#include "stt/enumerate.hpp"
#include "stt/mapping.hpp"
#include "support/error.hpp"

namespace tensorlib::oracle {

/// Spatial span of a tile shape along space row r: the number of distinct
/// coordinates the row's affine form takes over the tile box.
inline std::int64_t rowSpan(const linalg::IntMatrix& t, std::size_t r,
                            const linalg::IntVector& shape) {
  std::int64_t span = 1;
  for (std::size_t j = 0; j < 3; ++j)
    span += std::abs(t.at(r, j)) * (shape[j] - 1);
  return span;
}

inline std::int64_t timeSpan(const linalg::IntMatrix& t,
                             const linalg::IntVector& shape) {
  std::int64_t span = 1;
  for (std::size_t j = 0; j < 3; ++j)
    span += std::abs(t.at(2, j)) * (shape[j] - 1);
  return span;
}

/// Number of distinct tensor elements the model charges when the selected
/// loops sweep a box of the given shape. Per dimension the affine form
/// sweeps an interval; dims are charged as independent (exact for all
/// Table-II workloads).
inline std::int64_t accessFootprint(const tensor::AffineAccess& access,
                                    const linalg::IntVector& shape) {
  std::int64_t total = 1;
  for (std::size_t d = 0; d < access.tensorRank(); ++d) {
    std::int64_t range = 1;
    for (std::size_t j = 0; j < 3; ++j)
      range += std::abs(access.coeff().at(d, j)) * (shape[j] - 1);
    total = linalg::checkedMul(total, range);
  }
  return total;
}

inline stt::TileCost makeTileCost(const stt::DataflowSpec& spec,
                                  linalg::IntVector shape, std::int64_t count) {
  stt::TileCost tc;
  tc.shape = shape;
  tc.count = count;
  tc.macs = shape[0] * shape[1] * shape[2];
  tc.computeCycles = timeSpan(spec.transform().matrix(), shape);
  for (const auto& role : spec.tensors()) {
    const std::int64_t fp = accessFootprint(role.access, shape);
    tc.tensorFootprints.push_back(fp);
    tc.trafficWords += fp;
  }
  return tc;
}

/// The tile mapping of `spec` on `config` (the rule stt/mapping.hpp states).
inline stt::TileMapping computeMapping(const stt::DataflowSpec& spec,
                                       const stt::ArrayConfig& config) {
  const linalg::IntMatrix& t = spec.transform().matrix();
  const linalg::IntVector extents = spec.selection().extents();

  // --- Choose the full tile. Loops with no spatial coefficient take their
  // full extent (they only stretch the time axis). Spatially-involved loops
  // are chosen by exhaustive search (their candidate sizes are bounded by
  // the array side), maximizing steady-state MACs per cycle — skewed space
  // rows make greedy allocation badly suboptimal here.
  const std::int64_t maxSide = std::max(config.rows, config.cols);
  std::vector<std::vector<std::int64_t>> candidates(3);
  for (std::size_t j = 0; j < 3; ++j) {
    const bool spatial = t.at(0, j) != 0 || t.at(1, j) != 0;
    if (!spatial) {
      candidates[j] = {extents[j]};
    } else {
      const std::int64_t cap = std::min(extents[j], maxSide);
      for (std::int64_t g = 1; g <= cap; ++g) candidates[j].push_back(g);
    }
  }
  linalg::IntVector tile(3, 1);
  double bestRate = -1.0;
  std::int64_t bestMacs = 0;
  const double wordsPerCycle = config.wordsPerCycle();
  for (std::int64_t g0 : candidates[0])
    for (std::int64_t g1 : candidates[1])
      for (std::int64_t g2 : candidates[2]) {
        const linalg::IntVector g{g0, g1, g2};
        if (rowSpan(t, 0, g) > config.rows || rowSpan(t, 1, g) > config.cols)
          continue;
        const std::int64_t macs = g0 * g1 * g2;
        // Steady-state cycles per tile: compute span or memory service
        // time, whichever binds (a 1-cycle tile that moves 300 words is no
        // bargain).
        std::int64_t traffic = 0;
        for (const auto& role : spec.tensors())
          traffic += accessFootprint(role.access, g);
        const double cycles = std::max(
            static_cast<double>(timeSpan(t, g)),
            static_cast<double>(traffic) / wordsPerCycle);
        const double rate = static_cast<double>(macs) / cycles;
        if (rate > bestRate || (rate == bestRate && macs > bestMacs)) {
          bestRate = rate;
          bestMacs = macs;
          tile = g;
        }
      }
  TL_CHECK(bestRate > 0, "no feasible tile fits the array");

  stt::TileMapping out;
  out.fullTile = tile;
  out.spatialRowsUsed = rowSpan(t, 0, tile);
  out.spatialColsUsed = rowSpan(t, 1, tile);
  TL_CHECK(out.spatialRowsUsed <= config.rows && out.spatialColsUsed <= config.cols,
           "tile footprint exceeds array");

  // --- Replication: pack multiple tile copies when the footprint is small
  // (the paper's 15-of-16-rows utilization case for 3-wide kernel loops).
  const std::int64_t repRows = config.rows / out.spatialRowsUsed;
  const std::int64_t repCols = config.cols / out.spatialColsUsed;
  out.replication = std::max<std::int64_t>(1, repRows) *
                    std::max<std::int64_t>(1, repCols);

  // --- Outer (non-selected) loops run sequentially.
  out.outerIterations = 1;
  for (std::size_t idx : spec.selection().outerIndices())
    out.outerIterations = linalg::checkedMul(
        out.outerIterations, spec.algebra().loops()[idx].extent);

  // --- Tile grid grouped by shape: full and remainder extents per loop give
  // at most 2^3 distinct shapes.
  std::int64_t fullCount[3], rem[3];
  for (std::size_t j = 0; j < 3; ++j) {
    fullCount[j] = extents[j] / tile[j];
    rem[j] = extents[j] % tile[j];
  }
  for (int mask = 0; mask < 8; ++mask) {
    linalg::IntVector shape(3);
    std::int64_t count = 1;
    bool valid = true;
    for (std::size_t j = 0; j < 3; ++j) {
      if (mask & (1 << j)) {
        if (rem[j] == 0) { valid = false; break; }
        shape[j] = rem[j];
      } else {
        if (fullCount[j] == 0) { valid = false; break; }
        shape[j] = tile[j];
        count *= fullCount[j];
      }
    }
    if (!valid || count == 0) continue;
    out.tiles.push_back(makeTileCost(spec, shape, count));
  }
  TL_CHECK(!out.tiles.empty(), "mapping produced no tiles");
  return out;
}

/// Max product of distinct selected-loop extents assignable injectively to
/// tensor dimensions with a nonzero coefficient — the covered-extent bound
/// behind the bandwidth term of cyclesLowerBound.
inline std::int64_t coveredExtents(const linalg::IntMatrix& coeff,
                                   const linalg::IntVector& extents,
                                   std::size_t dim, unsigned usedMask) {
  if (dim == coeff.rows()) return 1;
  std::int64_t best = coveredExtents(coeff, extents, dim + 1, usedMask);
  for (std::size_t j = 0; j < 3; ++j) {
    if ((usedMask & (1u << j)) != 0 || coeff.at(dim, j) == 0) continue;
    best = std::max(
        best, linalg::checkedMul(extents[j], coveredExtents(coeff, extents,
                                                            dim + 1,
                                                            usedMask | (1u << j))));
  }
  return best;
}

/// The cycle lower bound of sim/perf.hpp, term by term off the spec.
inline std::int64_t cyclesLowerBound(const stt::DataflowSpec& spec,
                                     const stt::ArrayConfig& config) {
  // Compute bound: at most one MAC per PE per cycle.
  const std::int64_t macs = spec.algebra().totalMacs();
  double rate = static_cast<double>(config.rows * config.cols);
  if (rate <= 0.0) rate = 1.0;

  // Bandwidth rate cap: intensity <= min over tensors of prod(caps) /
  // bestMatchedProduct, tile extents capped by the array fit.
  const double wordsPerCycle = config.wordsPerCycle();
  if (wordsPerCycle > 0.0 && std::isfinite(wordsPerCycle)) {
    const linalg::IntMatrix& t = spec.transform().matrix();
    const linalg::IntVector& extents = spec.selection().extents();
    linalg::IntVector caps(3);
    for (std::size_t j = 0; j < 3; ++j) {
      std::int64_t cap = extents[j];
      if (t.at(0, j) != 0)
        cap = std::min(cap, 1 + (config.rows - 1) / std::abs(t.at(0, j)));
      if (t.at(1, j) != 0)
        cap = std::min(cap, 1 + (config.cols - 1) / std::abs(t.at(1, j)));
      caps[j] = std::max<std::int64_t>(cap, 1);
    }
    const double capProduct = static_cast<double>(
        linalg::checkedMul(caps[0], linalg::checkedMul(caps[1], caps[2])));
    double intensityCap = std::numeric_limits<double>::infinity();
    for (const auto& role : spec.tensors()) {
      const double matched = static_cast<double>(
          coveredExtents(role.access.coeff(), caps, 0, 0u));
      intensityCap = std::min(intensityCap, capProduct / matched);
    }
    rate = std::min(rate, wordsPerCycle * intensityCap);
  }
  std::int64_t bound = static_cast<std::int64_t>(
      std::floor(static_cast<double>(macs) / rate));

  // Bandwidth bound: covered extent products of every tensor, times the
  // outer iterations, over the words-per-cycle budget.
  if (wordsPerCycle > 0.0 && std::isfinite(wordsPerCycle)) {
    std::int64_t outer = 1;
    for (std::size_t idx : spec.selection().outerIndices())
      outer = linalg::checkedMul(outer, spec.algebra().loops()[idx].extent);
    std::int64_t minTraffic = 0;
    for (const auto& role : spec.tensors())
      minTraffic += linalg::checkedMul(
          outer, coveredExtents(role.access.coeff(), spec.selection().extents(),
                                0, 0u));
    bound = std::max(bound, static_cast<std::int64_t>(std::floor(
                                static_cast<double>(minTraffic) / wordsPerCycle)));
  }
  return std::max<std::int64_t>(bound, 1);
}

inline sim::PerfResult estimatePerformance(const stt::DataflowSpec& spec,
                                           const stt::ArrayConfig& config) {
  return sim::perfFromMapping(oracle::computeMapping(spec, config), config);
}

/// One spec's performance and cost.
struct Priced {
  sim::PerfResult perf;
  cost::CostReport cost;
};

/// Prices single specs the way the backend of the same configuration must.
struct Pricer {
  cost::BackendKind kind = cost::BackendKind::Asic;
  int dataWidth = 16;     ///< ASIC datapath width
  cost::FpgaConfig fpga;  ///< FPGA target

  static Pricer asic(int dataWidth = 16) {
    Pricer p;
    p.dataWidth = dataWidth;
    return p;
  }
  static Pricer fpgaTarget(cost::FpgaConfig config = {}) {
    Pricer p;
    p.kind = cost::BackendKind::Fpga;
    p.fpga = std::move(config);
    return p;
  }
  static Pricer of(const driver::ExploreQuery& q) {
    return q.backend == cost::BackendKind::Asic ? asic(q.dataWidth)
                                                : fpgaTarget(q.fpga);
  }

  std::string name() const { return cost::backendKindName(kind); }

  /// The array performance is modeled at: as configured for ASIC; at the
  /// post-route frequency and the datapath's word size for FPGA.
  stt::ArrayConfig perfConfig(const stt::DataflowSpec& spec,
                              const stt::ArrayConfig& array) const {
    if (kind == cost::BackendKind::Asic) return array;
    stt::ArrayConfig perfCfg = array;
    perfCfg.frequencyMHz = cost::estimateFpga(spec, array, fpga).frequencyMHz;
    perfCfg.dataBytes = fpga.fp32 ? 4 : 2;
    return perfCfg;
  }

  Priced evaluate(const stt::DataflowSpec& spec,
                  const stt::ArrayConfig& array) const {
    Priced out;
    out.perf = oracle::estimatePerformance(spec, perfConfig(spec, array));
    if (kind == cost::BackendKind::Asic) {
      out.cost.asic = cost::estimateAsic(spec, array, dataWidth);
      out.cost.figures = out.cost.asic.figures();
    } else {
      cost::FpgaReport rep = cost::estimateFpga(spec, array, fpga);
      const std::int64_t lanes = array.rows * array.cols * fpga.vectorLanes;
      rep.gops = 2.0 * static_cast<double>(lanes) * rep.frequencyMHz * 1e6 *
                 out.perf.utilization / 1e9;
      out.cost.fpga = rep;
      out.cost.figures = rep.figures();
    }
    return out;
  }

  /// The backend's lower bound: cycles bounded at the operating point,
  /// figures exact (the cost models are mapping-free).
  cost::CostBound lowerBound(const stt::DataflowSpec& spec,
                             const stt::ArrayConfig& array) const {
    cost::CostBound b;
    b.cycles = static_cast<double>(
        oracle::cyclesLowerBound(spec, perfConfig(spec, array)));
    b.figures = kind == cost::BackendKind::Asic
                    ? cost::estimateAsic(spec, array, dataWidth).figures()
                    : cost::estimateFpga(spec, array, fpga).figures();
    return b;
  }
};

}  // namespace tensorlib::oracle

namespace tensorlib::testing {

struct ScalarOracle {
  /// What run() must return (cache counts stay zero: they are not values).
  driver::QueryResult result;
  /// What evaluateAll() must return: every report, in enumeration order.
  std::vector<driver::DesignReport> all;
};

inline ScalarOracle scalarOracle(const driver::ExploreQuery& q) {
  const oracle::Pricer pricer = oracle::Pricer::of(q);
  ScalarOracle out;
  driver::ParetoFrontier frontier;
  for (const stt::DataflowSpec& spec :
       stt::enumerateDesignSpace(q.algebra, q.enumeration)) {
    oracle::Priced priced = pricer.evaluate(spec, q.array);
    out.all.emplace_back(spec, priced.perf, std::move(priced.cost));
    const driver::DesignReport& rep = out.all.back();
    driver::ParetoEntry entry;
    entry.cost = {static_cast<double>(rep.perf.totalCycles),
                  rep.figures().powerMw, rep.figures().area,
                  rep.perf.utilization};
    entry.order = out.all.size() - 1;
    entry.label = spec.label();
    frontier.insert(entry);
  }
  const std::vector<driver::ParetoEntry> ordered = frontier.sorted();
  for (const driver::ParetoEntry& e : ordered)
    out.result.frontier.push_back(out.all[e.order]);
  if (const auto best = driver::pickBest(ordered, q.objective))
    out.result.best = out.result.frontier[*best];
  out.result.designs = out.all.size();
  return out;
}

}  // namespace tensorlib::testing
