// FPGA resource / frequency / throughput model (the Vivado role for
// Table III).
//
// Targets the paper's board, a Xilinx VU9P (1182k LUTs, 6840 DSPs, 2160
// BRAM36). Resource counts derive from the same structural inventory as the
// ASIC model plus a floating-point unit cost table; frequency comes from a
// simple interconnect-style model with the paper's AutoBridge-style
// placement optimization as an opt-in (+25% on systolic designs, §VI-C).
#pragma once

#include <string>

#include "cost/asic.hpp"
#include "sim/perf.hpp"

namespace tensorlib::cost {

struct FpgaDevice {
  std::string name = "VU9P";
  std::int64_t luts = 1182000;
  std::int64_t dsps = 6840;
  std::int64_t bram36 = 2160;
};

struct FpgaConfig {
  FpgaDevice device;
  bool fp32 = true;       ///< FP32 datapath (Table III) vs INT16
  std::int64_t vectorLanes = 8;  ///< per-PE SIMD vectorization (paper: 8)
  bool placementOptimized = false;  ///< AutoBridge-style floorplanning
};

struct FpgaReport {
  std::int64_t luts = 0;
  std::int64_t dsps = 0;
  std::int64_t bram = 0;
  double lutPct = 0.0, dspPct = 0.0, bramPct = 0.0;
  double frequencyMHz = 0.0;
  double gops = 0.0;  ///< 2 * MACs/s at achieved frequency and utilization
  /// Activity-weighted dynamic power at the achieved frequency plus the
  /// device static floor — same axis (mW) as AsicReport::powerMw so the
  /// two backends present one objective surface.
  double powerMw = 0.0;
  /// The structural inventory the resource counts were derived from
  /// (mirrors AsicReport::inventory).
  StructureInventory inventory;
  /// Fraction of the limiting device resource consumed (0..1); the FPGA
  /// "area" axis for objectives and Pareto frontiers.
  double utilizationFraction() const;
  CostFigures figures() const { return {powerMw, utilizationFraction()}; }
  std::string str() const;
};

/// The interconnect model's frequency tier of SpecBlockSet slot `i`:
/// systolic designs close timing highest (neighbor-only wires); multicast
/// broadcast nets and unicast port fabrics cost routing slack. Tier 0 =
/// neighbor-only wiring (263 MHz), 1 = broadcast nets (231), 2 = unicast
/// port fabric (221); any Unicast tensor wins over a broadcast one because
/// 221 < 231.
int fpgaFrequencyTier(const stt::SpecBlockSet& set, std::size_t i);

/// Post-route clock of a tier; placement optimization lifts it.
double fpgaTierFrequencyMHz(int tier, const FpgaConfig& cfg);

/// The array configuration FPGA performance must be modeled at: the caller's
/// geometry/bandwidth with the frequency forced to the tier's post-route
/// clock and the word size forced to match the fp32 flag (a stale INT16
/// dataBytes would double the deliverable words/cycle for FP32 designs).
stt::ArrayConfig fpgaTierPerfConfig(const stt::ArrayConfig& arrayConfig,
                                    int tier, const FpgaConfig& cfg);

/// Prices an already-derived inventory at an already-decided frequency
/// (`gops` is left at 0). `pes` is the physical array size rows * cols.
FpgaReport fpgaFromInventory(const StructureInventory& inventory,
                             double frequencyMHz, std::int64_t pes,
                             const FpgaConfig& cfg);

/// The FPGA report of SpecBlockSet slot `i` at frequency tier `tier` — the
/// single arithmetic core behind estimateFpga and the FPGA backend's block
/// entry points. Resources, frequency and power derive from the structural
/// inventory alone; `gops` scales the lanes by `utilization`, the perf
/// model's at fpgaTierPerfConfig(arrayConfig, tier, cfg) (0 gives the
/// mapping-free figures the lower-bound pass prices, with gops 0).
FpgaReport fpgaReportBlock(const stt::SpecBlockSet& set, std::size_t i,
                           const stt::ArrayConfig& arrayConfig, int tier,
                           double utilization, const FpgaConfig& cfg);

/// Estimates the FPGA implementation of `spec` mapped on `arrayConfig`
/// (rows x cols PEs, each with cfg.vectorLanes MAC lanes) running the
/// spec's own workload for utilization: fpgaReportBlock over a one-spec
/// pack.
FpgaReport estimateFpga(const stt::DataflowSpec& spec,
                        const stt::ArrayConfig& arrayConfig,
                        const FpgaConfig& cfg);

}  // namespace tensorlib::cost
