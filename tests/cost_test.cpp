// Cost-model tests: structural inventories (cross-checked against the
// generated netlists), ASIC area/power ranges and orderings (Fig. 6), and
// the FPGA resource model (Table III).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "arch/generator.hpp"
#include "workload_samples.hpp"
#include "cost/fpga.hpp"
#include "cost/netlist_cost.hpp"
#include "stt/enumerate.hpp"
#include "tensor/workloads.hpp"

namespace tensorlib::cost {
namespace {

namespace wl = tensor::workloads;

stt::DataflowSpec gemm16(const std::string& label) {
  const auto g = wl::gemm(256, 256, 256);
  auto spec = stt::findDataflowByLabel(g, label);
  EXPECT_TRUE(spec.has_value()) << label;
  return *spec;
}

TEST(Inventory, SstStructure) {
  stt::ArrayConfig cfg;  // 16x16
  const auto inv =
      deriveInventory(*stt::packSpec(gemm16("MNK-SST")), 0, cfg, 16);
  EXPECT_EQ(inv.pes, 256);
  EXPECT_EQ(inv.multipliers, 256);
  // A and B systolic with dt=1: (16+1)-bit hops on 240 interior PEs each,
  // plus C's per-PE double buffer.
  EXPECT_EQ(inv.dataRegBits, 2 * 240 * 17 + 2 * 256 * 16);
  EXPECT_EQ(inv.accumAdders, 256);  // stationary output accumulators
  EXPECT_EQ(inv.treeAdders, 0);
  EXPECT_EQ(inv.stationaryPes, 256);
}

TEST(Inventory, MulticastStructure) {
  stt::ArrayConfig cfg;
  const auto inv =
      deriveInventory(*stt::packSpec(gemm16("MNK-MMT")), 0, cfg, 16);
  EXPECT_EQ(inv.busLines, 32);  // 16 row buses + 16 column buses
  EXPECT_EQ(inv.busTaps, 512);
  EXPECT_EQ(inv.treeAdders, 0);  // output stationary, no tree
}

TEST(Inventory, ReductionTreeStructure) {
  stt::ArrayConfig cfg;
  const auto inv =
      deriveInventory(*stt::packSpec(gemm16("MNK-SSM")), 0, cfg, 16);
  EXPECT_EQ(inv.treeAdders, 256 - 16);  // 16 lines, 15 adders each
}

TEST(Inventory, MatchesGeneratedNetlistRegisterBits) {
  // The analytic inventory must agree with the actual generated netlist on
  // datapath register bits for pure-systolic designs (no controller or
  // port-boundary registers in the analytic count).
  const auto g = wl::gemm(4, 4, 4);
  const auto spec = stt::findDataflowByLabel(g, "MNK-SST");
  stt::ArrayConfig cfg;
  cfg.rows = cfg.cols = 4;
  const auto acc = arch::generateAccelerator(*spec, cfg);
  const auto inv = deriveInventory(*stt::packSpec(*spec), 0, cfg, 16);
  // Netlist extra: the 32-bit controller counter. Datapath regs: A,B chain
  // hops on interior PEs (17 bits each) + C acc+drain (16 bits x 2 x 16).
  EXPECT_EQ(acc.netlist.regBits(), inv.dataRegBits + 32);
}

TEST(Asic, GemmSpaceLandsInPaperRanges) {
  // Fig. 6(a): 16x16 INT16 GEMM designs: area 0.75-0.875 mm², power
  // 35-63 mW. Enforce a slightly padded envelope.
  const auto g = wl::gemm(256, 256, 256);
  const auto specs = stt::enumerateTransforms(g, stt::LoopSelection(g, {0, 1, 2}));
  ASSERT_GT(specs.size(), 50u);
  stt::ArrayConfig cfg;
  double minA = 1e9, maxA = 0, minP = 1e9, maxP = 0;
  for (const auto& s : specs) {
    const auto rep = estimateAsic(s, cfg, 16);
    minA = std::min(minA, rep.areaMm2);
    maxA = std::max(maxA, rep.areaMm2);
    minP = std::min(minP, rep.powerMw);
    maxP = std::max(maxP, rep.powerMw);
  }
  EXPECT_GT(minA, 0.60);
  EXPECT_LT(maxA, 1.00);
  EXPECT_GT(minP, 25.0);
  EXPECT_LT(maxP, 75.0);
  // Paper: power spread (~1.8x) exceeds area spread (~1.16x).
  EXPECT_GT(maxP / minP, 1.4);
  EXPECT_LT(maxA / minA, 1.35);
  EXPECT_GT(maxP / minP, maxA / minA);
}

TEST(Asic, DualMulticastCostsMorePowerThanTree) {
  // Paper: "dataflow with two multicast input (MMT, MMS) consumes more
  // energy... reduction tree output dataflow doesn't cost too much".
  stt::ArrayConfig cfg;
  const auto mmt = estimateAsic(gemm16("MNK-MMT"), cfg, 16);
  const auto ssm = estimateAsic(gemm16("MNK-SSM"), cfg, 16);
  const auto sst = estimateAsic(gemm16("MNK-SST"), cfg, 16);
  EXPECT_GT(mmt.powerMw, ssm.powerMw);
  EXPECT_GT(mmt.powerMw, sst.powerMw);
  EXPECT_LT(ssm.powerMw, mmt.powerMw * 0.9);
}

TEST(Asic, StationaryCostsAreaAndPower) {
  // Paper: "dataflows with stationary tensor also consume more area and
  // energy because of the control signals".
  stt::ArrayConfig cfg;
  const auto tss = estimateAsic(gemm16("MNK-TSS"), cfg, 16);  // A stationary
  const auto ssm = estimateAsic(gemm16("MNK-SSM"), cfg, 16);  // none stationary
  EXPECT_GT(tss.areaMm2, ssm.areaMm2 * 0.98);
  EXPECT_GT(tss.powerMw + 1e-9, ssm.powerMw * 0.9);
}

TEST(Asic, ReportString) {
  stt::ArrayConfig cfg;
  const auto rep = estimateAsic(gemm16("MNK-SST"), cfg, 16);
  EXPECT_NE(rep.str().find("area="), std::string::npos);
}

TEST(NetlistCost, CountsMatchGeneratedStructure) {
  const auto g = wl::gemm(8, 8, 8);
  const auto spec = stt::findDataflowByLabel(g, "MNK-SST");
  stt::ArrayConfig cfg;
  cfg.rows = cfg.cols = 8;
  const auto acc = arch::generateAccelerator(*spec, cfg);
  const auto price = priceNetlist(acc.netlist);
  EXPECT_EQ(price.multipliers, 64);             // one MAC per PE
  EXPECT_EQ(price.regBits, acc.netlist.regBits());
  EXPECT_GT(price.adders, 64);                  // accumulators + controller
  EXPECT_GT(price.areaMm2, 0.0);
  EXPECT_GT(price.powerMw, 0.0);
}

TEST(NetlistCost, TracksAnalyticModelOnDatapath) {
  // The netlist-derived datapath price must sit within the analytic
  // estimate (which additionally carries buses, banks, clocking and PE
  // overhead) — a structural cross-check between the two accountings.
  const auto g = wl::gemm(16, 16, 16);
  stt::ArrayConfig cfg;
  for (const char* label : {"MNK-SST", "MNK-MMT", "MNK-STS", "MNK-SSM"}) {
    const auto spec = stt::findDataflowByLabel(g, label);
    const auto acc = arch::generateAccelerator(*spec, cfg);
    const auto netlistPrice = priceNetlist(acc.netlist);
    const auto analytic = estimateAsic(*spec, cfg, 16);
    EXPECT_LT(netlistPrice.areaMm2, analytic.areaMm2) << label;
    EXPECT_GT(netlistPrice.areaMm2, 0.35 * analytic.areaMm2) << label;
    EXPECT_LT(netlistPrice.powerMw, analytic.powerMw) << label;
  }
}

TEST(Fpga, TableThreeShape) {
  // TensorLib row of Table III: 10x16 array, vec 8, FP32, MM workload.
  const auto g = wl::gemm(1024, 1024, 1024);
  const auto spec = stt::findDataflowByLabel(g, "MNK-STS");  // weight-stationary
  ASSERT_TRUE(spec.has_value());
  stt::ArrayConfig arr;
  arr.rows = 10;
  arr.cols = 16;
  arr.bandwidthGBps = 512.0;  // on-chip banks feed the array directly
  arr.dataBytes = 4;
  FpgaConfig fc;
  const auto rep = estimateFpga(*spec, arr, fc);
  // Paper: LUT 68%, DSP 75%, BRAM 51%, 263 MHz, 673 Gop/s. Model targets
  // the same regime.
  EXPECT_NEAR(rep.dspPct, 75.0, 3.0);
  EXPECT_NEAR(rep.lutPct, 68.0, 10.0);
  EXPECT_NEAR(rep.bramPct, 51.0, 12.0);
  EXPECT_NEAR(rep.frequencyMHz, 263.0, 1.0);
  EXPECT_GT(rep.gops, 600.0);
  EXPECT_LT(rep.gops, 700.0);
}

TEST(Fpga, PlacementOptimizationRaisesFrequency) {
  // §VI-C: AutoBridge-style floorplanning lifts the MM design to ~328 MHz.
  const auto g = wl::gemm(1024, 1024, 1024);
  const auto spec = stt::findDataflowByLabel(g, "MNK-STS");
  stt::ArrayConfig arr;
  arr.rows = 10;
  arr.cols = 16;
  arr.bandwidthGBps = 512.0;
  arr.dataBytes = 4;
  FpgaConfig fc;
  fc.placementOptimized = true;
  const auto rep = estimateFpga(*spec, arr, fc);
  EXPECT_NEAR(rep.frequencyMHz, 328.0, 2.0);
}

TEST(Fpga, MulticastLowersFrequency) {
  const auto g = wl::gemm(256, 256, 256);
  stt::ArrayConfig arr;
  arr.bandwidthGBps = 512.0;
  FpgaConfig fc;
  const auto sys = estimateFpga(*stt::findDataflowByLabel(g, "MNK-SST"), arr, fc);
  const auto mc = estimateFpga(*stt::findDataflowByLabel(g, "MNK-MMT"), arr, fc);
  EXPECT_GT(sys.frequencyMHz, mc.frequencyMHz);
}

TEST(Fpga, ReportSurfaceMatchesAsicReport) {
  // The FPGA report carries the same summary surface as the ASIC one —
  // power in mW, a scalar area axis, the derived inventory — so the
  // CostBackend interface needs no per-backend special cases.
  const auto g = wl::gemm(64, 64, 64);
  const auto spec = stt::findDataflowByLabel(g, "MNK-SST");
  stt::ArrayConfig arr;
  arr.rows = arr.cols = 8;
  const auto rep = estimateFpga(*spec, arr, FpgaConfig{});
  EXPECT_GT(rep.powerMw, 0.0);
  EXPECT_EQ(rep.inventory.pes, 64);
  EXPECT_GT(rep.inventory.multipliers, 0);
  const CostFigures f = rep.figures();
  EXPECT_EQ(f.powerMw, rep.powerMw);
  EXPECT_GT(f.area, 0.0);
  EXPECT_DOUBLE_EQ(
      f.area, std::max({rep.lutPct, rep.dspPct, rep.bramPct}) / 100.0);
  EXPECT_NE(rep.str().find("mW"), std::string::npos);
}

TEST(Fpga, WordSizeFollowsDatapathNotCallerConfig) {
  // Unit fix: an FP32 datapath moves 4-byte words through the bandwidth
  // model even when the caller leaves ArrayConfig::dataBytes at the INT16
  // default — the stale field used to double the deliverable words/cycle.
  const auto g = wl::gemm(256, 256, 256);
  const auto spec = stt::findDataflowByLabel(g, "MNK-STS");
  stt::ArrayConfig stale;  // dataBytes = 2
  stt::ArrayConfig correct;
  correct.dataBytes = 4;
  FpgaConfig fc;  // fp32 = true
  const auto a = estimateFpga(*spec, stale, fc);
  const auto b = estimateFpga(*spec, correct, fc);
  EXPECT_DOUBLE_EQ(a.gops, b.gops);
  EXPECT_DOUBLE_EQ(a.powerMw, b.powerMw);
}

// ---- table-driven coverage over the scenario library -----------------------

using ::tensorlib::testing::cappedSpecs;

TEST(CostTableDriven, EveryWorkloadPricesOnBothBackends) {
  stt::ArrayConfig arr;
  arr.rows = arr.cols = 8;
  FpgaConfig fc;
  for (const auto& w : wl::allWorkloads()) {
    const auto specs = cappedSpecs(w);
    ASSERT_FALSE(specs.empty()) << w.name;
    for (const auto& spec : specs) {
      const auto asic = estimateAsic(spec, arr, 16);
      EXPECT_TRUE(std::isfinite(asic.areaMm2) && asic.areaMm2 > 0.0)
          << w.name << " " << spec.label();
      EXPECT_TRUE(std::isfinite(asic.powerMw) && asic.powerMw > 0.0)
          << w.name << " " << spec.label();
      EXPECT_EQ(asic.inventory.pes, arr.rows * arr.cols) << w.name;

      const auto fpga = estimateFpga(spec, arr, fc);
      EXPECT_GT(fpga.luts, 0) << w.name << " " << spec.label();
      EXPECT_GT(fpga.dsps, 0) << w.name << " " << spec.label();
      EXPECT_GT(fpga.bram, 0) << w.name << " " << spec.label();
      EXPECT_GE(fpga.frequencyMHz, 200.0) << w.name << " " << spec.label();
      EXPECT_LE(fpga.frequencyMHz, 340.0) << w.name << " " << spec.label();
      EXPECT_TRUE(std::isfinite(fpga.powerMw) && fpga.powerMw > 0.0)
          << w.name << " " << spec.label();
      EXPECT_TRUE(std::isfinite(fpga.gops) && fpga.gops >= 0.0)
          << w.name << " " << spec.label();
    }
  }
}

TEST(CostTableDriven, BiggerArrayNeverCostsLess) {
  // Monotonicity sanity on every scenario: growing the array can only add
  // structure — area, power and FPGA resources must not shrink.
  stt::ArrayConfig small;
  small.rows = small.cols = 4;
  stt::ArrayConfig large;
  large.rows = large.cols = 8;
  FpgaConfig fc;
  for (const auto& w : wl::allWorkloads()) {
    const auto specs = cappedSpecs(w);
    for (const auto& spec : specs) {
      const auto a4 = estimateAsic(spec, small, 16);
      const auto a8 = estimateAsic(spec, large, 16);
      EXPECT_GE(a8.areaMm2, a4.areaMm2) << w.name << " " << spec.label();
      EXPECT_GE(a8.powerMw, a4.powerMw) << w.name << " " << spec.label();

      const auto f4 = estimateFpga(spec, small, fc);
      const auto f8 = estimateFpga(spec, large, fc);
      EXPECT_GE(f8.luts, f4.luts) << w.name << " " << spec.label();
      EXPECT_GE(f8.dsps, f4.dsps) << w.name << " " << spec.label();
      EXPECT_GE(f8.bram, f4.bram) << w.name << " " << spec.label();
      EXPECT_GE(f8.powerMw, f4.powerMw) << w.name << " " << spec.label();
    }
  }
}

}  // namespace
}  // namespace tensorlib::cost
