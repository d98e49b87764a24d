// Analytic performance model tests: agreement with the behavioral simulator
// on small instances and the qualitative orderings Fig. 5 depends on.
#include "sim/perf.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "scalar_oracle.hpp"
#include "sim/dfsim.hpp"
#include "stt/enumerate.hpp"
#include "tensor/workloads.hpp"

namespace tensorlib::sim {
namespace {

namespace wl = tensor::workloads;

stt::DataflowSpec specOf(const tensor::TensorAlgebra& algebra,
                         const std::string& label) {
  auto spec = stt::findDataflowByLabel(algebra, label);
  EXPECT_TRUE(spec.has_value()) << label;
  return *spec;
}

TEST(Perf, ComputeCyclesMatchSimulatorExactly) {
  const auto g = wl::gemm(12, 12, 12);
  stt::ArrayConfig cfg;
  cfg.rows = cfg.cols = 4;
  SimOptions opts;
  opts.functional = false;
  for (const char* label : {"MNK-SST", "MNK-MMT", "MNK-STS", "MNK-MTM"}) {
    const auto spec = specOf(g, label);
    const auto model = estimatePerformance(spec, cfg);
    const auto simd = simulate(spec, cfg, nullptr, opts);
    EXPECT_EQ(model.computeCycles, simd.computeCycles) << label;
    EXPECT_EQ(model.macs, simd.macs) << label;
    EXPECT_EQ(model.trafficWords, simd.trafficWords) << label;
  }
}

TEST(Perf, TotalCyclesTrackSimulatorUnderBandwidthPressure) {
  const auto bg = wl::batchedGemv(16, 16, 16);
  stt::ArrayConfig cfg;
  cfg.rows = cfg.cols = 8;
  cfg.bandwidthGBps = 8.0;
  SimOptions opts;
  opts.functional = false;
  for (const char* label : {"MNK-UMM", "MNK-USS"}) {
    const auto spec = specOf(bg, label);
    const auto model = estimatePerformance(spec, cfg);
    const auto simd = simulate(spec, cfg, nullptr, opts);
    // The model's aggregate server can't start serving early bursts late,
    // so it lower-bounds the profile-accurate simulator within ~25%.
    EXPECT_LE(model.totalCycles, simd.cycles) << label;
    EXPECT_GT(model.totalCycles * 1.25, static_cast<double>(simd.cycles))
        << label;
  }
}

TEST(Perf, MulticastBeatsSystolicOnGemm) {
  // Fig. 5(a): MTM-style multicast dataflows outperform SST systolic because
  // of the systolic pipeline fill (time row spans all three loops).
  const auto g = wl::gemm(256, 256, 256);
  stt::ArrayConfig cfg;  // paper: 16x16 @ 320MHz, 32GB/s
  const auto mtm = estimatePerformance(specOf(g, "MNK-MTM"), cfg);
  const auto sst = estimatePerformance(specOf(g, "MNK-SST"), cfg);
  EXPECT_LT(mtm.totalCycles, sst.totalCycles);
  EXPECT_GT(mtm.utilization, 0.9);
  EXPECT_GT(sst.utilization, 0.75);
  EXPECT_LT(sst.utilization, mtm.utilization);
}

TEST(Perf, UnicastIsBandwidthBound) {
  // Fig. 5(b)/(d): unicast dataflows saturate the 32 GB/s scratchpad.
  const auto bg = wl::batchedGemv(256, 256, 256);
  stt::ArrayConfig cfg;
  const auto u = estimatePerformance(specOf(bg, "MNK-UMM"), cfg);
  EXPECT_TRUE(u.bandwidthBound);
  EXPECT_LT(u.utilization, 0.6);
}

TEST(Perf, SmallKernelLoopsCapUtilization) {
  // Fig. 5(f): mapping a kernel loop (extent 3) spatially keeps at most
  // 15 of 16 rows busy.
  const auto conv = wl::conv2dResNetLayer2();
  stt::ArrayConfig cfg;
  const auto r = estimatePerformance(specOf(conv, "XPQ-MMB"), cfg);
  EXPECT_LE(r.utilization, 15.0 / 16.0 + 1e-9);
}

TEST(Perf, ResNetLayer5SlowerThanLayer2OnSpatialXY) {
  // Fig. 5(g): with X mapped spatially, layer-5's 7x7 maps leave the array
  // underutilized relative to layer-2's 56x56 maps. (KCX-style dataflows
  // don't suffer: their spatial loops are the big channel dimensions.)
  stt::ArrayConfig cfg;
  const auto l2 =
      estimatePerformance(specOf(wl::conv2dResNetLayer2(), "XPQ-MMB"), cfg);
  const auto l5 =
      estimatePerformance(specOf(wl::conv2dResNetLayer5(), "XPQ-MMB"), cfg);
  EXPECT_GT(l2.utilization, l5.utilization);
}

TEST(Perf, KcxBeatsXySpatialOnLargeConv) {
  // Paper: "for Conv2D workloads, selecting KCX iterations can deliver
  // better performance because it becomes standard GEMM with large bounds".
  const auto conv = wl::conv2dResNetLayer2();
  stt::ArrayConfig cfg;
  const auto kcx = estimatePerformance(specOf(conv, "KCX-SST"), cfg);
  const auto xpq = estimatePerformance(specOf(conv, "XPQ-MMB"), cfg);
  EXPECT_GT(kcx.utilization, xpq.utilization);
}

TEST(Perf, ThroughputScalesWithFrequency) {
  const auto g = wl::gemm(64, 64, 64);
  stt::ArrayConfig lo, hi;
  lo.frequencyMHz = 160.0;
  hi.frequencyMHz = 320.0;
  // Keep words-per-cycle identical so only frequency differs.
  lo.bandwidthGBps = 16.0;
  hi.bandwidthGBps = 32.0;
  const auto spec = specOf(g, "MNK-MMT");
  const auto l = estimatePerformance(spec, lo);
  const auto h = estimatePerformance(spec, hi);
  EXPECT_EQ(l.totalCycles, h.totalCycles);
  EXPECT_NEAR(h.throughputGops, 2.0 * l.throughputGops, 1e-9);
}

TEST(Perf, StrDescribesResult) {
  const auto g = wl::gemm(16, 16, 16);
  stt::ArrayConfig cfg;
  const auto r = estimatePerformance(specOf(g, "MNK-MMT"), cfg);
  EXPECT_NE(r.str().find("cycles="), std::string::npos);
}

// Property: normalized performance (utilization) is in (0,1] for every
// enumerated design of every Table-II workload at paper scale.
struct PerfSweepCase {
  const char* name;
  tensor::TensorAlgebra algebra;
};

class PerfSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(PerfSweepTest, EnumeratedDesignsHaveSaneUtilization) {
  std::vector<tensor::TensorAlgebra> algebras{
      wl::gemm(64, 64, 64), wl::batchedGemv(32, 32, 32),
      wl::depthwiseConv(16, 14, 14, 3, 3), wl::mttkrp(16, 16, 16, 16),
      wl::ttmc(8, 8, 8, 8, 8)};
  const auto& algebra = algebras[static_cast<std::size_t>(GetParam())];
  stt::ArrayConfig cfg;
  cfg.rows = cfg.cols = 8;
  const auto sels = stt::allLoopSelections(algebra);
  // First selection only per instance: the full cross product is covered by
  // the enumeration tests; here we check the perf model stays sane.
  const auto specs = stt::enumerateTransforms(algebra, sels.front());
  for (const auto& spec : specs) {
    const auto r = estimatePerformance(spec, cfg);
    EXPECT_GT(r.utilization, 0.0) << spec.describe();
    EXPECT_LE(r.utilization, 1.0 + 1e-9) << spec.describe();
    EXPECT_GE(r.totalCycles, r.computeCycles) << spec.describe();
    EXPECT_EQ(r.macs, algebra.totalMacs()) << spec.describe();
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, PerfSweepTest, ::testing::Range(0, 5));

// Regression for the unguarded divisions in the ratio metrics (same class
// of bug as the PR-1 SimResult::utilization fix): zero cycles and a zero
// frequency used to make utilization NaN and throughputGops inf.
TEST(Perf, FinalizeIsDivisionSafe) {
  stt::ArrayConfig cfg;

  PerfResult zeroed;  // all counters zero: 0 / 0 in both ratios
  const PerfResult empty = finalizePerf(zeroed, cfg);
  EXPECT_EQ(empty.utilization, 0.0);
  EXPECT_EQ(empty.throughputGops, 0.0);
  EXPECT_TRUE(std::isfinite(empty.utilization));
  EXPECT_TRUE(std::isfinite(empty.throughputGops));

  PerfResult busy;
  busy.totalCycles = 128;
  busy.macs = 1024;
  stt::ArrayConfig stopped = cfg;
  stopped.frequencyMHz = 0.0;  // seconds == 0: throughput would be inf
  const PerfResult atZeroHz = finalizePerf(busy, stopped);
  EXPECT_GT(atZeroHz.utilization, 0.0);
  EXPECT_EQ(atZeroHz.throughputGops, 0.0);
  EXPECT_TRUE(std::isfinite(atZeroHz.throughputGops));

  // The estimate path keeps producing finite metrics for a real spec.
  const auto spec = specOf(wl::gemm(8, 8, 8), "MNK-SST");
  stt::ArrayConfig small;
  small.rows = small.cols = 4;
  const PerfResult r = estimatePerformance(spec, small);
  EXPECT_TRUE(std::isfinite(r.utilization));
  EXPECT_TRUE(std::isfinite(r.throughputGops));
  EXPECT_GT(r.throughputGops, 0.0);
}

// The cycles lower bound is sound on the named designs and exact for the
// utilization-1.0 ones; both spec wrappers equal the oracle's arithmetic.
TEST(Perf, CyclesLowerBoundHoldsForNamedDesigns) {
  const auto g = wl::gemm(32, 32, 32);
  stt::ArrayConfig cfg;
  cfg.rows = cfg.cols = 8;
  for (const char* label : {"MNK-SST", "MNK-MMT", "MNK-STS", "MNK-MTM"}) {
    const auto spec = specOf(g, label);
    const auto perf = estimatePerformance(spec, cfg);
    EXPECT_LE(cyclesLowerBound(spec, cfg), perf.totalCycles) << label;
    EXPECT_EQ(cyclesLowerBound(spec, cfg), oracle::cyclesLowerBound(spec, cfg))
        << label;
    EXPECT_EQ(perf.totalCycles,
              oracle::estimatePerformance(spec, cfg).totalCycles)
        << label;
  }
}

}  // namespace
}  // namespace tensorlib::sim
