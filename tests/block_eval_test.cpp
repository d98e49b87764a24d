// Block-path equivalence: the struct-of-arrays evaluation pipeline — the
// exploration service's only one — must agree with the scalar models in
// every output. Three layers of evidence:
//
//   * Differential: run() frontiers and winners, and evaluateAll() reports,
//     are bit-identical to a test-side scalar brute force
//     (scalar_oracle.hpp) across the full workload table x {ASIC, FPGA}
//     backends x {1, 8} worker threads x work-unit sizes, warm or cold, and
//     for batched duplicate traffic sharing one evaluation cache.
//   * Packed-model unit checks: packing copies every field the models read
//     off the DataflowSpec; computeMappingPacked equals the oracle's
//     exhaustive search field for field; CostBackend::lowerBoundBlock
//     equals the oracle's bound exactly (EXPECT_EQ on doubles); and every
//     spec-shaped wrapper (computeMapping, estimatePerformance,
//     cyclesLowerBound, estimateAsic, estimateFpga) equals the oracle and
//     the block entry points field for field.
//   * Accounting: hits + misses + pruned + skipped == designs holds,
//     including deadline-expired partial results where the whole untouched
//     remainder counts as skipped.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include <cstdlib>

#include "cost/backend.hpp"
#include "driver/explore_service.hpp"
#include "scalar_oracle.hpp"
#include "stt/block.hpp"
#include "stt/enumerate.hpp"
#include "stt/mapping.hpp"
#include "sim/perf.hpp"
#include "support/fault.hpp"
#include "tensor/workloads.hpp"

namespace tensorlib::driver {
namespace {

namespace wl = tensor::workloads;
using tensorlib::testing::scalarOracle;

void expectSameReport(const DesignReport& a, const DesignReport& b) {
  EXPECT_EQ(a.spec.label(), b.spec.label());
  EXPECT_EQ(a.spec.transform().str(), b.spec.transform().str());
  EXPECT_EQ(a.perf.totalCycles, b.perf.totalCycles);
  EXPECT_EQ(a.perf.utilization, b.perf.utilization);
  EXPECT_EQ(a.backend, b.backend);
  const auto fa = a.figures(), fb = b.figures();
  EXPECT_EQ(fa.powerMw, fb.powerMw);
  EXPECT_EQ(fa.area, fb.area);
}

void expectSameResult(const QueryResult& a, const QueryResult& b) {
  EXPECT_EQ(a.designs, b.designs);
  ASSERT_EQ(a.frontier.size(), b.frontier.size());
  for (std::size_t i = 0; i < a.frontier.size(); ++i)
    expectSameReport(a.frontier[i], b.frontier[i]);
  ASSERT_EQ(a.best.has_value(), b.best.has_value());
  if (a.best) expectSameReport(*a.best, *b.best);
}

void expectSameReports(const std::vector<DesignReport>& a,
                       const std::vector<DesignReport>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expectSameReport(a[i], b[i]);
}

ServiceOptions blockOptions(std::size_t threads, std::size_t workUnitSpecs = 32) {
  ServiceOptions o;
  o.threads = threads;
  o.workUnitSpecs = workUnitSpecs;  // 32: several units even on small spaces
  return o;
}

ExploreQuery workloadQuery(const wl::NamedWorkload& w,
                           cost::BackendKind backend) {
  ExploreQuery q(w.algebra);
  q.array.rows = q.array.cols = 4;
  q.backend = backend;
  q.enumeration.dropAllUnicast = !w.allowAllUnicast;
  return q;
}

void expectExactAccounting(const QueryResult& r) {
  EXPECT_EQ(r.cache.hits + r.cache.misses + r.cache.pruned + r.cache.skipped,
            r.designs);
}

/// Enumerates up to `cap` specs of the algebra the way the service does.
std::shared_ptr<const std::vector<stt::DataflowSpec>> enumerateSpecs(
    const tensor::TensorAlgebra& algebra, std::size_t cap,
    bool dropAllUnicast) {
  stt::EnumerationOptions enumeration;
  enumeration.dropAllUnicast = dropAllUnicast;
  auto specs = std::make_shared<std::vector<stt::DataflowSpec>>();
  for (const auto& sel : stt::allLoopSelections(algebra)) {
    if (specs->size() >= cap) break;
    for (auto& spec : stt::enumerateTransforms(algebra, sel, enumeration)) {
      specs->push_back(std::move(spec));
      if (specs->size() >= cap) break;
    }
  }
  return specs;
}

// --- the differential satellite ---------------------------------------------

TEST(BlockDifferential, FrontiersBitIdenticalToScalarOracleAcrossTable) {
  for (const auto& w : wl::allWorkloads()) {
    for (const auto backend :
         {cost::BackendKind::Asic, cost::BackendKind::Fpga}) {
      const ExploreQuery q = workloadQuery(w, backend);
      const auto oracle = scalarOracle(q);

      // Work-unit sizes that force degenerate one-spec units (and so
      // one-spec windows) and several multi-window units.
      for (const std::size_t unitSpecs : {std::size_t{1}, std::size_t{32}}) {
        for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
          SCOPED_TRACE(w.name + " backend=" + cost::backendKindName(backend) +
                       " workUnitSpecs=" + std::to_string(unitSpecs) +
                       " threads=" + std::to_string(threads));
          ExplorationService block(blockOptions(threads, unitSpecs));
          const QueryResult cold = block.run(q);
          expectSameResult(oracle.result, cold);
          expectExactAccounting(cold);
          EXPECT_EQ(cold.cache.skipped, 0u);
          expectSameReports(oracle.all, block.evaluateAll(q));
          const QueryResult warm = block.run(q);
          expectSameResult(oracle.result, warm);
          expectExactAccounting(warm);
        }
      }
    }
  }
}

TEST(BlockDifferential, WarmRunsStayBitIdentical) {
  // A warm cache turns would-be pruned candidates into peek hits; the block
  // path's output must not care.
  ExploreQuery q(wl::gemm(8, 8, 8));
  q.array.rows = q.array.cols = 4;
  const auto oracle = scalarOracle(q);

  ExplorationService block(blockOptions(1));
  const auto cold = block.run(q);
  (void)block.evaluateAll(q);  // prime the cache with every evaluation
  const auto warm = block.run(q);

  expectSameResult(oracle.result, cold);
  expectSameResult(oracle.result, warm);
  EXPECT_EQ(warm.cache.pruned, 0u);  // everything cached: peek wins first
  expectExactAccounting(warm);
}

TEST(BlockDifferential, EvaluateAllMatchesScalarOracleWarmAndCold) {
  // evaluateAll must report exactly the scalar models' values whether its
  // entries are computed fresh or were written by run()'s windows.
  ExploreQuery q(wl::attention(8, 8, 8));
  q.array.rows = q.array.cols = 4;
  const auto oracle = scalarOracle(q);

  ExplorationService cold(blockOptions(1));
  expectSameReports(oracle.all, cold.evaluateAll(q));

  ExplorationService warmed(blockOptions(1));
  (void)warmed.run(q);  // warm part of the cache through the windows
  expectSameReports(oracle.all, warmed.evaluateAll(q));

  // evaluate() on single specs reads the same values.
  for (std::size_t i = 0; i < oracle.all.size(); i += 7)
    expectSameReport(oracle.all[i], cold.evaluate(q, oracle.all[i].spec));
}

TEST(BlockDifferential, BatchedQueriesMatchScalarOracle) {
  // runBatch with duplicates and both backends: positional results equal
  // the scalar oracle's.
  std::vector<ExploreQuery> batch;
  for (const auto backend :
       {cost::BackendKind::Asic, cost::BackendKind::Fpga}) {
    ExploreQuery q(wl::gemm(6, 6, 6));
    q.array.rows = q.array.cols = 4;
    q.backend = backend;
    batch.push_back(q);
    batch.push_back(q);  // duplicate: exercises shared once-flag entries
  }

  ExplorationService block(blockOptions(8, 16));
  const auto actual = block.runBatch(batch);
  ASSERT_EQ(batch.size(), actual.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    expectSameResult(scalarOracle(batch[i]).result, actual[i]);
    expectExactAccounting(actual[i]);
  }
}

// --- deadline accounting on the block path -----------------------------------

class BlockDeadlineTest : public ::testing::Test {
 protected:
  void SetUp() override { support::FaultInjector::instance().disarm(); }
  void TearDown() override { support::FaultInjector::instance().disarm(); }
};

TEST_F(BlockDeadlineTest, ExpiryCountsWholeRemainderAsSkipped) {
  support::FaultInjector::instance().arm("work_unit=sleep:30@0");
  ExploreQuery q(wl::gemm(5, 5, 5));
  q.array.rows = q.array.cols = 4;
  q.deadlineMs = 1;
  ExplorationService service(blockOptions(1));
  const auto r = service.run(q);
  EXPECT_TRUE(r.timedOut);
  EXPECT_GT(r.cache.skipped, 0u);
  // The deadline is only observed at window boundaries, so the whole
  // untouched remainder of every unit lands in `skipped` and the bucket
  // invariant survives the partial result.
  expectExactAccounting(r);
}

TEST_F(BlockDeadlineTest, GenerousDeadlineChangesNothing) {
  ExploreQuery q(wl::gemm(5, 5, 5));
  q.array.rows = q.array.cols = 4;
  q.deadlineMs = 60'000;
  ExplorationService block(blockOptions(1));
  const auto r = block.run(q);
  EXPECT_FALSE(r.timedOut);
  EXPECT_EQ(r.cache.skipped, 0u);
  expectSameResult(scalarOracle(q).result, r);
  expectExactAccounting(r);
}

// --- packed-model unit checks ------------------------------------------------

void expectSameMapping(const stt::TileMapping& expected,
                       const stt::TileMapping& actual) {
  EXPECT_EQ(expected.fullTile, actual.fullTile);
  EXPECT_EQ(expected.spatialRowsUsed, actual.spatialRowsUsed);
  EXPECT_EQ(expected.spatialColsUsed, actual.spatialColsUsed);
  EXPECT_EQ(expected.replication, actual.replication);
  EXPECT_EQ(expected.outerIterations, actual.outerIterations);
  ASSERT_EQ(expected.tiles.size(), actual.tiles.size());
  for (std::size_t t = 0; t < expected.tiles.size(); ++t) {
    EXPECT_EQ(expected.tiles[t].shape, actual.tiles[t].shape);
    EXPECT_EQ(expected.tiles[t].count, actual.tiles[t].count);
    EXPECT_EQ(expected.tiles[t].macs, actual.tiles[t].macs);
    EXPECT_EQ(expected.tiles[t].computeCycles, actual.tiles[t].computeCycles);
    EXPECT_EQ(expected.tiles[t].trafficWords, actual.tiles[t].trafficWords);
    EXPECT_EQ(expected.tiles[t].tensorFootprints,
              actual.tiles[t].tensorFootprints);
  }
}

void expectSamePerf(const sim::PerfResult& a, const sim::PerfResult& b) {
  EXPECT_EQ(a.totalCycles, b.totalCycles);
  EXPECT_EQ(a.computeCycles, b.computeCycles);
  EXPECT_EQ(a.bandwidthCycles, b.bandwidthCycles);
  EXPECT_EQ(a.macs, b.macs);
  EXPECT_EQ(a.trafficWords, b.trafficWords);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.throughputGops, b.throughputGops);
  EXPECT_EQ(a.bandwidthBound, b.bandwidthBound);
}

void expectSameInventory(const cost::StructureInventory& a,
                         const cost::StructureInventory& b) {
  EXPECT_EQ(a.pes, b.pes);
  EXPECT_EQ(a.multipliers, b.multipliers);
  EXPECT_EQ(a.accumAdders, b.accumAdders);
  EXPECT_EQ(a.treeAdders, b.treeAdders);
  EXPECT_EQ(a.dataRegBits, b.dataRegBits);
  EXPECT_EQ(a.muxes, b.muxes);
  EXPECT_EQ(a.busLines, b.busLines);
  EXPECT_EQ(a.busTaps, b.busTaps);
  EXPECT_EQ(a.memPorts, b.memPorts);
  EXPECT_EQ(a.stationaryPes, b.stationaryPes);
  EXPECT_EQ(a.unicastPorts, b.unicastPorts);
}

void expectSameAsic(const cost::AsicReport& a, const cost::AsicReport& b) {
  EXPECT_EQ(a.areaMm2, b.areaMm2);
  EXPECT_EQ(a.powerMw, b.powerMw);
  expectSameInventory(a.inventory, b.inventory);
}

void expectSameFpga(const cost::FpgaReport& a, const cost::FpgaReport& b) {
  EXPECT_EQ(a.luts, b.luts);
  EXPECT_EQ(a.dsps, b.dsps);
  EXPECT_EQ(a.bram, b.bram);
  EXPECT_EQ(a.lutPct, b.lutPct);
  EXPECT_EQ(a.dspPct, b.dspPct);
  EXPECT_EQ(a.bramPct, b.bramPct);
  EXPECT_EQ(a.frequencyMHz, b.frequencyMHz);
  EXPECT_EQ(a.gops, b.gops);
  EXPECT_EQ(a.powerMw, b.powerMw);
  expectSameInventory(a.inventory, b.inventory);
}

/// Slot `i` of `set` holds exactly what `spec` says, read off the spec
/// here independently of the packing code.
void expectPackedSpec(const stt::SpecBlockSet& set, std::size_t i,
                      const stt::DataflowSpec& spec) {
  const std::size_t T = spec.tensors().size();
  ASSERT_EQ(set.tensorsPerSpec, T);
  EXPECT_EQ(set.inputCount, spec.algebra().inputs().size());
  EXPECT_EQ(set.algebraMacs, spec.algebra().totalMacs());
  EXPECT_EQ(set.labels[i], spec.label());

  const linalg::IntVector& extents = spec.selection().extents();
  std::int64_t outer = 1;
  for (std::size_t idx : spec.selection().outerIndices())
    outer *= spec.algebra().loops()[idx].extent;
  EXPECT_EQ(set.outer[i], outer);
  const linalg::IntMatrix& t = spec.transform().matrix();
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_EQ(set.specExtents(i)[j], extents[j]);
    for (std::size_t r = 0; r < 3; ++r)
      EXPECT_EQ(set.specAbsT(i)[r * 3 + j], std::llabs(t.at(r, j)));
  }

  std::size_t maxRank = 1;
  for (const auto& role : spec.tensors())
    maxRank = std::max(maxRank, role.access.coeff().rows());
  EXPECT_EQ(set.rankStride, maxRank);
  for (std::size_t k = 0; k < T; ++k) {
    const stt::TensorRole& role = spec.tensors()[k];
    const stt::TensorDataflow& df = role.dataflow;
    const std::size_t ti = set.tensorIndex(i, k);
    EXPECT_EQ(set.tensorIsOutput[k], role.isOutput ? 1 : 0);
    EXPECT_EQ(set.tensorRank[k], role.access.coeff().rows());
    EXPECT_EQ(set.classTag[ti], static_cast<std::uint8_t>(df.dataflowClass));
    const bool hasDirection = df.direction.size() >= 2;
    EXPECT_EQ(set.absDir[ti * 2 + 0],
              hasDirection ? std::llabs(df.direction[0]) : 0);
    EXPECT_EQ(set.absDir[ti * 2 + 1],
              hasDirection ? std::llabs(df.direction[1]) : 0);
    EXPECT_EQ(set.systolicDt[ti],
              df.dataflowClass == stt::DataflowClass::Systolic
                  ? std::llabs(df.latticeBasis.at(2, 0))
                  : 0);
    const std::int64_t* absC = set.tensorAbsC(i, k);
    const linalg::IntMatrix& c = role.access.coeff();
    for (std::size_t d = 0; d < set.rankStride; ++d)
      for (std::size_t j = 0; j < 3; ++j)
        EXPECT_EQ(absC[d * 3 + j], d < c.rows() ? std::llabs(c.at(d, j)) : 0)
            << "tensor " << k << " row " << d;
  }
}

TEST(BlockPacked, PackedFieldsMatchSpecsAcrossWorkloads) {
  for (const auto& w : wl::allWorkloads()) {
    for (const int maxEntry : {1, 2}) {
      stt::EnumerationOptions enumeration;
      enumeration.maxEntry = maxEntry;
      enumeration.dropAllUnicast = !w.allowAllUnicast;
      const auto specs = std::make_shared<const std::vector<stt::DataflowSpec>>(
          stt::enumerateDesignSpace(w.algebra, enumeration));
      ASSERT_FALSE(specs->empty()) << w.name;
      const auto set = stt::packSpecBlocks(specs);
      ASSERT_EQ(set->count, specs->size());
      ASSERT_EQ(set->labels.size(), specs->size());
      ASSERT_EQ(set->mapClass.size(), specs->size());
      for (std::size_t i = 0; i < specs->size(); ++i) {
        SCOPED_TRACE(w.name + " maxEntry=" + std::to_string(maxEntry) +
                     " spec=" + std::to_string(i));
        EXPECT_LT(set->mapClass[i], set->mapClassCount);
        expectPackedSpec(*set, i, (*specs)[i]);
        if (i % 5 == 0) {
          const auto one = stt::packSpec((*specs)[i]);
          ASSERT_EQ(one->count, 1u);
          EXPECT_EQ(one->mapClassCount, 1u);
          EXPECT_EQ(one->mapClass, std::vector<std::uint32_t>{0});
          expectPackedSpec(*one, 0, (*specs)[i]);
        }
      }
    }
  }
}

TEST(BlockPacked, MappingMatchesOracleAcrossWorkloads) {
  for (const auto& w : wl::allWorkloads()) {
    const auto specs = enumerateSpecs(w.algebra, 120, !w.allowAllUnicast);
    ASSERT_FALSE(specs->empty()) << w.name;
    const auto set = stt::packSpecBlocks(specs);
    ASSERT_EQ(set->count, specs->size());
    for (const int dataBytes : {2, 4}) {
      stt::ArrayConfig config;
      config.rows = config.cols = 4;
      config.dataBytes = dataBytes;
      for (std::size_t i = 0; i < set->count; ++i) {
        SCOPED_TRACE(w.name + " spec=" + std::to_string(i) +
                     " dataBytes=" + std::to_string(dataBytes));
        expectSameMapping(oracle::computeMapping((*specs)[i], config),
                          stt::computeMappingPacked(*set, i, config));
      }
    }
  }
}

TEST(BlockPacked, LowerBoundBlockEqualsOracleLowerBound) {
  const std::vector<std::pair<std::shared_ptr<const cost::CostBackend>,
                              oracle::Pricer>>
      backends{{cost::makeAsicBackend(16), oracle::Pricer::asic(16)},
               {cost::makeFpgaBackend(), oracle::Pricer::fpgaTarget()}};
  for (const auto& w : wl::allWorkloads()) {
    const auto specs = enumerateSpecs(w.algebra, 96, !w.allowAllUnicast);
    const auto set = stt::packSpecBlocks(specs);
    stt::ArrayConfig array;
    array.rows = array.cols = 4;
    std::vector<std::size_t> indices(set->count);
    for (std::size_t i = 0; i < set->count; ++i) indices[i] = i;
    for (const auto& [backend, pricer] : backends) {
      std::vector<cost::CostBound> packed(set->count);
      backend->lowerBoundBlock(*set, indices.data(), indices.size(), array,
                               packed.data());
      for (std::size_t i = 0; i < set->count; ++i) {
        SCOPED_TRACE(w.name + " spec=" + std::to_string(i) + " backend=" +
                     backend->name());
        const cost::CostBound scalar = pricer.lowerBound((*specs)[i], array);
        EXPECT_EQ(scalar.cycles, packed[i].cycles);
        EXPECT_EQ(scalar.figures.powerMw, packed[i].figures.powerMw);
        EXPECT_EQ(scalar.figures.area, packed[i].figures.area);
      }
    }
  }
}

TEST(BlockPacked, SpecWrappersMatchOracleAndBlockFieldForField) {
  // The spec-shaped entry points pack one spec and run the packed models;
  // each must equal the oracle's scalar arithmetic and the block entry
  // points over the whole list, at both backends' operating points.
  const cost::FpgaConfig fpgaConfig;
  const auto asicBackend = cost::makeAsicBackend(16);
  const auto fpgaBackend = cost::makeFpgaBackend(fpgaConfig);
  const oracle::Pricer asicPricer = oracle::Pricer::asic(16);
  const oracle::Pricer fpgaPricer = oracle::Pricer::fpgaTarget(fpgaConfig);
  for (const auto& w : wl::allWorkloads()) {
    const auto specs = enumerateSpecs(w.algebra, 40, !w.allowAllUnicast);
    const auto set = stt::packSpecBlocks(specs);
    for (const std::int64_t side : {4, 16}) {
      stt::ArrayConfig array;
      array.rows = array.cols = side;
      stt::BlockMappingStore asicStore(asicBackend->blockSlotCount(*set));
      stt::BlockMappingStore fpgaStore(fpgaBackend->blockSlotCount(*set));
      for (std::size_t i = 0; i < set->count; ++i) {
        const stt::DataflowSpec& spec = (*specs)[i];
        for (const oracle::Pricer* pricer : {&asicPricer, &fpgaPricer}) {
          SCOPED_TRACE(w.name + " spec=" + std::to_string(i) + " side=" +
                       std::to_string(side) + " backend=" + pricer->name());
          const stt::ArrayConfig perfCfg = pricer->perfConfig(spec, array);
          expectSameMapping(oracle::computeMapping(spec, perfCfg),
                            stt::computeMapping(spec, perfCfg));
          expectSamePerf(oracle::estimatePerformance(spec, perfCfg),
                         sim::estimatePerformance(spec, perfCfg));
          EXPECT_EQ(oracle::cyclesLowerBound(spec, perfCfg),
                    sim::cyclesLowerBound(spec, perfCfg));
        }
        SCOPED_TRACE(w.name + " spec=" + std::to_string(i) + " side=" +
                     std::to_string(side));
        const cost::AsicReport asic = cost::estimateAsic(spec, array, 16);
        const cost::BlockEval asicBlock =
            asicBackend->evaluateBlock(*set, i, array, asicStore);
        expectSameAsic(asicBlock.cost.asic, asic);
        expectSamePerf(asicPricer.evaluate(spec, array).perf, asicBlock.perf);

        const cost::FpgaReport fpga =
            cost::estimateFpga(spec, array, fpgaConfig);
        const oracle::Priced fpgaOracle = fpgaPricer.evaluate(spec, array);
        expectSameFpga(*fpgaOracle.cost.fpga, fpga);
        const cost::BlockEval fpgaBlock =
            fpgaBackend->evaluateBlock(*set, i, array, fpgaStore);
        ASSERT_TRUE(fpgaBlock.cost.fpga.has_value());
        expectSameFpga(*fpgaBlock.cost.fpga, fpga);
        expectSamePerf(fpgaOracle.perf, fpgaBlock.perf);
      }
    }
  }
}

TEST(BlockPacked, MappingClassesShareMappingsSoundly) {
  // Two specs in one mapping class must produce identical mappings — that
  // equivalence is what lets BlockMappingStore run one tile search per
  // class. Spot-check by comparing every spec's packed mapping against its
  // class representative's.
  const auto specs = enumerateSpecs(wl::gemm(8, 8, 8), 200, true);
  const auto set = stt::packSpecBlocks(specs);
  EXPECT_GT(set->mapClassCount, 0u);
  EXPECT_LT(set->mapClassCount, set->count);  // dedup must actually bite
  stt::ArrayConfig config;
  config.rows = config.cols = 4;
  std::vector<std::int64_t> representativeCycles(set->mapClassCount, -1);
  for (std::size_t i = 0; i < set->count; ++i) {
    const auto mapping = stt::computeMappingPacked(*set, i, config);
    const std::int64_t cycles = mapping.serialComputeCycles();
    auto& rep = representativeCycles[set->mapClass[i]];
    if (rep < 0)
      rep = cycles;
    else
      EXPECT_EQ(rep, cycles) << "spec " << i;
  }
}

}  // namespace
}  // namespace tensorlib::driver
