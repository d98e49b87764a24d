// Block-path equivalence: the struct-of-arrays evaluation pipeline — the
// exploration service's only one — must agree with the scalar models in
// every output. Three layers of evidence:
//
//   * Differential: run() frontiers and winners, and evaluateAll() reports,
//     are bit-identical to a test-side scalar brute force
//     (scalar_oracle.hpp) across the full workload table x {ASIC, FPGA}
//     backends x {1, 8} worker threads x work-unit sizes, warm or cold, and
//     for batched duplicate traffic sharing one evaluation cache.
//   * Packed-model unit checks: computeMappingPacked equals computeMapping
//     field for field, and CostBackend::lowerBoundBlock equals lowerBound
//     exactly (EXPECT_EQ on doubles), on every enumerated spec checked.
//   * Accounting: hits + misses + pruned + skipped == designs holds,
//     including deadline-expired partial results where the whole untouched
//     remainder counts as skipped.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cost/backend.hpp"
#include "driver/explore_service.hpp"
#include "scalar_oracle.hpp"
#include "stt/block.hpp"
#include "stt/enumerate.hpp"
#include "stt/mapping.hpp"
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

TEST(BlockPacked, MappingMatchesComputeMappingAcrossWorkloads) {
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
        const stt::TileMapping expected =
            stt::computeMapping((*specs)[i], config);
        const stt::TileMapping actual =
            stt::computeMappingPacked(*set, i, config);
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
          EXPECT_EQ(expected.tiles[t].computeCycles,
                    actual.tiles[t].computeCycles);
          EXPECT_EQ(expected.tiles[t].trafficWords,
                    actual.tiles[t].trafficWords);
          EXPECT_EQ(expected.tiles[t].tensorFootprints,
                    actual.tiles[t].tensorFootprints);
        }
      }
    }
  }
}

TEST(BlockPacked, LowerBoundBlockEqualsScalarLowerBound) {
  const auto backends = {cost::makeAsicBackend(16), cost::makeFpgaBackend()};
  for (const auto& w : wl::allWorkloads()) {
    const auto specs = enumerateSpecs(w.algebra, 96, !w.allowAllUnicast);
    const auto set = stt::packSpecBlocks(specs);
    stt::ArrayConfig array;
    array.rows = array.cols = 4;
    std::vector<std::size_t> indices(set->count);
    for (std::size_t i = 0; i < set->count; ++i) indices[i] = i;
    for (const auto& backend : backends) {
      std::vector<cost::CostBound> packed(set->count);
      backend->lowerBoundBlock(*set, indices.data(), indices.size(), array,
                               packed.data());
      for (std::size_t i = 0; i < set->count; ++i) {
        SCOPED_TRACE(w.name + " spec=" + std::to_string(i) + " backend=" +
                     backend->name());
        const cost::CostBound scalar = backend->lowerBound((*specs)[i], array);
        EXPECT_EQ(scalar.cycles, packed[i].cycles);
        EXPECT_EQ(scalar.figures.powerMw, packed[i].figures.powerMw);
        EXPECT_EQ(scalar.figures.area, packed[i].figures.area);
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
