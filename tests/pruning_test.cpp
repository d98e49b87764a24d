// Pruning soundness: the lower-bound dominance cut in the exploration
// service must be invisible in every output. Two layers of evidence:
//
//   * Differential: pruned vs exhaustive frontiers (and winners) are
//     bit-identical across the full workload table x {ASIC, FPGA} backends
//     x {1, 8} worker threads.
//   * Unit: CostBackend::lowerBoundBlock never exceeds evaluateBlock's
//     figures in any axis (cycles, power, area) — checked on fuzz-seeded
//     random algebras and on the registered workloads, both backends.
#include <gtest/gtest.h>

#include <algorithm>

#include "cost/backend.hpp"
#include "driver/explore_service.hpp"
#include "sim/perf.hpp"
#include "stt/block.hpp"
#include "stt/enumerate.hpp"
#include "tensor/workloads.hpp"
#include "verify/fuzz.hpp"

namespace tensorlib::driver {
namespace {

namespace wl = tensor::workloads;

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

ServiceOptions pruningOptions(std::size_t threads) {
  ServiceOptions o;
  o.threads = threads;
  o.workUnitSpecs = 32;  // several units per query even on small spaces
  return o;
}

ExploreQuery workloadQuery(const wl::NamedWorkload& w, cost::BackendKind backend) {
  ExploreQuery q(w.algebra);
  q.array.rows = q.array.cols = 4;
  q.backend = backend;
  q.enumeration.dropAllUnicast = !w.allowAllUnicast;
  return q;
}

// --- the differential satellite ---------------------------------------------

TEST(PruningDifferential, FrontiersBitIdenticalToExhaustiveAcrossTable) {
  for (const auto& w : wl::allWorkloads()) {
    for (const auto backend : {cost::BackendKind::Asic, cost::BackendKind::Fpga}) {
      const ExploreQuery q = workloadQuery(w, backend);

      ServiceOptions exhaustiveOpts = pruningOptions(1);
      exhaustiveOpts.enablePruning = false;
      ExplorationService exhaustive(exhaustiveOpts);
      const QueryResult reference = exhaustive.run(q);
      EXPECT_EQ(reference.cache.pruned, 0u) << w.name;

      for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        ExplorationService pruned(pruningOptions(threads));
        const QueryResult result = pruned.run(q);
        SCOPED_TRACE(w.name + " backend=" + cost::backendKindName(backend) +
                     " threads=" + std::to_string(threads));
        expectSameResult(reference, result);
        // Every design point is accounted for exactly once.
        EXPECT_EQ(result.cache.hits + result.cache.misses + result.cache.pruned,
                  result.designs);
      }
    }
  }
}

TEST(PruningDifferential, WarmRunsStayBitIdentical) {
  // A warm cache turns would-be pruned candidates into hits; output must
  // not care.
  ExploreQuery q(wl::gemm(8, 8, 8));
  q.array.rows = q.array.cols = 4;

  ServiceOptions opts = pruningOptions(1);
  ExplorationService service(opts);
  const auto cold = service.run(q);

  ServiceOptions exhaustiveOpts = pruningOptions(1);
  exhaustiveOpts.enablePruning = false;
  ExplorationService exhaustive(exhaustiveOpts);
  const auto reference = exhaustive.run(q);
  // Prime the pruned service's cache with every evaluation, then rerun.
  (void)service.evaluateAll(q);
  const auto warm = service.run(q);

  expectSameResult(reference, cold);
  expectSameResult(reference, warm);
  EXPECT_EQ(warm.cache.pruned, 0u);  // everything cached: peek wins first
}

// --- bound soundness --------------------------------------------------------

/// Asserts bound <= true on every enumerated spec of the algebra (capped),
/// both backends. Returns the number of specs checked.
std::size_t checkBounds(const tensor::TensorAlgebra& algebra,
                        const stt::ArrayConfig& array, std::size_t cap,
                        bool dropAllUnicast = true) {
  stt::EnumerationOptions enumeration;
  enumeration.dropAllUnicast = dropAllUnicast;
  auto list = std::make_shared<std::vector<stt::DataflowSpec>>();
  std::vector<stt::DataflowSpec>& specs = *list;
  for (const auto& sel : stt::allLoopSelections(algebra)) {
    if (specs.size() >= cap) break;
    for (auto& spec : stt::enumerateTransforms(algebra, sel, enumeration)) {
      specs.push_back(std::move(spec));
      if (specs.size() >= cap) break;
    }
  }
  const auto set = stt::packSpecBlocks(list);
  std::vector<std::size_t> indices(specs.size());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  const auto backends = {cost::makeAsicBackend(16), cost::makeFpgaBackend()};
  for (const auto& backend : backends) {
    std::vector<cost::CostBound> bounds(specs.size());
    backend->lowerBoundBlock(*set, indices.data(), indices.size(), array,
                             bounds.data());
    stt::BlockMappingStore store(backend->blockSlotCount(*set));
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const stt::DataflowSpec& spec = specs[i];
      const cost::CostBound& bound = bounds[i];
      const cost::BlockEval eval =
          backend->evaluateBlock(*set, i, array, store);
      const sim::PerfResult& perf = eval.perf;
      const cost::CostReport& cost = eval.cost;
      SCOPED_TRACE(algebra.name() + " " + spec.label() + " T=" +
                   spec.transform().str() + " backend=" + backend->name());
      EXPECT_LE(bound.cycles, static_cast<double>(perf.totalCycles));
      EXPECT_LE(bound.figures.powerMw, cost.figures.powerMw);
      EXPECT_LE(bound.figures.area, cost.figures.area);
      // The inventory-derived figures are not just bounded — they are the
      // exact evaluation (the cost models are mapping-free).
      EXPECT_EQ(bound.figures.powerMw, cost.figures.powerMw);
      EXPECT_EQ(bound.figures.area, cost.figures.area);
    }
  }
  return specs.size();
}

TEST(PruningBound, NeverExceedsTrueFiguresOnFuzzedAlgebras) {
  // 200 fuzz-seeded random algebras (strided/offset accesses, 3-4 loops,
  // 1-3 inputs); a handful of specs each keeps the test fast while covering
  // far more access shapes than the workload table.
  std::size_t checked = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const auto algebra = verify::randomAlgebra(seed);
    stt::ArrayConfig array;
    array.rows = array.cols = 4;
    checked += checkBounds(algebra, array, 6, /*dropAllUnicast=*/false);
  }
  EXPECT_GE(checked, 200u);
}

TEST(PruningBound, NeverExceedsTrueFiguresOnWorkloadTable) {
  for (const auto& w : wl::allWorkloads()) {
    stt::ArrayConfig array;
    array.rows = array.cols = 4;
    checkBounds(w.algebra, array, 24, !w.allowAllUnicast);
  }
}

TEST(PruningBound, TightForPerfectUtilizationGemm) {
  // The compute term is exact for utilization-1.0 designs: the paper-
  // geometry GEMM's best design meets its bound, which is what lets the
  // frontier prune against it.
  const auto gemm = wl::gemm(64, 64, 64);
  ExploreQuery q(gemm);
  ExplorationService service(pruningOptions(1));
  const auto result = service.run(q);
  ASSERT_FALSE(result.frontier.empty());
  const auto& best = result.frontier.front();  // sorted: min cycles first
  const auto backend = cost::makeAsicBackend(q.dataWidth);
  const std::size_t first = 0;
  cost::CostBound bound;
  backend->lowerBoundBlock(*stt::packSpec(best.spec), &first, 1, q.array,
                           &bound);
  EXPECT_EQ(static_cast<double>(best.perf.totalCycles), bound.cycles);
}

}  // namespace
}  // namespace tensorlib::driver
