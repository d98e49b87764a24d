// Frontier-pruned vs exhaustive evaluation benchmark (the pruning perf
// anchor).
//
// Runs the same traffic two ways through the exploration service's packed
// evaluation path:
//
//   exhaustive  every enumerated design point fully evaluated (pruning
//               off).
//   pruned      the frontier-aware pipeline: lower-bound dominance cuts
//               skip evaluations the incumbent frontier already dominates.
//
// Two scenarios, both asserted bit-identical between the two pipelines:
//
//   single   one cold GEMM-256 query on a fresh service (gate: >= 1.5x).
//   batched  the 10-query overlapping service scenario from the "service"
//            bench — GEMM under ASIC+FPGA objectives, attention, duplicate
//            traffic (gate: pruned batch within kGateMaxBatchedPrunedMs).
//
// The batched gate used to be >= 2x over exhaustive on the scalar
// per-candidate loop. That loop is gone, and on the packed path the batched
// cut measures about 1x (packed bounds and per-class tile searches leave it
// little to save), so the batch is held to an absolute budget instead: the
// committed scalar-path pruned time.
//
// Merges a "pruning" section into BENCH_hotpaths.json next to the other
// gates. Gates apply in full mode only.
//
// Usage: bench_pruning [--smoke] [--out <path>]
//   --smoke   maxEntry=1 spaces, correctness asserts only, no timing gates
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "driver/explore_service.hpp"
#include "service_scenario.hpp"
#include "support/error.hpp"
#include "tensor/workloads.hpp"

namespace {

using namespace tensorlib;
using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

constexpr double kGateMinSingle = 1.5;
constexpr double kGateMaxBatchedPrunedMs = 2224.0;

driver::ServiceOptions exhaustiveOptions() {
  driver::ServiceOptions o;
  o.enablePruning = false;
  return o;
}

struct PruningReport {
  std::size_t designs = 0;       ///< single-query space size
  std::size_t batchDesigns = 0;  ///< design points across the batch
  double singleExhaustiveMs = 0, singlePrunedMs = 0;
  double batchedExhaustiveMs = 0, batchedPrunedMs = 0;
  std::uint64_t pruned = 0;        ///< single-query dominance cuts
  std::uint64_t batchPruned = 0;   ///< batch-wide dominance cuts
  double singleSpeedup() const { return singleExhaustiveMs / singlePrunedMs; }
  double batchedSpeedup() const { return batchedExhaustiveMs / batchedPrunedMs; }
};

PruningReport benchPruning(int maxEntry) {
  PruningReport r;

  // --- single cold query: fresh service per side.
  driver::ExploreQuery single(tensor::workloads::gemm(256, 256, 256));
  single.enumeration.maxEntry = maxEntry;
  std::vector<driver::QueryResult> exhaustive1, pruned1;
  {
    driver::ExplorationService service(exhaustiveOptions());
    const auto t = Clock::now();
    exhaustive1.push_back(service.run(single));
    r.singleExhaustiveMs = msSince(t);
  }
  {
    driver::ExplorationService service;
    const auto t = Clock::now();
    pruned1.push_back(service.run(single));
    r.singlePrunedMs = msSince(t);
    r.pruned = pruned1[0].cache.pruned;
  }
  bench::checkSameResults(exhaustive1, pruned1);
  r.designs = pruned1[0].designs;
  TL_CHECK(r.pruned > 0, "dominance cut never fired on the single query");

  // --- batched 10-query scenario: one cold service per side.
  const auto batch = bench::serviceScenarioBatch(maxEntry);
  std::vector<driver::QueryResult> exhaustiveB, prunedB;
  {
    driver::ExplorationService service(exhaustiveOptions());
    const auto t = Clock::now();
    exhaustiveB = service.runBatch(batch);
    r.batchedExhaustiveMs = msSince(t);
  }
  {
    driver::ExplorationService service;
    const auto t = Clock::now();
    prunedB = service.runBatch(batch);
    r.batchedPrunedMs = msSince(t);
  }
  bench::checkSameResults(exhaustiveB, prunedB);
  for (const auto& res : prunedB) {
    r.batchDesigns += res.designs;
    r.batchPruned += res.cache.pruned;
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out = "BENCH_hotpaths.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out = argv[++i];
    else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out <path>]\n", argv[0]);
      return 2;
    }
  }

  try {
    bench::printHeader(smoke ? "Frontier pruning (smoke)"
                             : "Frontier pruning vs exhaustive evaluation");
    const PruningReport r = benchPruning(smoke ? 1 : 2);
    std::printf(
        "  single   exhaustive %.1f ms | pruned %.1f ms (%.2fx)  [%zu designs, "
        "%llu cut, frontiers bit-identical]\n",
        r.singleExhaustiveMs, r.singlePrunedMs, r.singleSpeedup(), r.designs,
        static_cast<unsigned long long>(r.pruned));
    std::printf(
        "  batched  exhaustive %.1f ms | pruned %.1f ms (%.2fx, budget %.0f "
        "ms)  [%zu design evals, %llu cut]\n",
        r.batchedExhaustiveMs, r.batchedPrunedMs, r.batchedSpeedup(),
        kGateMaxBatchedPrunedMs, r.batchDesigns,
        static_cast<unsigned long long>(r.batchPruned));

    const bool pass =
        smoke || (r.singleSpeedup() >= kGateMinSingle &&
                  r.batchedPrunedMs <= kGateMaxBatchedPrunedMs);
    std::ostringstream line;
    line << "\"pruning\": {\"workloads\": \"gemm256+attention64\", \"designs\": "
         << r.designs << ", \"batch_design_evals\": " << r.batchDesigns
         << ", \"single_exhaustive_ms\": " << r.singleExhaustiveMs
         << ", \"single_pruned_ms\": " << r.singlePrunedMs
         << ", \"single_speedup\": " << r.singleSpeedup()
         << ", \"batched_exhaustive_ms\": " << r.batchedExhaustiveMs
         << ", \"batched_pruned_ms\": " << r.batchedPrunedMs
         << ", \"batched_speedup\": " << r.batchedSpeedup()
         << ", \"pruned_single\": " << r.pruned
         << ", \"pruned_batched\": " << r.batchPruned
         << ", \"gate_min_single_speedup\": " << kGateMinSingle
         << ", \"gate_max_batched_pruned_ms\": " << kGateMaxBatchedPrunedMs
         << ", \"pass\": " << (pass ? "true" : "false") << "}";
    bench::mergeJsonSection(out, "pruning", line.str());
    std::printf("  merged into %s\n", out.c_str());

    if (!pass) {
      if (r.singleSpeedup() < kGateMinSingle)
        std::printf("  GATE FAIL: single-query speedup %.2f < %.1f\n",
                    r.singleSpeedup(), kGateMinSingle);
      if (r.batchedPrunedMs > kGateMaxBatchedPrunedMs)
        std::printf("  GATE FAIL: batched pruned %.1f ms > %.0f ms budget\n",
                    r.batchedPrunedMs, kGateMaxBatchedPrunedMs);
    }
    return pass ? 0 : 1;
  } catch (const tensorlib::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
