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
//   single   one GEMM-256 query on a fresh service per repeat, the
//            process-wide candidate memo warmed before both sides (gate:
//            median pruned time of kSingleRepeats within
//            kGateMaxSinglePrunedMs).
//   batched  the 10-query overlapping service scenario from the "service"
//            bench — GEMM under ASIC+FPGA objectives, attention, duplicate
//            traffic (gate: pruned batch within kGateMaxBatchedPrunedMs).
//
// Both gates are absolute budgets on the path users run; the
// pruned-vs-exhaustive ratios are reported, not gated. The single gate
// used to be >= 1.5x over exhaustive, but the exhaustive side ran first and
// paid the candidate-memo warm-up, so the ratio mostly measured that; with
// the memo warm both sides read about 1.1x. Its budget is the pruned time
// committed when the ratio gate was retired. The batched gate used to be
// >= 2x over exhaustive on the scalar per-candidate loop; that loop is
// gone, and its budget is the committed scalar-path pruned time.
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
#include "stt/enumerate.hpp"
#include "support/error.hpp"
#include "tensor/workloads.hpp"

namespace {

using namespace tensorlib;
using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

constexpr double kGateMaxSinglePrunedMs = 52.2;
constexpr double kGateMaxBatchedPrunedMs = 2224.0;
constexpr int kSingleRepeats = 5;

driver::ServiceOptions exhaustiveOptions() {
  driver::ServiceOptions o;
  o.enablePruning = false;
  return o;
}

struct PruningReport {
  std::size_t designs = 0;       ///< single-query space size
  std::size_t batchDesigns = 0;  ///< design points across the batch
  double singleExhaustiveMs = 0, singlePrunedMs = 0;  ///< medians
  double batchedExhaustiveMs = 0, batchedPrunedMs = 0;
  std::uint64_t pruned = 0;        ///< single-query dominance cuts
  std::uint64_t batchPruned = 0;   ///< batch-wide dominance cuts
  double singleSpeedup() const { return singleExhaustiveMs / singlePrunedMs; }
  double batchedSpeedup() const { return batchedExhaustiveMs / batchedPrunedMs; }
};

PruningReport benchPruning(int maxEntry, int singleRepeats) {
  PruningReport r;

  // --- single query: a fresh service per side and repeat, alternating
  // sides, the candidate memo warm for both.
  driver::ExploreQuery single(tensor::workloads::gemm(256, 256, 256));
  single.enumeration.maxEntry = maxEntry;
  (void)stt::candidateTransformMatrices(single.enumeration);
  std::vector<double> exhaustiveMs, prunedMs;
  for (int rep = 0; rep < singleRepeats; ++rep) {
    std::vector<driver::QueryResult> exhaustive1, pruned1;
    {
      driver::ExplorationService service(exhaustiveOptions());
      const auto t = Clock::now();
      exhaustive1.push_back(service.run(single));
      exhaustiveMs.push_back(msSince(t));
    }
    {
      driver::ExplorationService service;
      const auto t = Clock::now();
      pruned1.push_back(service.run(single));
      prunedMs.push_back(msSince(t));
      r.pruned = pruned1[0].cache.pruned;
    }
    bench::checkSameResults(exhaustive1, pruned1);
    r.designs = pruned1[0].designs;
  }
  r.singleExhaustiveMs = bench::median(exhaustiveMs);
  r.singlePrunedMs = bench::median(prunedMs);
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
    const PruningReport r =
        benchPruning(smoke ? 1 : 2, smoke ? 1 : kSingleRepeats);
    std::printf(
        "  single   exhaustive %.1f ms | pruned %.1f ms (%.2fx, budget %.1f "
        "ms, medians of %d)  [%zu designs, %llu cut, frontiers "
        "bit-identical]\n",
        r.singleExhaustiveMs, r.singlePrunedMs, r.singleSpeedup(),
        kGateMaxSinglePrunedMs, smoke ? 1 : kSingleRepeats, r.designs,
        static_cast<unsigned long long>(r.pruned));
    std::printf(
        "  batched  exhaustive %.1f ms | pruned %.1f ms (%.2fx, budget %.0f "
        "ms)  [%zu design evals, %llu cut]\n",
        r.batchedExhaustiveMs, r.batchedPrunedMs, r.batchedSpeedup(),
        kGateMaxBatchedPrunedMs, r.batchDesigns,
        static_cast<unsigned long long>(r.batchPruned));

    const bool pass =
        smoke || (r.singlePrunedMs <= kGateMaxSinglePrunedMs &&
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
         << ", \"single_repeats\": " << (smoke ? 1 : kSingleRepeats)
         << ", \"gate_max_single_pruned_ms\": " << kGateMaxSinglePrunedMs
         << ", \"gate_max_batched_pruned_ms\": " << kGateMaxBatchedPrunedMs
         << ", \"pass\": " << (pass ? "true" : "false") << "}";
    bench::mergeJsonSection(out, "pruning", line.str());
    std::printf("  merged into %s\n", out.c_str());

    if (!pass) {
      if (r.singlePrunedMs > kGateMaxSinglePrunedMs)
        std::printf("  GATE FAIL: single pruned %.1f ms > %.1f ms budget\n",
                    r.singlePrunedMs, kGateMaxSinglePrunedMs);
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
