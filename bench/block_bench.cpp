// Struct-of-arrays block pipeline budget (the packed-pipeline perf anchor).
//
// Times the exploration service's only evaluation path: enumerated lists
// packed once into contiguous struct-of-arrays buffers (stt::SpecBlockSet);
// bounds run as packed loops over 64-candidate windows, dominance cuts
// land before any tile search, and survivors share one tile search per
// mapping class through a BlockMappingStore.
//
// Scenario: the batched 10-query overlapping service scenario (GEMM-256
// under ASIC+FPGA objectives, attention, duplicate traffic), cold on a
// fresh service with the process-wide candidate memo cleared, so the run
// pays enumeration honestly. Gate (full mode only): the cold batch within
// kGateMaxBatchedMs. The gate used to be >= 2x against the scalar
// per-candidate loop, which no longer exists; the budget is that loop's
// committed time (2283.57 ms) divided by the old 2x.
//
// Bit-identity is asserted every run, gates or not: frontiers at 1 and 8
// worker threads, cold and warm, must equal the first cold run's. The
// packed models themselves are pinned to the scalar oracle by
// tests/block_eval_test.cpp.
//
// Merges a "block" section into BENCH_hotpaths.json next to the earlier
// gates.
//
// Usage: bench_block [--smoke] [--out <path>]
//   --smoke   maxEntry=1 spaces, correctness asserts only, no timing gates
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "driver/explore_service.hpp"
#include "service_scenario.hpp"
#include "stt/enumerate.hpp"
#include "support/error.hpp"

namespace {

using namespace tensorlib;
using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

constexpr double kGateMaxBatchedMs = 1141.0;

driver::ServiceOptions threadOptions(std::size_t threads) {
  driver::ServiceOptions o;
  o.threads = threads;
  return o;
}

struct BlockReport {
  std::size_t batchDesigns = 0;  ///< design points across the batch
  double blockColdMs = 0, blockWarmMs = 0;
  std::uint64_t pruned = 0;  ///< dominance cuts, cold batch
};

BlockReport benchBlock(int maxEntry) {
  BlockReport r;
  const auto batch = bench::serviceScenarioBatch(maxEntry);

  // --- cold + warm rerun on the same service.
  std::vector<driver::QueryResult> cold, warm;
  {
    stt::clearCandidateCache();
    driver::ExplorationService service;
    const auto t = Clock::now();
    cold = service.runBatch(batch);
    r.blockColdMs = msSince(t);
    const auto w = Clock::now();
    warm = service.runBatch(batch);
    r.blockWarmMs = msSince(w);
  }
  bench::checkSameResults(cold, warm);
  for (const auto& res : cold) {
    r.batchDesigns += res.designs;
    r.pruned += res.cache.pruned;
  }

  // --- thread-count bit-identity: 1 and 8 workers, cold services.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    driver::ExplorationService service(threadOptions(threads));
    bench::checkSameResults(cold, service.runBatch(batch));
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
    bench::printHeader(smoke ? "Block evaluation (smoke)"
                             : "Block evaluation pipeline budget");
    const BlockReport r = benchBlock(smoke ? 1 : 2);
    std::printf(
        "  batched  block %.1f ms (budget %.0f ms) | warm rerun %.1f ms  "
        "[%zu design evals, %llu cut, frontiers bit-identical at 1+8 "
        "threads]\n",
        r.blockColdMs, kGateMaxBatchedMs, r.blockWarmMs, r.batchDesigns,
        static_cast<unsigned long long>(r.pruned));

    const bool pass = smoke || r.blockColdMs <= kGateMaxBatchedMs;
    std::ostringstream line;
    line << "\"block\": {\"workloads\": \"gemm256+attention64\", "
         << "\"batch_design_evals\": " << r.batchDesigns
         << ", \"batched_block_ms\": " << r.blockColdMs
         << ", \"block_warm_ms\": " << r.blockWarmMs
         << ", \"pruned_batched\": " << r.pruned
         << ", \"gate_max_batched_block_ms\": " << kGateMaxBatchedMs
         << ", \"pass\": " << (pass ? "true" : "false") << "}";
    bench::mergeJsonSection(out, "block", line.str());
    std::printf("  merged into %s\n", out.c_str());

    if (!pass)
      std::printf("  GATE FAIL: batched block %.1f ms > %.0f ms budget\n",
                  r.blockColdMs, kGateMaxBatchedMs);
    return pass ? 0 : 1;
  } catch (const tensorlib::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
