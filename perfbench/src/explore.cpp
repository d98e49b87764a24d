// explore: cold design-space exploration, the state a fresh explore_server
// batch or a new algebra in the daemon starts from. Every pass clears the
// candidate memo and builds a new ExplorationService (2 threads), so stt
// enumeration, classification, packed bounds, tile search and the cost
// models do all the work and every cache is written, never read warm.
//
// One pass, on one service:
//   1. runBatch of 16 operator queries: every Fig. 5 family twice (ASIC on
//      16x16 and FPGA on 8x8, objectives drawn) plus exact duplicates of
//      the two gemm queries, in a drawn order;
//   2. NetworkExplorer::explore of one drawn builtin model on 8x8 and 16x16;
//   3. runBatch of two bound-first maxEntry-3 queries: gemm-256 and a drawn
//      3-loop family.
// Each query and the model query is one operation; it fails when its
// frontier differs from the golden table.
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>

#include "common.hpp"
#include "cost/backend.hpp"
#include "stt/block.hpp"
#include "stt/enumerate.hpp"
#include "support/prng.hpp"
#include "tensor/network.hpp"
#include "tensor/workloads.hpp"

namespace perfbench {

using namespace tensorlib;

namespace {

constexpr std::size_t kThreads = 1;

struct Family {
  tensor::TensorAlgebra algebra;
  int maxEntry;
};

/// The Fig. 5 shapes of the bench/fig5* harnesses. 3-loop shapes run at
/// maxEntry 2; the 4+-loop ones at maxEntry 1 (their maxEntry-2 spaces take
/// 1.2-3.4 s each and would dominate the pass).
std::vector<Family> fig5Families() {
  namespace w = tensor::workloads;
  return {{w::gemm(256, 256, 256), 2},         {w::batchedGemv(256, 256, 256), 2},
          {w::attention(64, 64, 64), 2},       {w::depthwiseConv(64, 56, 56, 3, 3), 1},
          {w::mttkrp(128, 128, 128, 128), 1},  {w::ttmc(32, 32, 32, 32, 32), 1},
          {w::conv2dResNetLayer2(), 1}};
}

/// Models whose cold exploration costs about the same (130-190 ms here);
/// resnet-block, resnet-deep and moe-mix cost 2-10x more and would make the
/// pass time depend on the seed.
const std::vector<std::string> kModels = {"attention-block", "mlp-3",
                                          "transformer-stack"};

const driver::Objective kObjectives[] = {driver::Objective::Performance,
                                         driver::Objective::Power,
                                         driver::Objective::EnergyDelay};

stt::ArrayConfig squareArray(std::int64_t n) {
  stt::ArrayConfig a;
  a.rows = a.cols = n;
  return a;
}

driver::ExploreQuery makeQuery(const Family& f, cost::BackendKind backend,
                               driver::Objective objective, std::int64_t side) {
  driver::ExploreQuery q(f.algebra);
  q.enumeration.maxEntry = f.maxEntry;
  q.backend = backend;
  q.objective = objective;
  q.array = squareArray(side);
  return q;
}

std::int64_t pairedSide(cost::BackendKind backend) {
  return backend == cost::BackendKind::Asic ? 16 : 8;
}

driver::ExploreQuery boundFirstQuery(const tensor::TensorAlgebra& algebra) {
  driver::ExploreQuery q(algebra);
  q.enumeration.maxEntry = 2;
  q.enumeration.boundFirst = true;
  return q;
}

driver::NetworkQuery modelQuery(const std::string& name, cost::BackendKind backend,
                                driver::Objective objective) {
  driver::NetworkQuery q(*tensor::workloads::findNetwork(name));
  q.arrays = {squareArray(8), squareArray(16)};
  q.backend = backend;
  q.objective = objective;
  return q;
}

/// Everything one seed draws; every pass repeats it.
struct Draw {
  std::vector<driver::ExploreQuery> batch;
  driver::NetworkQuery model{tensor::NetworkSpec(
      "none", {{"l", tensor::workloads::gemm(4, 4, 4), false}})};
  std::vector<driver::ExploreQuery> boundFirst;
  std::vector<std::string> batchKeys, boundFirstKeys;
  std::string modelKey;
};

Draw drawQueries(std::uint64_t seed) {
  Prng rng(seed);
  const auto families = fig5Families();
  Draw d;
  // The seed draws only what leaves the amount of work unchanged: each
  // query's objective, the batch order, the model and the bound-first
  // family. Each family's target/array pairing is fixed (ASIC on 16x16,
  // FPGA on 8x8) because swapping it moves a pass by up to a tenth, and the
  // duplicates always repeat the two gemm queries.
  for (const Family& f : families)
    for (const auto backend : {cost::BackendKind::Asic, cost::BackendKind::Fpga})
      d.batch.push_back(makeQuery(f, backend, kObjectives[rng.uniformInt(0, 2)],
                                  pairedSide(backend)));
  d.batch.push_back(d.batch[0]);
  d.batch.push_back(d.batch[1]);
  for (std::size_t i = d.batch.size(); i > 1; --i)
    std::swap(d.batch[i - 1],
              d.batch[static_cast<std::size_t>(
                  rng.uniformInt(0, static_cast<std::int64_t>(i) - 1))]);

  const auto& modelName =
      kModels[static_cast<std::size_t>(rng.uniformInt(0, kModels.size() - 1))];
  const auto backend =
      rng.uniformInt(0, 1) ? cost::BackendKind::Fpga : cost::BackendKind::Asic;
  d.model = modelQuery(modelName, backend, kObjectives[rng.uniformInt(0, 2)]);

  d.boundFirst = {boundFirstQuery(families[0].algebra),
                  boundFirstQuery(families[rng.uniformInt(1, 2)].algebra)};

  for (const auto& q : d.batch) d.batchKeys.push_back(queryKey(q));
  for (const auto& q : d.boundFirst) d.boundFirstKeys.push_back(queryKey(q));
  d.modelKey = networkKey(d.model);
  return d;
}

/// What one pass produced, for checks and counters.
struct PassOutcome {
  double wallMs = 0, batchMs = 0, networkMs = 0, boundFirstMs = 0;
  std::size_t designs = 0;
  std::uint64_t hits = 0, misses = 0, pruned = 0;
  std::size_t operations = 0;
  std::vector<std::size_t> failedOps;  ///< operation indices, in pass order
  double simCycles = 0;
};

PassOutcome runPass(const Draw& d, const GoldenTable& golden, Tracer& tracer,
                    Result& result) {
  PassOutcome out;
  const auto check = [&](const std::string& key, const Frontier& f, bool timedOut) {
    Tracer::Scope span(tracer, "verify.golden");
    const std::size_t op = out.operations++;
    const std::string why = timedOut ? key + ": timed out" : golden.mismatch(key, f);
    if (!why.empty()) {
      out.failedOps.push_back(op);
      result.check(false, why);
    }
  };
  const auto count = [&](const driver::QueryResult& r) {
    out.designs += r.designs;
    out.hits += r.cache.hits;
    out.misses += r.cache.misses;
    out.pruned += r.cache.pruned;
  };

  // Declared before the pass span: tearing the caches down is not part of
  // the time to all frontiers.
  std::optional<driver::ExplorationService> service;
  const auto start = Clock::now();
  Tracer::Scope passSpan(tracer, "explore.pass");
  {
    Tracer::Scope span(tracer, "driver.service_init");
    stt::clearCandidateCache();
    driver::ServiceOptions options;
    options.threads = kThreads;
    service.emplace(options);
  }

  auto t = Clock::now();
  std::vector<driver::QueryResult> batch;
  {
    Tracer::Scope span(tracer, "driver.batch");
    batch = service->runBatch(d.batch);
  }
  out.batchMs = msSince(t);
  std::set<std::string> seen;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    check(d.batchKeys[i], frontierOf(batch[i]), batch[i].timedOut);
    count(batch[i]);
    if (seen.insert(d.batchKeys[i]).second && !batch[i].frontier.empty())
      out.simCycles += static_cast<double>(batch[i].frontier.front().perf.totalCycles);
  }

  t = Clock::now();
  driver::NetworkResult network;
  {
    Tracer::Scope span(tracer, "driver.network");
    driver::NetworkExplorer explorer(*service);
    network = explorer.explore(d.model);
  }
  out.networkMs = msSince(t);
  check(d.modelKey, frontierOf(network), false);
  out.designs += network.designs;
  for (const auto& layer : network.layers) {
    out.hits += layer.cache.hits;
    out.misses += layer.cache.misses;
    out.pruned += layer.cache.pruned;
  }

  t = Clock::now();
  std::vector<driver::QueryResult> bf;
  {
    Tracer::Scope span(tracer, "driver.boundfirst");
    bf = service->runBatch(d.boundFirst);
  }
  out.boundFirstMs = msSince(t);
  for (std::size_t i = 0; i < bf.size(); ++i) {
    check(d.boundFirstKeys[i], frontierOf(bf[i]), bf[i].timedOut);
    count(bf[i]);
  }
  out.wallMs = msSince(start);
  return out;
}

/// The isolated stt / cost replays of the traced run: cold enumeration of
/// each distinct (algebra, options) of the batch, then the packed
/// lower-bound and evaluate entry points over every enumerated spec of
/// each distinct (algebra, target, array).
void replayLayers(const Draw& d, Tracer& tracer, std::map<std::string, double>& m) {
  std::map<std::string, std::shared_ptr<const std::vector<stt::DataflowSpec>>> lists;
  std::set<std::string> priced;
  double enumerateMs = 0, boundMs = 0, evalMs = 0;
  std::size_t specs = 0, evals = 0;
  for (const auto& q : d.batch) {
    const std::string listKey = queryKey(driver::ExploreQuery(q.algebra)) +
                                "|me" + std::to_string(q.enumeration.maxEntry);
    auto& list = lists[listKey];
    if (!list) {
      stt::clearCandidateCache();
      const auto t = Clock::now();
      Tracer::Scope span(tracer, "stt.enumerate");
      list = std::make_shared<const std::vector<stt::DataflowSpec>>(
          stt::enumerateDesignSpace(q.algebra, q.enumeration));
      enumerateMs += msSince(t);
      specs += list->size();
    }
    const std::string priceKey = listKey + "|" + cost::backendKindName(q.backend) +
                                 "|" + std::to_string(q.array.rows);
    if (!priced.insert(priceKey).second) continue;
    const auto set = stt::packSpecBlocks(list);
    const auto backend = q.backend == cost::BackendKind::Asic
                             ? cost::makeAsicBackend(q.dataWidth)
                             : cost::makeFpgaBackend(q.fpga);
    std::vector<std::size_t> indices(set->count);
    for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
    std::vector<cost::CostBound> bounds(set->count);
    auto t = Clock::now();
    {
      Tracer::Scope span(tracer, "cost.bound");
      backend->lowerBoundBlock(*set, indices.data(), indices.size(), q.array,
                               bounds.data());
    }
    boundMs += msSince(t);
    stt::BlockMappingStore store(backend->blockSlotCount(*set));
    t = Clock::now();
    {
      Tracer::Scope span(tracer, "cost.eval");
      for (std::size_t i = 0; i < set->count; ++i)
        (void)backend->evaluateBlock(*set, i, q.array, store);
    }
    evalMs += msSince(t);
    evals += set->count;
  }
  m["stt.enumerate_ms"] = enumerateMs;
  m["stt.specs"] = static_cast<double>(specs);
  m["cost.bound_ms"] = boundMs;
  m["cost.eval_ms"] = evalMs;
  m["cost.evals"] = static_cast<double>(evals);
}

}  // namespace

std::vector<driver::ExploreQuery> exploreQueryUniverse() {
  std::vector<driver::ExploreQuery> all;
  const auto families = fig5Families();
  for (const Family& f : families)
    for (const auto backend : {cost::BackendKind::Asic, cost::BackendKind::Fpga})
      for (const auto objective : kObjectives)
        all.push_back(makeQuery(f, backend, objective, pairedSide(backend)));
  for (int i = 0; i < 3; ++i) all.push_back(boundFirstQuery(families[i].algebra));
  return all;
}

std::vector<driver::NetworkQuery> exploreNetworkUniverse() {
  std::vector<driver::NetworkQuery> all;
  for (const auto& name : kModels)
    for (const auto backend : {cost::BackendKind::Asic, cost::BackendKind::Fpga})
      for (const auto objective : kObjectives)
        all.push_back(modelQuery(name, backend, objective));
  return all;
}

Result runExplore(const Options& options) {
  Result result;
  Tracer tracer;

  // Set-up: load the golden table and draw the queries. It takes about a
  // millisecond, so it is repeated (on shifted heap layouts) and the median
  // taken.
  HostCalibration calibration(kThreads);
  std::vector<double> setupS;
  GoldenTable golden;
  Draw d;
  Prng padRng(options.seed);
  for (int rep = 0; rep < 51; ++rep) {
    const auto pad = shiftHeapLayout(padRng);
    const double kernelMs = calibration.sample(1);
    const auto t = Clock::now();
    golden = GoldenTable::load(options.dataDir + "/frontiers.tsv");
    d = drawQueries(options.seed);
    for (const auto& k : d.batchKeys)
      if (!golden.find(k)) throw std::runtime_error("no golden entry for " + k);
    setupS.push_back(HostCalibration::atReference(msSince(t) / 1000, kernelMs));
  }

  // Timed phase. Traced runs alternate untraced and traced passes, so the
  // tracing overhead is measured on the same inputs in the same run.
  std::vector<double> passMs, tracedPassMs, coverage;
  OpTimes latencies, parts;
  std::vector<double> batchMs, networkMs, boundFirstMs;
  std::vector<PassOutcome> outcomes;
  const auto phase = Clock::now();
  std::size_t operations = 0;
  std::set<std::size_t> failedOps;
  for (int pass = 0; pass < 2 || msSince(phase) < options.seconds * 1000; ++pass) {
    tracer.enabled = options.trace && pass % 2 == 1;
    const auto pad = shiftHeapLayout(padRng);
    const PassOutcome o = runPass(d, golden, tracer, result);
    calibration.sample(2);
    tracer.enabled = false;
    outcomes.push_back(o);
    operations += o.operations;
    failedOps.insert(o.failedOps.begin(), o.failedOps.end());
    // An operation's latency is the time to its frontier: batch members
    // all finish with their batch.
    std::size_t op = 0;
    for (std::size_t i = 0; i < d.batch.size(); ++i) latencies.add(op++, o.batchMs);
    latencies.add(op++, o.networkMs);
    for (std::size_t i = 0; i < d.boundFirst.size(); ++i)
      latencies.add(op++, o.boundFirstMs);
    parts.add(0, o.batchMs);
    parts.add(1, o.networkMs);
    parts.add(2, o.boundFirstMs);
    if (options.trace && pass % 2 == 1) {
      tracedPassMs.push_back(o.wallMs);
      batchMs.push_back(o.batchMs);
      networkMs.push_back(o.networkMs);
      boundFirstMs.push_back(o.boundFirstMs);
      const int span = tracer.lastIndex("explore.pass");
      const auto& s = tracer.spans()[static_cast<std::size_t>(span)];
      coverage.push_back(tracer.childMs(span) / (s.endMs - s.startMs));
    } else {
      passMs.push_back(o.wallMs);
    }
  }
  const double phaseS = msSince(phase) / 1000;
  // Every pass repeats the same operations, so the run accounts each one
  // once: the number of passes a run fits in does not change the counts.
  result.attempted = outcomes.front().operations;
  result.failed = failedOps.size();

  // Exact counters must repeat pass after pass: same draw, same results.
  for (const auto& o : outcomes) {
    result.check(o.designs == outcomes.front().designs,
                 "design count changed between passes");
    result.check(o.simCycles == outcomes.front().simCycles,
                 "frontier cycles changed between passes");
  }

  printRunRecord(
      options,
      {{"threads", std::to_string(kThreads)},
       {"passes", std::to_string(outcomes.size())},
       {"pass_ms_median", std::to_string(median(passMs))},
       {"pass_ms_min", std::to_string(*std::min_element(passMs.begin(), passMs.end()))},
       {"calibration_ms_min", std::to_string(calibration.fastestMs())},
       {"operations_per_pass", std::to_string(outcomes.front().operations)},
       {"model", "\"" + d.model.network.name() + "\""},
       {"boundfirst_family", "\"" + d.boundFirst[1].algebra.name() + "\""},
       {"cache_capacity", std::to_string(driver::ServiceOptions{}.cacheCapacity)},
       {"evaluations_per_pass", std::to_string(outcomes.front().misses)}});

  if (!options.trace) {
    EndToEnd e;
    const double f = calibration.factor();
    e.setupS = median(setupS);
    e.passS = parts.sumOfBest() / 1000 * f;
    e.latencyP50Ms = latencies.medianOfBest() * f;
    e.peakRssMb = peakRssMb();
    e.simCycles = outcomes.front().simCycles;
    addEndToEnd(result, e);
    return result;
  }

  std::map<std::string, double> m;
  m["host.calibration_ms"] = calibration.fastestMs();
  const PassOutcome& o = outcomes.front();
  m["driver.batch_ms"] = median(batchMs);
  m["driver.network_ms"] = median(networkMs);
  m["driver.boundfirst_ms"] = median(boundFirstMs);
  m["driver.designs"] = static_cast<double>(o.designs);
  m["driver.hits"] = static_cast<double>(o.hits);
  m["driver.misses"] = static_cast<double>(o.misses);
  m["driver.pruned"] = static_cast<double>(o.pruned);
  m["driver.prune_ratio"] =
      o.designs ? static_cast<double>(o.pruned) / static_cast<double>(o.designs) : 0;
  m["latency_p90_ms"] = quantile(latencies.all(), 0.9);
  m["latency_p99_ms"] = quantile(latencies.all(), 0.99);
  m["throughput_rps"] = static_cast<double>(operations) / phaseS;
  m["trace.overhead_ms"] = median(tracedPassMs) - median(passMs);
  m["trace.span_coverage"] = *std::min_element(coverage.begin(), coverage.end());
  tracer.enabled = true;
  replayLayers(d, tracer, m);
  result.check(m["trace.span_coverage"] >= kMinSpanCoverage,
               "explore spans cover only " +
                   std::to_string(m["trace.span_coverage"]) + " of a pass");
  printSelfTimes(tracer);
  tracer.writeChromeTrace(options.workDir + "/trace-explore.json");
  addPerLayer(result, m);
  return result;
}

}  // namespace perfbench
