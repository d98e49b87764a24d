// perfbench: the repository benchmark. Runs one workload for a fixed time
// and prints one JSON result line last (see perfbench/README.md).
//
//   perfbench --workload explore|rtl|serve --seed N --seconds S --trace 0|1
//             --data perfbench/golden --work BUILD_DIR [--server explore_server]
//   perfbench --write-golden --data perfbench/golden
//   perfbench --self-test --data perfbench/golden
//
// Normally started through perfbench/run.py, which builds this package from
// the checkout's sources first.
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "common.hpp"
#include "driver/wire.hpp"
#include "support/jsonl.hpp"

namespace perfbench {

using namespace tensorlib;

int writeGolden(const Options& options) {
  std::vector<driver::ExploreQuery> queries = exploreQueryUniverse();
  for (const auto& line : serveRequestLines())
    queries.push_back(*driver::wire::parseRequest(support::parseJsonLine(line)).query);
  driver::ServiceOptions serviceOptions;
  serviceOptions.threads = 2;
  driver::ExplorationService service(serviceOptions);
  const auto results = service.runBatch(queries);
  GoldenTable golden;
  for (std::size_t i = 0; i < queries.size(); ++i)
    golden.put(queryKey(queries[i]), frontierOf(results[i]));
  driver::NetworkExplorer explorer(service);
  for (const auto& q : exploreNetworkUniverse())
    golden.put(networkKey(q), frontierOf(explorer.explore(q)));
  golden.save(options.dataDir + "/frontiers.tsv");
  std::printf("wrote %zu golden frontiers to %s/frontiers.tsv\n", golden.size(),
              options.dataDir.c_str());
  writeKnownDivergent(options.dataDir + "/rtl_divergent.tsv");
  return 0;
}

int selfTest(const Options& options) {
  const GoldenTable golden = GoldenTable::load(options.dataDir + "/frontiers.tsv");
  // One cheap serve query, explored in process and rendered on the wire.
  const std::string line = serveRequestLines()[24];  // attention, asic, perf, 8x8
  const auto request = driver::wire::parseRequest(support::parseJsonLine(line));
  const std::string key = queryKey(*request.query);
  driver::ExplorationService service;
  const auto result = service.run(*request.query);
  const Frontier actual = frontierOf(result);
  const auto wire = wireFrontier(driver::wire::resultLine(
      0, request.name, cost::backendKindName(request.query->backend),
      driver::objectiveName(request.query->objective), result, 4096));

  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
    failures += ok ? 0 : 1;
  };
  expect(golden.mismatch(key, actual).empty(), "fresh frontier matches golden");
  expect(golden.wireMismatch(key, wire).empty(), "wire frontier matches golden");

  const auto corrupted = [&](auto mutate) {
    GoldenTable bad = golden;
    mutate(bad.mutableEntry(key));
    return bad;
  };
  const GoldenTable badCycles = corrupted([](Frontier* f) { f->front().cycles += 1; });
  const GoldenTable badPower = corrupted([](Frontier* f) {
    f->back().power = std::nextafter(f->back().power, 1e300);
  });
  const GoldenTable badLabel = corrupted([](Frontier* f) { f->front().label += "X"; });
  const GoldenTable shorter = corrupted([](Frontier* f) { f->pop_back(); });
  expect(!badCycles.mismatch(key, actual).empty(), "corrupted cycles caught");
  expect(!badCycles.wireMismatch(key, wire).empty(), "corrupted cycles caught on the wire");
  expect(!badPower.mismatch(key, actual).empty(), "power off by one ulp caught");
  expect(!badLabel.mismatch(key, actual).empty(), "corrupted label caught");
  expect(!badLabel.wireMismatch(key, wire).empty(), "corrupted label caught on the wire");
  expect(!shorter.mismatch(key, actual).empty(), "missing frontier point caught");
  expect(!golden.mismatch("no-such-query", actual).empty(), "missing golden entry caught");
  std::printf("perfbench self-test: %s\n", failures ? "FAIL" : "PASS");
  return failures ? 1 : 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool golden = false, selfTestMode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") options.workload = next();
    else if (a == "--seed") options.seed = std::stoull(next());
    else if (a == "--seconds") options.seconds = std::stod(next());
    else if (a == "--trace") options.trace = next() != "0";
    else if (a == "--data") options.dataDir = next();
    else if (a == "--work") options.workDir = next();
    else if (a == "--server") options.server = next();
    else if (a == "--write-golden") golden = true;
    else if (a == "--self-test") selfTestMode = true;
    else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  try {
    if (golden) return writeGolden(options);
    if (selfTestMode) return selfTest(options);
    Result result;
    if (options.workload == "explore") result = runExplore(options);
    else if (options.workload == "rtl") result = runRtl(options);
    else if (options.workload == "serve") result = runServe(options);
    else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   options.workload.c_str());
      return 2;
    }
    printResult(result);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
