// The scalar brute-force oracle the exploration service's packed pipeline
// is pinned to: every enumerated spec priced by the scalar models
// (CostBackend::estimatePerf/evaluate — no packing, no mapping classes, no
// pruning, no cache), folded through a ParetoFrontier in enumeration order,
// the winner picked by pickBest. Shares no evaluation code with the
// service, so a packed-model or pipeline bug cannot hide in both.
#pragma once

#include <vector>

#include "cost/backend.hpp"
#include "driver/explore_service.hpp"
#include "driver/pareto.hpp"
#include "stt/enumerate.hpp"

namespace tensorlib::testing {

struct ScalarOracle {
  /// What run() must return (cache counts stay zero: they are not values).
  driver::QueryResult result;
  /// What evaluateAll() must return: every report, in enumeration order.
  std::vector<driver::DesignReport> all;
};

inline ScalarOracle scalarOracle(const driver::ExploreQuery& q) {
  const auto backend = q.backend == cost::BackendKind::Asic
                           ? cost::makeAsicBackend(q.dataWidth)
                           : cost::makeFpgaBackend(q.fpga);
  ScalarOracle out;
  driver::ParetoFrontier frontier;
  for (const stt::DataflowSpec& spec :
       stt::enumerateDesignSpace(q.algebra, q.enumeration)) {
    out.all.emplace_back(spec, backend->estimatePerf(spec, q.array),
                         backend->evaluate(spec, q.array));
    const driver::DesignReport& rep = out.all.back();
    driver::ParetoEntry entry;
    entry.cost = {static_cast<double>(rep.perf.totalCycles),
                  rep.figures().powerMw, rep.figures().area,
                  rep.perf.utilization};
    entry.order = out.all.size() - 1;
    entry.label = spec.label();
    frontier.insert(entry);
  }
  const std::vector<driver::ParetoEntry> ordered = frontier.sorted();
  for (const driver::ParetoEntry& e : ordered)
    out.result.frontier.push_back(out.all[e.order]);
  if (const auto best = driver::pickBest(ordered, q.objective))
    out.result.best = out.result.frontier[*best];
  out.result.designs = out.all.size();
  return out;
}

}  // namespace tensorlib::testing
