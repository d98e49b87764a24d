// Shared helpers for the figure/table reproduction binaries.
#pragma once

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "sim/perf.hpp"
#include "stt/enumerate.hpp"
#include "support/error.hpp"

namespace tensorlib::bench {

/// One bar of a Fig. 5 subplot: a named dataflow and its normalized
/// performance (achieved MACs / peak MACs at full array utilization —
/// exactly the paper's metric).
struct PerfRow {
  std::string label;
  sim::PerfResult perf;
};

inline void printHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Evaluates one dataflow label on a workload; prints and returns the row.
inline PerfRow evalDataflow(const tensor::TensorAlgebra& algebra,
                            const std::string& label,
                            const stt::ArrayConfig& config) {
  auto spec = stt::findDataflowByLabel(algebra, label);
  if (!spec.has_value()) {
    std::printf("  %-12s  (not realizable for %s)\n", label.c_str(),
                algebra.name().c_str());
    return {label, {}};
  }
  const auto perf = sim::estimatePerformance(*spec, config);
  std::printf("  %-12s  normalized perf %5.1f%%   cycles %-12lld %s\n",
              label.c_str(), 100.0 * perf.utilization,
              static_cast<long long>(perf.totalCycles),
              perf.bandwidthBound ? "[bandwidth-bound]" : "");
  return {label, perf};
}

inline void evalAll(const tensor::TensorAlgebra& algebra,
                    const std::vector<std::string>& labels,
                    const stt::ArrayConfig& config,
                    std::vector<PerfRow>* rows = nullptr) {
  for (const auto& l : labels) {
    PerfRow r = evalDataflow(algebra, l, config);
    if (rows) rows->push_back(std::move(r));
  }
}

/// Median of repeated timings (mean of the middle two for an even count);
/// 0 for none.
inline double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : (samples[mid - 1] + samples[mid]) / 2.0;
}

/// The paper's evaluation array: 16x16 PEs, 320 MHz, 32 GB/s, INT16.
inline stt::ArrayConfig paperArray() { return stt::ArrayConfig{}; }

/// Merges one `"section": {...}` property into the line-oriented
/// BENCH_hotpaths.json (each section lives on its own line). Replaces an
/// existing line for the same section; starts a fresh document if the file
/// is absent or malformed. `sectionLine` must be the full property, e.g.
/// `"service": {...}` with no trailing comma.
inline void mergeJsonSection(const std::string& path,
                             const std::string& sectionKey,
                             const std::string& sectionLine) {
  const std::string match = "\"" + sectionKey + "\":";
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    std::string line;
    while (in && std::getline(in, line)) {
      const auto firstChar = line.find_first_not_of(" \t");
      if (firstChar != std::string::npos &&
          line.compare(firstChar, match.size(), match) == 0)
        continue;  // replaced below
      lines.push_back(line);
    }
  }
  while (!lines.empty() && lines.back().empty()) lines.pop_back();
  // A document without at least one property line ("{" "}") would leave the
  // splice below appending a comma to the opening brace; reset it too.
  if (lines.size() < 3 || lines.front() != "{" || lines.back() != "}")
    lines = {"{", "  \"bench\": \"hotpaths\",", "}"};

  // Re-terminate the final property with a comma, then splice in ours.
  std::string& lastProp = lines[lines.size() - 2];
  if (!lastProp.empty() && lastProp.back() == ',') lastProp.pop_back();
  lastProp += ",";
  lines.insert(lines.end() - 1, "  " + sectionLine);

  std::ofstream out(path);
  TL_CHECK(static_cast<bool>(out), "cannot write " + path);
  for (const auto& l : lines) out << l << "\n";
}

}  // namespace tensorlib::bench
