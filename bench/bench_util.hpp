// Shared helpers for the figure/table reproduction binaries.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory_resource>
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

/// Host calibration for absolute time budgets, the kernel perfbench runs
/// (see "Steadiness" in perfbench/README.md): a fixed mix like the
/// library's own hot paths (ordered-map inserts and lookups, a sort, string
/// building, floating point) that does not call tensorlib. Every allocation
/// comes from an arena reserved up front, in the same order on every run,
/// so heap fragmentation does not move it. A shared host that slows down
/// for seconds at a time slows the kernel with it; dividing by the kernel
/// time turns a raw time into time on a reference host where the kernel
/// takes kCalibrationReferenceMs.
constexpr double kCalibrationReferenceMs = 6.0;

/// The fastest of `runs` timed runs of the calibration kernel, in ms.
inline double calibrationMs(int runs) {
  static std::atomic<std::uint64_t> sink{0};  // keeps the result observable
  std::vector<std::byte> arena(std::size_t{2} << 20);
  double fastest = 0;
  for (int run = 0; run < runs; ++run) {
    const auto start = std::chrono::steady_clock::now();
    std::pmr::monotonic_buffer_resource pool(
        arena.data(), arena.size(), std::pmr::null_memory_resource());
    std::uint64_t h = 1469598103934665603ull, acc = 0;
    std::pmr::map<std::uint32_t, std::uint32_t> map(&pool);
    std::pmr::vector<std::uint32_t> keys(&pool);
    keys.reserve(20000);
    for (std::uint32_t i = 0; i < 20000; ++i) {
      h = (h ^ i) * 1099511628211ull;
      map[static_cast<std::uint32_t>(h >> 40)] += i;
      keys.push_back(static_cast<std::uint32_t>(h));
    }
    std::sort(keys.begin(), keys.end());
    for (const auto k : keys) {
      const auto it = map.lower_bound(k >> 8);
      if (it != map.end()) acc += it->second;
    }
    std::pmr::string text(&pool);
    text.reserve(6000);
    for (int i = 0; i < 2000; ++i) {
      text += std::to_string(i * 31);
      if (text.size() > 4000) text.erase(0, 2000);
    }
    double f = 0;
    for (int i = 1; i < 50000; ++i) f += std::sqrt(static_cast<double>(i)) / i;
    sink.fetch_add(acc + text.size() + static_cast<std::uint64_t>(f),
                   std::memory_order_relaxed);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    fastest = run == 0 ? ms : std::min(fastest, ms);
  }
  return fastest;
}

/// `ms` measured while the kernel took `kernelMs`, as time on the
/// reference host.
inline double atReferenceSpeed(double ms, double kernelMs) {
  return ms * kCalibrationReferenceMs / kernelMs;
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
