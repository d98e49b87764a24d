// Shared plumbing of the perfbench workloads: clocks and order statistics,
// the in-memory span recorder behind the traced run, the golden frontier
// table, and the one-line JSON result the runner prints last.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "driver/explore_service.hpp"
#include "driver/network_explorer.hpp"
#include "support/prng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double msSince(Clock::time_point start) {
  return msBetween(start, Clock::now());
}

/// Command line of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dataDir;   ///< perfbench/golden: committed golden tables
  std::string workDir;   ///< build directory: sockets, trace files
  std::string server;    ///< explore_server binary (serve workload)
};

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// Per-operation times over the passes of a run. Every pass repeats the
/// same operations on the same inputs, and the host only ever adds time
/// (it drifts by up to a third over seconds), so an operation's fastest
/// pass is its steady cost.
class OpTimes {
 public:
  void add(std::size_t op, double ms);
  /// Median over operations of each operation's fastest time.
  double medianOfBest() const;
  /// Sum over operations of each operation's fastest time: a pass with
  /// every operation at its steady cost.
  double sumOfBest() const;
  /// Every sample, for tail percentiles.
  std::vector<double> all() const;

 private:
  std::vector<std::vector<double>> byOp_;
};

/// Host-speed calibration. On a shared VM the cores slow down by up to a
/// third for tens of seconds at a time (CPU time tracks wall time, so it
/// is the cores, not the scheduling), which no statistic over one run can
/// absorb. A fixed kernel that does not call tensorlib is timed throughout
/// the run, and timed end-to-end metrics are scaled by
/// kReferenceMs / (its fastest time): they read as seconds on a host where
/// the kernel takes kReferenceMs. A tensorlib speed-up moves them fully.
/// Slower cores move the kernel and the workload together; cache and
/// memory contention from other tenants slows the map-heavy workloads more
/// than the small kernel, so that part of the drift remains. The kernel
/// allocates only from arenas reserved at construction: on the process
/// heap, the workload's fragmentation moved it by a fifth from process to
/// process.
class HostCalibration {
 public:
  static constexpr double kReferenceMs = 6.0;
  /// `threads`: how many copies of the kernel run at once (the workload's
  /// own parallelism).
  explicit HostCalibration(std::size_t threads);
  /// Times the kernel `count` times; returns the fastest of these.
  double sample(int count);
  /// `seconds` of work timed right after a sample() that returned
  /// `kernelMs`, as seconds on the reference host. Set-up runs once per
  /// repetition, so it is scaled by the host's speed at that moment, not by
  /// the run's fastest.
  static double atReference(double seconds, double kernelMs) {
    return seconds * kReferenceMs / kernelMs;
  }
  double fastestMs() const;
  double factor() const { return kReferenceMs / fastestMs(); }

 private:
  std::size_t threads_;
  std::vector<std::vector<std::byte>> arenas_;  ///< one per kernel thread
  std::vector<double> samplesMs_;
};

/// A seeded padding allocation, held while the next piece of work runs: a
/// process's heap layout biases its speed for its whole life, and shifting
/// the layout before every pass turns that bias into pass-to-pass noise,
/// which best-of-passes statistics absorb.
std::vector<char> shiftHeapLayout(tensorlib::Prng& rng);

// ---- spans ----------------------------------------------------------------

/// Records named spans (start, end, parent, operation id) in memory while
/// enabled; written out as Chrome trace-event JSON when the run ends. A
/// layer's self time is its spans' time minus their child spans' time.
class Tracer {
 public:
  struct Span {
    std::string name;
    double startMs = 0, endMs = 0;  ///< relative to the tracer's origin
    int parent = -1;
    std::int64_t op = -1;
  };

  /// RAII span: a no-op unless the tracer is enabled.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::int64_t op = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  bool enabled = false;

  const std::vector<Span>& spans() const { return spans_; }
  /// Per span name: summed duration minus summed child durations.
  std::map<std::string, double> selfTimesMs() const;
  /// Summed duration of the direct children of span `index`.
  double childMs(int index) const;
  /// Index of the most recent span named `name`; -1 if none.
  int lastIndex(const std::string& name) const;
  void writeChromeTrace(const std::string& path) const;

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  int open_ = -1;
};

/// The traced run's honesty bar: the spans directly under a pass must
/// account for at least this share of the pass's wall time.
constexpr double kMinSpanCoverage = 0.98;

/// Prints the traced run's per-layer self times as one JSON line.
void printSelfTimes(const Tracer& tracer);

// ---- results --------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// What one run reports: the correctness verdict, operation accounting and
/// the metrics of the requested mode.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< why `correct` is false

  void add(const std::string& name, const std::string& unit, double value) {
    metrics.push_back({name, unit, value});
  }
  /// Records a broken invariant: the run's output is not trustworthy.
  void check(bool ok, const std::string& what);
};

/// The end-to-end metrics every workload reports (BENCHMARK.json
/// "end_to_end"); README.md defines each per workload.
struct EndToEnd {
  double setupS = 0;
  double passS = 0;
  double latencyP50Ms = 0;
  double peakRssMb = 0;
  double simCycles = 0;
};
/// Adds the end-to-end metrics; timed ones arrive in reference-host units.
void addEndToEnd(Result& result, const EndToEnd& e2e);

/// Adds every per-layer metric of BENCHMARK.json "per_layer", taking the
/// value from `values` and 0 for a layer the workload never calls into.
/// Throws on a name that is not in the table.
void addPerLayer(Result& result, const std::map<std::string, double>& values);

/// Prints problems to stderr and the result JSON as the last stdout line.
void printResult(const Result& result);

/// VmHWM of a process (0 = self) in MB; 0 when unreadable.
double peakRssMb(int pid = 0);

/// One JSON object of run facts, printed before the result line: host
/// cores, compiler and build type, plus workload-specific entries.
void printRunRecord(const Options& options,
                    const std::vector<std::pair<std::string, std::string>>& facts);

// ---- golden frontiers -----------------------------------------------------

/// One frontier point as users see it: label and the modelled figures.
/// Tuples, not transforms: a different representative of the same
/// evaluated design compares equal.
struct FrontierTuple {
  std::string label;
  std::int64_t cycles = 0;
  double power = 0, area = 0, utilization = 0;
};
using Frontier = std::vector<FrontierTuple>;

/// Query key -> expected frontier, in file order.
class GoldenTable {
 public:
  static GoldenTable load(const std::string& path);
  void save(const std::string& path) const;
  void put(const std::string& key, Frontier frontier);
  const Frontier* find(const std::string& key) const;
  /// Empty when `actual` equals the golden frontier of `key` exactly;
  /// otherwise a one-line description of the first difference.
  std::string mismatch(const std::string& key, const Frontier& actual) const;
  /// Same, but compares against the wire's rendering of the figures (the
  /// default 6-significant-digit stream format) since that is all a
  /// socket client receives.
  std::string wireMismatch(const std::string& key,
                           const std::vector<std::vector<std::string>>& actual) const;
  std::size_t size() const { return order_.size(); }
  Frontier* mutableEntry(const std::string& key);

 private:
  std::vector<std::string> order_;
  std::map<std::string, Frontier> entries_;
};

Frontier frontierOf(const tensorlib::driver::QueryResult& result);
Frontier frontierOf(const tensorlib::driver::NetworkResult& result);
/// The frontier points of a driver::wire result line as rendered there:
/// label, cycles, power_mw, area, utilization.
std::vector<std::vector<std::string>> wireFrontier(const std::string& line);
/// Default ostream rendering of a double, as driver::wire prints figures.
std::string wireNumber(double value);

/// Canonical key of an operator query: algebra with extents, enumeration
/// bound and mode, cost target, objective and array.
std::string queryKey(const tensorlib::driver::ExploreQuery& query);
std::string networkKey(const tensorlib::driver::NetworkQuery& query);

// ---- workloads --------------------------------------------------------------

Result runExplore(const Options& options);
Result runRtl(const Options& options);
Result runServe(const Options& options);

/// Recomputes the golden tables for every query any seed can draw.
int writeGolden(const Options& options);
/// Shows that the golden check catches a corrupted entry.
int selfTest(const Options& options);
/// Writes the rtl workload's list of known divergent designs.
void writeKnownDivergent(const std::string& path);

/// The operator queries the serve workload sends, as request lines.
std::vector<std::string> serveRequestLines();
/// All operator/model queries any explore seed can draw.
std::vector<tensorlib::driver::ExploreQuery> exploreQueryUniverse();
std::vector<tensorlib::driver::NetworkQuery> exploreNetworkUniverse();

}  // namespace perfbench
