#include "common.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory_resource>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

void OpTimes::add(std::size_t op, double ms) {
  if (byOp_.size() <= op) byOp_.resize(op + 1);
  byOp_[op].push_back(ms);
}

double OpTimes::medianOfBest() const {
  std::vector<double> best;
  for (const auto& v : byOp_)
    if (!v.empty()) best.push_back(*std::min_element(v.begin(), v.end()));
  return median(best);
}

double OpTimes::sumOfBest() const {
  double sum = 0;
  for (const auto& v : byOp_)
    if (!v.empty()) sum += *std::min_element(v.begin(), v.end());
  return sum;
}

std::vector<double> OpTimes::all() const {
  std::vector<double> out;
  for (const auto& v : byOp_) out.insert(out.end(), v.begin(), v.end());
  return out;
}

namespace {

/// Keeps the kernel's result observable so it is not optimized away.
std::atomic<std::uint64_t> calibrationSink{0};

/// One run of the calibration kernel: a mix like the library's own hot
/// paths (ordered-map inserts and lookups, a sort, string building,
/// floating point) with a small working set, so it leaves peak RSS alone.
/// Every allocation comes from `arena`, in the same order on every run.
double kernelMs(std::vector<std::byte>& arena) {
  const auto t = Clock::now();
  std::pmr::monotonic_buffer_resource pool(arena.data(), arena.size(),
                                           std::pmr::null_memory_resource());
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
  calibrationSink.fetch_add(acc + text.size() + static_cast<std::uint64_t>(f),
                            std::memory_order_relaxed);
  return msSince(t);
}

}  // namespace

HostCalibration::HostCalibration(std::size_t threads)
    : threads_(threads), arenas_(threads, std::vector<std::byte>(std::size_t{2} << 20)) {}

double HostCalibration::sample(int count) {
  double fastest = 0;
  for (int n = 0; n < count; ++n) {
    // With threads > 1 the kernel runs on that many threads at once and
    // the slowest one counts, as the slowest worker bounds a parallel pass.
    std::vector<double> ms(threads_);
    std::vector<std::thread> others;
    for (std::size_t i = 1; i < threads_; ++i)
      others.emplace_back([this, &ms, i] { ms[i] = kernelMs(arenas_[i]); });
    ms[0] = kernelMs(arenas_[0]);
    for (auto& t : others) t.join();
    samplesMs_.push_back(*std::max_element(ms.begin(), ms.end()));
    fastest = n ? std::min(fastest, samplesMs_.back()) : samplesMs_.back();
  }
  return fastest;
}

double HostCalibration::fastestMs() const {
  return *std::min_element(samplesMs_.begin(), samplesMs_.end());
}

std::vector<char> shiftHeapLayout(tensorlib::Prng& rng) {
  return std::vector<char>(64 * static_cast<std::size_t>(rng.uniformInt(0, 4095)));
}

// ---- spans ----------------------------------------------------------------

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::int64_t op)
    : tracer_(tracer) {
  if (!tracer_.enabled) return;
  index_ = static_cast<int>(tracer_.spans_.size());
  tracer_.spans_.push_back(
      {name, msBetween(tracer_.origin_, Clock::now()), 0, tracer_.open_, op});
  tracer_.open_ = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  Span& span = tracer_.spans_[static_cast<std::size_t>(index_)];
  span.endMs = msBetween(tracer_.origin_, Clock::now());
  tracer_.open_ = span.parent;
}

std::map<std::string, double> Tracer::selfTimesMs() const {
  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    const double d = s.endMs - s.startMs;
    self[s.name] += d;
    if (s.parent >= 0) self[spans_[static_cast<std::size_t>(s.parent)].name] -= d;
  }
  return self;
}

double Tracer::childMs(int index) const {
  double total = 0;
  for (const Span& s : spans_)
    if (s.parent == index) total += s.endMs - s.startMs;
  return total;
}

int Tracer::lastIndex(const std::string& name) const {
  for (std::size_t i = spans_.size(); i-- > 0;)
    if (spans_[i].name == name) return static_cast<int>(i);
  return -1;
}

void Tracer::writeChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return;
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "") << "{\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << static_cast<long long>(s.startMs * 1000) << ", \"dur\": "
        << static_cast<long long>((s.endMs - s.startMs) * 1000)
        << ", \"args\": {\"op\": " << s.op << ", \"parent\": " << s.parent
        << "}}";
  }
  out << "\n]}\n";
}

void printSelfTimes(const Tracer& tracer) {
  std::ostringstream os;
  os << "{\"self_ms\": {";
  bool first = true;
  for (const auto& [name, ms] : tracer.selfTimesMs()) {
    os << (first ? "" : ", ") << "\"" << name << "\": " << ms;
    first = false;
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
}

// ---- results --------------------------------------------------------------

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  if (problems.size() < 20) problems.push_back(what);
}

void addEndToEnd(Result& result, const EndToEnd& e2e) {
  result.add("setup_s", "s", e2e.setupS);
  result.add("pass_s", "s", e2e.passS);
  result.add("latency_p50_ms", "ms", e2e.latencyP50Ms);
  result.add("peak_rss_mb", "MB", e2e.peakRssMb);
  result.add("sim_cycles", "cycles", e2e.simCycles);
}

void addPerLayer(Result& result, const std::map<std::string, double>& values) {
  static const std::vector<std::pair<const char*, const char*>> kTable = {
      // explore: the driver's three pass parts, its counters, and the
      // isolated stt / cost replays.
      {"driver.batch_ms", "ms"}, {"driver.network_ms", "ms"},
      {"driver.boundfirst_ms", "ms"}, {"driver.designs", "count"},
      {"driver.hits", "count"}, {"driver.misses", "count"},
      {"driver.pruned", "count"}, {"driver.prune_ratio", "ratio"},
      {"stt.enumerate_ms", "ms"}, {"stt.specs", "count"},
      {"cost.bound_ms", "ms"}, {"cost.eval_ms", "ms"}, {"cost.evals", "count"},
      // rtl: generation, tape compile, simulation, emission, references.
      {"arch.generate_ms", "ms"}, {"arch.nodes", "count"},
      {"arch.refused", "count"}, {"hwir.compile_ms", "ms"},
      {"arch.run_full_ms", "ms"}, {"hwir.ns_per_cycle", "ns"},
      {"hwir.verilog_ms", "ms"}, {"hwir.verilog_bytes", "bytes"},
      {"tensor.reference_ms", "ms"}, {"arch.model_build_ms", "ms"},
      {"arch.model_run_ms", "ms"}, {"arch.model_stall_slots", "count"},
      {"verify.divergent", "count"},
      // serve: in-process replays of the wire codec and the warm service.
      {"driver.wire_parse_us", "us"}, {"driver.service_warm_ms", "ms"},
      {"driver.wire_format_us", "us"}, {"driver.transport_ms", "ms"},
      {"driver.cache_hit_ratio", "ratio"}, {"driver.completed", "count"},
      {"driver.rejected", "count"},
      // every workload: operation tails and the tracer's own accounting.
      {"latency_p90_ms", "ms"}, {"latency_p99_ms", "ms"},
      {"throughput_rps", "1/s"}, {"host.calibration_ms", "ms"},
      {"trace.overhead_ms", "ms"}, {"trace.span_coverage", "ratio"},
  };
  for (const auto& [name, _] : values) {
    bool known = false;
    for (const auto& row : kTable) known = known || name == row.first;
    if (!known) throw std::runtime_error("per-layer metric not declared: " + name);
  }
  for (const auto& [name, unit] : kTable) {
    const auto it = values.find(name);
    result.add(name, unit, it == values.end() ? 0.0 : it->second);
  }
}

void printResult(const Result& result) {
  for (const auto& p : result.problems)
    std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (result.correct ? "true" : "false")
     << ", \"attempted\": " << result.attempted
     << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
       << (std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \""
       << m.unit << "\"}";
  }
  os << "}}";
  std::fflush(stderr);
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

double peakRssMb(int pid) {
  const std::string path =
      pid ? "/proc/" + std::to_string(pid) + "/status" : "/proc/self/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0;
}

void printRunRecord(const Options& options,
                    const std::vector<std::pair<std::string, std::string>>& facts) {
  std::ostringstream os;
  os << "{\"run_record\": {\"workload\": \"" << options.workload
     << "\", \"seed\": " << options.seed << ", \"seconds\": " << options.seconds
     << ", \"trace\": " << (options.trace ? 1 : 0)
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"compiler\": \"" << PERFBENCH_COMPILER << "\", \"build_type\": \""
     << PERFBENCH_BUILD_TYPE << "\"";
  for (const auto& [k, v] : facts) os << ", \"" << k << "\": " << v;
  os << "}}";
  std::printf("%s\n", os.str().c_str());
}

// ---- golden frontiers -----------------------------------------------------

namespace {

std::string exactNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string wireNumber(double value) {
  std::ostringstream os;
  os << value;
  return os.str();
}

GoldenTable GoldenTable::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open golden table " + path);
  GoldenTable table;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key, label, cycles, power, area, util;
    if (!std::getline(fields, key, '\t') || !std::getline(fields, label, '\t') ||
        !std::getline(fields, cycles, '\t') || !std::getline(fields, power, '\t') ||
        !std::getline(fields, area, '\t') || !std::getline(fields, util, '\t'))
      throw std::runtime_error("malformed golden line: " + line);
    if (!table.entries_.count(key)) table.order_.push_back(key);
    table.entries_[key].push_back({label, std::stoll(cycles), std::stod(power),
                                   std::stod(area), std::stod(util)});
  }
  return table;
}

void GoldenTable::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write golden table " + path);
  out << "# key\tlabel\tcycles\tpower_mw\tarea\tutilization\n";
  for (const auto& key : order_)
    for (const auto& t : entries_.at(key))
      out << key << '\t' << t.label << '\t' << t.cycles << '\t'
          << exactNumber(t.power) << '\t' << exactNumber(t.area) << '\t'
          << exactNumber(t.utilization) << '\n';
}

void GoldenTable::put(const std::string& key, Frontier frontier) {
  if (!entries_.count(key)) order_.push_back(key);
  entries_[key] = std::move(frontier);
}

const Frontier* GoldenTable::find(const std::string& key) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

Frontier* GoldenTable::mutableEntry(const std::string& key) {
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

std::string GoldenTable::mismatch(const std::string& key,
                                  const Frontier& actual) const {
  const Frontier* expected = find(key);
  if (!expected) return key + ": no golden entry";
  if (expected->size() != actual.size())
    return key + ": frontier has " + std::to_string(actual.size()) +
           " points, golden " + std::to_string(expected->size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const FrontierTuple& e = (*expected)[i];
    const FrontierTuple& a = actual[i];
    if (e.label != a.label || e.cycles != a.cycles || e.power != a.power ||
        e.area != a.area || e.utilization != a.utilization)
      return key + ": point " + std::to_string(i) + " is " + a.label + "/" +
             std::to_string(a.cycles) + "/" + exactNumber(a.power) + "/" +
             exactNumber(a.area) + ", golden " + e.label + "/" +
             std::to_string(e.cycles) + "/" + exactNumber(e.power) + "/" +
             exactNumber(e.area);
  }
  return "";
}

std::string GoldenTable::wireMismatch(
    const std::string& key,
    const std::vector<std::vector<std::string>>& actual) const {
  const Frontier* expected = find(key);
  if (!expected) return key + ": no golden entry";
  if (expected->size() != actual.size())
    return key + ": response frontier has " + std::to_string(actual.size()) +
           " points, golden " + std::to_string(expected->size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const FrontierTuple& e = (*expected)[i];
    const std::vector<std::string> want = {
        e.label, std::to_string(e.cycles), wireNumber(e.power),
        wireNumber(e.area), wireNumber(e.utilization)};
    if (actual[i] != want)
      return key + ": response point " + std::to_string(i) + " differs from golden";
  }
  return "";
}

Frontier frontierOf(const tensorlib::driver::QueryResult& result) {
  Frontier f;
  for (const auto& r : result.frontier) {
    const auto fig = r.figures();
    f.push_back({r.spec.label(), r.perf.totalCycles, fig.powerMw, fig.area,
                 r.perf.utilization});
  }
  return f;
}

Frontier frontierOf(const tensorlib::driver::NetworkResult& result) {
  Frontier f;
  for (const auto& d : result.frontier) {
    std::string label = std::to_string(d.arrayIndex) + ":";
    for (std::size_t i = 0; i < d.layers.size(); ++i)
      label += (i ? "+" : "") + d.layers[i].dataflow;
    f.push_back({label, static_cast<std::int64_t>(d.cost.cycles),
                 d.cost.powerMw, d.cost.area, d.cost.utilization});
  }
  return f;
}

namespace {

std::string algebraKey(const tensorlib::tensor::TensorAlgebra& algebra) {
  std::string key = algebra.name() + "(";
  for (std::size_t i = 0; i < algebra.loops().size(); ++i)
    key += (i ? "," : "") + std::to_string(algebra.loops()[i].extent);
  return key + ")";
}

std::string arrayKey(const tensorlib::stt::ArrayConfig& a) {
  return std::to_string(a.rows) + "x" + std::to_string(a.cols);
}

}  // namespace

std::string queryKey(const tensorlib::driver::ExploreQuery& q) {
  return algebraKey(q.algebra) + "|me" + std::to_string(q.enumeration.maxEntry) +
         (q.enumeration.boundFirst ? "|bf" : "") +
         (q.enumeration.dropAllUnicast ? "" : "|unicast") + "|" +
         tensorlib::cost::backendKindName(q.backend) + "|" +
         tensorlib::driver::objectiveName(q.objective) + "|" + arrayKey(q.array);
}

std::string networkKey(const tensorlib::driver::NetworkQuery& q) {
  std::string arrays;
  for (std::size_t i = 0; i < q.arrays.size(); ++i)
    arrays += (i ? "," : "") + arrayKey(q.arrays[i]);
  return "model:" + q.network.name() + "|me" +
         std::to_string(q.enumeration.maxEntry) + "|" +
         tensorlib::cost::backendKindName(q.backend) + "|" +
         tensorlib::driver::objectiveName(q.objective) + "|" + arrays;
}

}  // namespace perfbench
