// serve: a warm resident daemon answering over its unix socket. The wire
// codec, the socket server, the admission queue and the eval-cache read
// path do the work; no design is evaluated in the timed phase.
//
// Set-up starts `explore_server --serve --unix-socket PATH --workers 2
// --threads 1` as a child and sends every distinct query of the set once,
// which fills the caches. The set stays inside the service's limits: 8
// distinct design spaces (the spec-list cache keeps 8) and far fewer
// distinct evaluations than the 65,536-entry eval cache.
//
// The timed phase is a closed loop over 2 connections: each sends its next
// request when its reply has arrived, both walking one seeded permutation
// of the set; one walk of the whole set is a pass. Every response frontier
// is checked against the golden table, and the server's eval-cache misses
// must not move during the timed phase.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "driver/wire.hpp"
#include "support/jsonl.hpp"
#include "support/prng.hpp"

extern char** environ;

namespace perfbench {

using namespace tensorlib;

namespace {

constexpr int kConnections = 2;
constexpr int kServers = 3;
constexpr std::size_t kMaxFrontier = 4096;

/// The explore_server child: spawned on construction, shut down (or
/// killed) and reaped before the object goes away.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const std::string& socketPath)
      : socketPath_(socketPath) {
    ::unlink(socketPath_.c_str());
    const std::string frontier = std::to_string(kMaxFrontier);
    std::vector<std::string> args = {binary,    "--serve",   "--unix-socket",
                                     socketPath, "--workers", "2",
                                     "--threads", "1",         "--max-frontier",
                                     frontier};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw std::runtime_error("cannot start " + binary);
  }
  ~ServerProcess() { stop(0); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int pid() const { return pid_; }
  bool running() {
    if (pid_ <= 0) return false;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    return true;
  }
  /// Waits up to `ms` for a graceful exit, then kills; always reaps.
  void stop(int ms = 5000) {
    if (pid_ <= 0) return;
    for (int waited = 0; waited < ms; waited += 10) {
      if (!running()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
    ::unlink(socketPath_.c_str());
  }

 private:
  std::string socketPath_;
  pid_t pid_ = -1;
};

/// One blocking line-oriented client connection.
class Connection {
 public:
  Connection(const std::string& path, ServerProcess& server) {
    for (int attempt = 0; attempt < 1000; ++attempt) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
      if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0)
        return;
      ::close(fd_);
      fd_ = -1;
      if (!server.running()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    throw std::runtime_error("cannot connect to explore_server at " + path);
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void send(const std::string& line) {
    const std::string framed = line + "\n";
    std::size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n = ::write(fd_, framed.data() + sent, framed.size() - sent);
      if (n <= 0) throw std::runtime_error("explore_server connection closed");
      sent += static_cast<std::size_t>(n);
    }
  }
  std::string readLine() {
    for (;;) {
      const auto nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char chunk[65536];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n <= 0) throw std::runtime_error("explore_server closed the connection");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }
  std::string request(const std::string& line) {
    send(line);
    return readLine();
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

std::string field(const std::string& text, const std::string& name,
                  std::size_t from = 0) {
  const std::string tag = "\"" + name + "\": ";
  const auto at = text.find(tag, from);
  if (at == std::string::npos) return "";
  auto begin = at + tag.size();
  if (text[begin] == '"') {
    ++begin;
    return text.substr(begin, text.find('"', begin) - begin);
  }
  return text.substr(begin, text.find_first_of(",}]", begin) - begin);
}

}  // namespace

std::vector<std::vector<std::string>> wireFrontier(const std::string& line) {
  std::vector<std::vector<std::string>> points;
  auto at = line.find("\"frontier\": [");
  const auto end = line.find(']', at);
  while (at != std::string::npos && (at = line.find('{', at)) < end) {
    points.push_back({field(line, "label", at), field(line, "cycles", at),
                      field(line, "power_mw", at), field(line, "area", at),
                      field(line, "utilization", at)});
    at = line.find('}', at);
  }
  return points;
}

namespace {

/// Eval-cache (hits, misses) from a {"cache_stats": true} reply; the eval
/// cache's counters come first in the object.
std::pair<std::uint64_t, std::uint64_t> cacheCounters(Connection& c) {
  const std::string reply = c.request("{\"cache_stats\": true}");
  const std::string hits = field(reply, "hits"), misses = field(reply, "misses");
  if (hits.empty() || misses.empty())
    throw std::runtime_error("unexpected cache_stats reply: " + reply);
  return {std::stoull(hits), std::stoull(misses)};
}

struct SetItem {
  std::string line;
  std::string key;
};

std::vector<SetItem> requestSet() {
  std::vector<SetItem> set;
  for (const auto& line : serveRequestLines()) {
    const auto request = driver::wire::parseRequest(support::parseJsonLine(line));
    set.push_back({line, queryKey(*request.query)});
  }
  return set;
}

/// Sends every item once over `connections` in parallel; returns the
/// response lines in item order.
std::vector<std::string> sendAll(const std::vector<SetItem>& items,
                                 const std::vector<std::size_t>& order,
                                 std::vector<std::unique_ptr<Connection>>& connections,
                                 OpTimes* latencies) {
  std::vector<std::string> replies(items.size());
  std::vector<double> ms(items.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  std::mutex errorMutex;
  std::string error;
  for (std::size_t c = 0; c < connections.size(); ++c)
    threads.emplace_back([&, c] {
      try {
        for (std::size_t i; (i = next.fetch_add(1)) < order.size();) {
          const auto t = Clock::now();
          replies[order[i]] = connections[c]->request(items[order[i]].line);
          ms[order[i]] = msSince(t);
        }
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(errorMutex);
        error = e.what();
        next = order.size();
      }
    });
  for (auto& t : threads) t.join();
  if (!error.empty()) throw std::runtime_error(error);
  if (latencies)
    for (std::size_t i = 0; i < items.size(); ++i) latencies->add(i, ms[i]);
  return replies;
}

/// Golden check of one reply; returns false on any difference or error.
bool checkReply(const GoldenTable& golden, const SetItem& item,
                const std::string& reply, Result& result) {
  std::string why;
  if (reply.find("\"error\"") != std::string::npos ||
      reply.find("\"timed_out\"") != std::string::npos)
    why = item.key + ": " + reply.substr(0, 200);
  else
    why = golden.wireMismatch(item.key, wireFrontier(reply));
  result.check(why.empty(), why);
  return why.empty();
}

/// A running, cache-filled server with its client connections.
struct WarmServer {
  std::unique_ptr<ServerProcess> process;
  std::vector<std::unique_ptr<Connection>> connections;
};

WarmServer startWarm(const Options& options, int index,
                     const std::vector<SetItem>& items, const GoldenTable& golden,
                     Result& result) {
  WarmServer w;
  const std::string path = options.workDir + "/serve-" + std::to_string(::getpid()) +
                           "-" + std::to_string(index) + ".sock";
  w.process = std::make_unique<ServerProcess>(options.server, path);
  for (int c = 0; c < kConnections; ++c)
    w.connections.push_back(std::make_unique<Connection>(path, *w.process));
  std::vector<std::size_t> order(items.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const auto replies = sendAll(items, order, w.connections, nullptr);
  for (std::size_t i = 0; i < items.size(); ++i)
    checkReply(golden, items[i], replies[i], result);
  return w;
}

/// Asks the server to drain and exit; returns its shutdown summary line.
std::string shutdown(WarmServer& w) {
  w.connections.front()->send("{\"shutdown\": true}");
  std::string summary;
  try {
    summary = w.connections.front()->readLine();
  } catch (const std::exception&) {
  }
  w.connections.clear();
  w.process->stop();
  return summary;
}

/// Traced run only: in-process replays of the same requests through the
/// wire codec and a warm ExplorationService, timing each layer.
void replayInProcess(const std::vector<SetItem>& items,
                     const std::vector<std::size_t>& order, Tracer& tracer,
                     std::map<std::string, double>& m) {
  driver::ServiceOptions options;
  options.threads = 1;
  driver::ExplorationService service(options);
  for (const auto& item : items)
    (void)service.run(
        *driver::wire::parseRequest(support::parseJsonLine(item.line)).query);

  std::vector<double> parseUs, serviceMs, formatUs, passMs, tracedMs, coverage;
  for (int pass = 0; pass < 6; ++pass) {
    tracer.enabled = pass % 2 == 1;
    const auto start = Clock::now();
    {
      Tracer::Scope passSpan(tracer, "serve.replay_pass");
      for (std::size_t i : order) {
        auto t0 = Clock::now();
        driver::wire::Request request = [&] {
          Tracer::Scope span(tracer, "driver.wire_parse", static_cast<std::int64_t>(i));
          return driver::wire::parseRequest(support::parseJsonLine(items[i].line));
        }();
        auto t1 = Clock::now();
        driver::QueryResult r = [&] {
          Tracer::Scope span(tracer, "driver.service", static_cast<std::int64_t>(i));
          return service.run(*request.query);
        }();
        auto t2 = Clock::now();
        std::string line;
        {
          Tracer::Scope span(tracer, "driver.wire_format", static_cast<std::int64_t>(i));
          line = driver::wire::resultLine(
              i, request.name, cost::backendKindName(request.query->backend),
              driver::objectiveName(request.query->objective), r, kMaxFrontier);
        }
        auto t3 = Clock::now();
        if (pass > 0) {
          parseUs.push_back(msBetween(t0, t1) * 1000);
          serviceMs.push_back(msBetween(t1, t2));
          formatUs.push_back(msBetween(t2, t3) * 1000);
        }
      }
    }
    const double wall = msSince(start);
    if (pass == 0) continue;  // warms the replay path itself
    if (tracer.enabled) {
      tracedMs.push_back(wall);
      const int span = tracer.lastIndex("serve.replay_pass");
      const auto& s = tracer.spans()[static_cast<std::size_t>(span)];
      coverage.push_back(tracer.childMs(span) / (s.endMs - s.startMs));
    } else {
      passMs.push_back(wall);
    }
  }
  tracer.enabled = false;
  m["driver.wire_parse_us"] = median(parseUs);
  m["driver.service_warm_ms"] = median(serviceMs);
  m["driver.wire_format_us"] = median(formatUs);
  m["trace.overhead_ms"] = median(tracedMs) - median(passMs);
  m["trace.span_coverage"] = *std::min_element(coverage.begin(), coverage.end());
}

}  // namespace

std::vector<std::string> serveRequestLines() {
  // gemm 256^3 and 64^3 at max_entry 2, plus six named table workloads at
  // max_entry 1: 8 distinct design spaces.
  std::vector<std::string> workloads;
  for (const int size : {256, 64}) {
    const std::string s = std::to_string(size);
    workloads.push_back("\"workload\": \"gemm\", \"m\": " + s + ", \"n\": " + s +
                        ", \"k\": " + s + ", \"max_entry\": 2");
  }
  for (const char* name : {"attention", "batched-gemv", "mttkrp", "ttmc", "conv2d",
                           "depthwise"})
    workloads.push_back(std::string("\"workload\": \"") + name +
                        "\", \"max_entry\": 1");
  std::vector<std::string> lines;
  for (const auto& w : workloads)
    for (const char* backend : {"asic", "fpga"})
      for (const char* objective : {"performance", "power", "energy-delay"})
        for (const char* side : {"8", "16"})
          lines.push_back("{" + w + ", \"backend\": \"" + backend +
                          "\", \"objective\": \"" + objective + "\", \"rows\": " +
                          side + ", \"cols\": " + side + "}");
  return lines;
}

Result runServe(const Options& options) {
  Result result;
  Tracer tracer;
  const auto items = requestSet();

  // Set-up: start a server and fill its caches, three times; setup_s is
  // the median. All three stay up and the timed phase rotates its passes
  // over them: a process's memory placement biases its speed for its whole
  // life, and the median over three processes absorbs that bias.
  HostCalibration calibration(kConnections);
  std::vector<double> setupS;
  GoldenTable golden;
  std::vector<WarmServer> servers;
  for (int rep = 0; rep < kServers; ++rep) {
    const double kernelMs = calibration.sample(3);
    const auto t = Clock::now();
    golden = GoldenTable::load(options.dataDir + "/frontiers.tsv");
    servers.push_back(startWarm(options, rep, items, golden, result));
    setupS.push_back(HostCalibration::atReference(msSince(t) / 1000, kernelMs));
  }

  Prng rng(options.seed);
  std::vector<std::size_t> order(items.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[static_cast<std::size_t>(rng.uniformInt(
                                0, static_cast<std::int64_t>(i) - 1))]);

  std::vector<std::pair<std::uint64_t, std::uint64_t>> before;
  for (auto& w : servers) before.push_back(cacheCounters(*w.connections.front()));
  std::vector<std::vector<double>> passMs(servers.size());
  std::vector<OpTimes> latencies(servers.size());
  double simCycles = 0;
  std::size_t responses = 0;
  std::set<std::size_t> failedOps;
  const auto phase = Clock::now();
  for (std::size_t pass = 0;
       pass < 2 * servers.size() || msSince(phase) < options.seconds * 1000; ++pass) {
    const std::size_t at = pass % servers.size();
    const auto t = Clock::now();
    const auto replies = sendAll(items, order, servers[at].connections, &latencies[at]);
    passMs[at].push_back(msSince(t));
    calibration.sample(1);
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (!checkReply(golden, items[i], replies[i], result)) failedOps.insert(i);
      if (pass == 0) {
        const auto points = wireFrontier(replies[i]);
        if (!points.empty()) simCycles += std::stod(points.front()[1]);
      }
    }
    responses += replies.size();
  }
  const double phaseS = msSince(phase) / 1000;
  // Every pass repeats the same requests, so the run accounts each one
  // once: the number of passes a run fits in does not change the counts.
  result.attempted = items.size();
  result.failed = failedOps.size();

  std::uint64_t newHits = 0, newMisses = 0;
  std::vector<double> peakRss, fastestPass, p50, allLatencies, allPasses;
  double completed = 0, rejected = 0;
  for (std::size_t k = 0; k < servers.size(); ++k) {
    const auto after = cacheCounters(*servers[k].connections.front());
    newHits += after.first - before[k].first;
    newMisses += after.second - before[k].second;
    peakRss.push_back(peakRssMb(servers[k].process->pid()));
    fastestPass.push_back(*std::min_element(passMs[k].begin(), passMs[k].end()));
    p50.push_back(latencies[k].medianOfBest());
    const auto samples = latencies[k].all();
    allLatencies.insert(allLatencies.end(), samples.begin(), samples.end());
    allPasses.insert(allPasses.end(), passMs[k].begin(), passMs[k].end());
    const std::string summary = shutdown(servers[k]);
    result.check(!field(summary, "completed").empty(),
                 "no shutdown summary from explore_server");
    if (!summary.empty()) {
      completed += std::stod(field(summary, "completed"));
      rejected += std::stod(field(summary, "rejected_overloaded"));
    }
  }
  result.check(newMisses == 0, "the timed phase missed the eval cache " +
                                   std::to_string(newMisses) + " times");

  printRunRecord(options,
                 {{"threads", "{\"servers\": 3, \"server_workers\": 2, "
                              "\"server_threads\": 1, \"client_connections\": 2}"},
                  {"passes", std::to_string(allPasses.size())},
                  {"pass_ms_median", std::to_string(median(allPasses))},
                  {"pass_ms_min",
                   std::to_string(*std::min_element(allPasses.begin(), allPasses.end()))},
                  {"calibration_ms_min", std::to_string(calibration.fastestMs())},
                  {"requests_per_pass", std::to_string(items.size())},
                  {"cache_capacity", std::to_string(driver::ServiceOptions{}.cacheCapacity)},
                  {"distinct_evaluations", std::to_string(before.front().second)}});

  if (!options.trace) {
    EndToEnd e;
    const double f = calibration.factor();
    e.setupS = median(setupS);
    e.passS = median(fastestPass) / 1000 * f;
    e.latencyP50Ms = median(p50) * f;
    e.peakRssMb = median(peakRss);
    e.simCycles = simCycles;
    addEndToEnd(result, e);
    return result;
  }

  std::map<std::string, double> m;
  m["host.calibration_ms"] = calibration.fastestMs();
  replayInProcess(items, order, tracer, m);
  m["driver.transport_ms"] = median(allLatencies) - m["driver.wire_parse_us"] / 1000 -
                             m["driver.service_warm_ms"] -
                             m["driver.wire_format_us"] / 1000;
  m["driver.cache_hit_ratio"] =
      newHits + newMisses ? static_cast<double>(newHits) /
                                static_cast<double>(newHits + newMisses)
                          : 0;
  m["driver.completed"] = completed;
  m["driver.rejected"] = rejected;
  m["latency_p90_ms"] = quantile(allLatencies, 0.9);
  m["latency_p99_ms"] = quantile(allLatencies, 0.99);
  m["throughput_rps"] = static_cast<double>(responses) / phaseS;
  result.check(m["trace.span_coverage"] >= kMinSpanCoverage,
               "serve replay spans cover only " +
                   std::to_string(m["trace.span_coverage"]) + " of a pass");
  printSelfTimes(tracer);
  tracer.writeChromeTrace(options.workDir + "/trace-serve.json");
  addPerLayer(result, m);
  return result;
}

}  // namespace perfbench
