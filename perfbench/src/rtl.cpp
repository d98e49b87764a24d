// rtl: verified hardware generation. Netlist generation, tape compile, RTL
// simulation, the exact compare and Verilog emission do the work; stt runs
// only in set-up.
//
// Set-up enumerates every allWorkloads() family (with its allowAllUnicast
// rule) and draws the same number of design points from each. The draw is
// systematic: one point from each of kPerFamily equal slices of the
// enumerated list, at one seeded offset, so every design has the same
// chance to be drawn (divergent ones too) while the pass cost and its
// simulated cycles move only a few percent from seed to seed. Inputs come from
// makeRandomInputs(seed) and references from tensor::referenceExecute.
// Every builtin model gets fixed layer specs (the first realizable design
// of each layer) and its composed reference.
//
// A design operation is generateAccelerator on a 4x4 array with
// injectEverywhere, runAcceleratorFull, an exact compare against the dense
// reference, then emitVerilog. A model operation is buildModelAccelerator,
// runModelAccelerator and a compare against composedReference.
//
// Accounting: a refusal (the documented support::Error for a schedule the
// generator cannot realize) is counted apart. A divergence or any other
// error is a failure. Divergences listed in golden/rtl_divergent.tsv are
// the known open defect and only count as failures; any other divergence
// also marks the run incorrect.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <stdexcept>

#include "arch/model.hpp"
#include "arch/testbench.hpp"
#include "common.hpp"
#include "hwir/rtlsim.hpp"
#include "hwir/verilog.hpp"
#include "stt/enumerate.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"
#include "tensor/network.hpp"
#include "tensor/reference.hpp"
#include "tensor/workloads.hpp"

namespace perfbench {

using namespace tensorlib;

namespace {

constexpr std::size_t kPerFamily = 60;

const stt::ArrayConfig kArray{4, 4, 320.0, 32.0, 2};

arch::HardwareConfig hardware() {
  arch::HardwareConfig hw;
  hw.injectEverywhere = true;
  return hw;
}

struct DesignPoint {
  std::size_t family = 0;
  std::size_t index = 0;  ///< position in the family's enumerated list
  stt::DataflowSpec spec;
};

struct FamilyData {
  std::string name;
  tensor::TensorEnv env;
  tensor::DenseTensor reference;
  std::size_t designs = 0;  ///< enumerated list size
};

struct ModelData {
  std::string name;
  std::vector<std::pair<std::string, stt::DataflowSpec>> layers;
  std::vector<tensor::TensorEnv> envs;
  std::vector<tensor::DenseTensor> reference;
};

struct Setup {
  std::vector<FamilyData> families;
  std::vector<DesignPoint> designs;  ///< in operation order
  std::vector<ModelData> models;
  double referenceMs = 0;
};

stt::EnumerationOptions familyOptions(bool allowAllUnicast) {
  stt::EnumerationOptions o;
  o.dropAllUnicast = !allowAllUnicast;
  return o;
}

/// First enumerated design of a layer the generator can realize.
stt::DataflowSpec firstRealizable(const tensor::NetworkLayer& layer) {
  arch::ModelBuildOptions build;
  for (const auto& spec : stt::enumerateDesignSpace(
           layer.algebra, familyOptions(layer.allowAllUnicast))) {
    try {
      (void)arch::generateAccelerator(spec, build.array, build.hw);
      return spec;
    } catch (const Error&) {
    }
  }
  throw std::runtime_error("no realizable design for layer " + layer.name);
}

Setup buildSetup(std::uint64_t seed) {
  Setup s;
  Prng rng(seed);
  const auto table = tensor::workloads::allWorkloads();
  for (std::size_t f = 0; f < table.size(); ++f) {
    const auto& w = table[f];
    const auto specs = stt::enumerateDesignSpace(
        w.algebra, familyOptions(w.allowAllUnicast));
    const double offset = rng.uniformDouble();
    for (std::size_t j = 0; j < kPerFamily && !specs.empty(); ++j) {
      const std::size_t i = std::min(
          static_cast<std::size_t>((static_cast<double>(j) + offset) *
                                   static_cast<double>(specs.size()) /
                                   static_cast<double>(kPerFamily)),
          specs.size() - 1);
      s.designs.push_back({f, i, specs[i]});
    }
    FamilyData data{w.name, tensor::makeRandomInputs(w.algebra, seed), {}, specs.size()};
    const auto t = Clock::now();
    data.reference = tensor::referenceExecute(w.algebra, data.env);
    s.referenceMs += msSince(t);
    s.families.push_back(std::move(data));
  }
  for (std::size_t i = s.designs.size(); i > 1; --i)
    std::swap(s.designs[i - 1],
              s.designs[static_cast<std::size_t>(
                  rng.uniformInt(0, static_cast<std::int64_t>(i) - 1))]);

  for (const auto& network : tensor::workloads::builtinNetworks()) {
    ModelData m;
    m.name = network.name();
    for (const auto& layer : network.layers())
      m.layers.emplace_back(layer.name, firstRealizable(layer));
    const auto model = arch::buildModelAccelerator(m.layers, {});
    for (std::size_t l = 0; l < model.layers.size(); ++l)
      m.envs.push_back(
          tensor::makeRandomInputs(model.layers[l].acc.spec.algebra(), seed + l + 1));
    const auto t = Clock::now();
    m.reference = arch::composedReference(model, m.envs);
    s.referenceMs += msSince(t);
    s.models.push_back(std::move(m));
  }
  return s;
}

std::string designKey(const Setup& s, const DesignPoint& p) {
  return s.families[p.family].name + "\t" + std::to_string(p.index) + "\t" +
         p.spec.label();
}

std::set<std::string> loadKnownDivergent(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::set<std::string> known;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty() && line[0] != '#') known.insert(line);
  return known;
}

/// Counters and layer times of one pass.
struct PassOutcome {
  double wallMs = 0;
  std::vector<std::pair<std::size_t, double>> designMs;  ///< realizable (op, ms)
  std::vector<std::pair<std::size_t, double>> opMs;      ///< every (op, ms)
  double generateMs = 0, runMs = 0, verilogMs = 0;
  double modelBuildMs = 0, modelRunMs = 0;
  std::size_t refused = 0, divergent = 0, errors = 0;
  std::size_t nodes = 0, verilogBytes = 0, operations = 0;
  std::int64_t cycles = 0, designCycles = 0, stallSlots = 0;
  std::vector<std::size_t> failedOps;  ///< diverged or raised an error
};

/// Records an operation's wall time into PassOutcome::opMs on scope exit,
/// whichever way the operation ends.
struct OpClock {
  std::vector<std::pair<std::size_t, double>>& out;
  std::size_t op;
  Clock::time_point start = Clock::now();
  ~OpClock() { out.emplace_back(op, msSince(start)); }
};

PassOutcome runPass(const Setup& s, const std::set<std::string>& known,
                    Tracer& tracer, Result& result) {
  PassOutcome o;
  const auto start = Clock::now();
  Tracer::Scope passSpan(tracer, "rtl.pass");
  for (std::size_t op = 0; op < s.designs.size(); ++op) {
    const DesignPoint& p = s.designs[op];
    const FamilyData& fam = s.families[p.family];
    ++o.operations;
    OpClock clock{o.opMs, op};
    Tracer::Scope opSpan(tracer, "rtl.design", static_cast<std::int64_t>(op));
    const auto t0 = Clock::now();
    std::optional<arch::GeneratedAccelerator> acc;
    try {
      Tracer::Scope span(tracer, "arch.generate", static_cast<std::int64_t>(op));
      acc.emplace(arch::generateAccelerator(p.spec, kArray, hardware()));
    } catch (const Error&) {
      ++o.refused;
      continue;
    }
    const auto t1 = Clock::now();
    try {
      arch::RtlRunResult run = [&] {
        Tracer::Scope span(tracer, "arch.run_full", static_cast<std::int64_t>(op));
        return arch::runAcceleratorFull(*acc, fam.env);
      }();
      const auto t2 = Clock::now();
      bool match;
      {
        Tracer::Scope span(tracer, "verify.compare", static_cast<std::int64_t>(op));
        match = run.collected.maxAbsDiff(fam.reference) == 0.0;
      }
      const auto t3 = Clock::now();
      std::string verilog;
      {
        Tracer::Scope span(tracer, "hwir.verilog", static_cast<std::int64_t>(op));
        verilog = hwir::emitVerilog(acc->netlist);
      }
      const auto t4 = Clock::now();
      o.generateMs += msBetween(t0, t1);
      o.runMs += msBetween(t1, t2);
      o.verilogMs += msBetween(t3, t4);
      o.designMs.emplace_back(op, msBetween(t0, t4));
      o.nodes += acc->netlist.size();
      o.verilogBytes += verilog.size();
      o.cycles += run.cyclesRun;
      o.designCycles += run.cyclesRun;
      if (!match) {
        ++o.divergent;
        o.failedOps.push_back(op);
        result.check(known.count(designKey(s, p)) > 0,
                     "new RTL divergence: " + designKey(s, p));
      }
    } catch (const std::exception& e) {
      ++o.errors;
      o.failedOps.push_back(op);
      result.check(false, designKey(s, p) + ": " + e.what());
    }
  }
  for (std::size_t i = 0; i < s.models.size(); ++i) {
    const ModelData& m = s.models[i];
    ++o.operations;
    const auto op = static_cast<std::int64_t>(s.designs.size() + i);
    OpClock clock{o.opMs, s.designs.size() + i};
    Tracer::Scope opSpan(tracer, "rtl.model", op);
    try {
      const auto t0 = Clock::now();
      const arch::ModelAccelerator model = [&] {
        Tracer::Scope span(tracer, "arch.model_build", op);
        return arch::buildModelAccelerator(m.layers, {});
      }();
      const auto t1 = Clock::now();
      const arch::ModelRunResult run = [&] {
        Tracer::Scope span(tracer, "arch.model_run", op);
        return arch::runModelAccelerator(model, m.envs);
      }();
      o.modelBuildMs += msBetween(t0, t1);
      o.modelRunMs += msSince(t1);
      Tracer::Scope span(tracer, "verify.compare", op);
      bool match = run.outputs.size() == m.reference.size();
      for (std::size_t l = 0; match && l < run.outputs.size(); ++l)
        match = run.outputs[l].maxAbsDiff(m.reference[l]) == 0.0;
      o.cycles += run.cyclesRun;
      o.stallSlots += run.stallSlots;
      if (!match) {
        ++o.divergent;
        o.failedOps.push_back(s.designs.size() + i);
        result.check(false, "model " + m.name + " diverged from composedReference");
      }
    } catch (const std::exception& e) {
      ++o.errors;
      o.failedOps.push_back(s.designs.size() + i);
      result.check(false, "model " + m.name + ": " + e.what());
    }
  }
  o.wallMs = msSince(start);
  return o;
}

/// Traced run only: constructing the compiled-tape simulator on every drawn
/// netlist, apart from the pass (runAcceleratorFull compiles internally).
double replayCompile(const Setup& s, Tracer& tracer) {
  double ms = 0;
  for (const DesignPoint& p : s.designs) {
    try {
      const auto acc = arch::generateAccelerator(p.spec, kArray, hardware());
      const auto t = Clock::now();
      Tracer::Scope span(tracer, "hwir.compile");
      hwir::RtlSimulator sim(acc.netlist);
      ms += msSince(t);
    } catch (const Error&) {
    }
  }
  return ms;
}

}  // namespace

Result runRtl(const Options& options) {
  Result result;
  Tracer tracer;
  const auto known = loadKnownDivergent(options.dataDir + "/rtl_divergent.tsv");

  HostCalibration calibration(1);
  std::vector<double> setupS;
  Setup s;
  for (int rep = 0; rep < 3; ++rep) {
    stt::clearCandidateCache();
    const double kernelMs = calibration.sample(3);
    const auto t = Clock::now();
    s = buildSetup(options.seed);
    setupS.push_back(HostCalibration::atReference(msSince(t) / 1000, kernelMs));
  }

  std::vector<double> passMs, tracedPassMs, coverage;
  OpTimes latencies, opTimes;
  std::vector<PassOutcome> traced;
  std::vector<PassOutcome> outcomes;
  const auto phase = Clock::now();
  std::size_t operations = 0;
  std::set<std::size_t> failedOps;
  for (int pass = 0; pass < 2 || msSince(phase) < options.seconds * 1000; ++pass) {
    tracer.enabled = options.trace && pass % 2 == 1;
    PassOutcome o = runPass(s, known, tracer, result);
    calibration.sample(2);
    tracer.enabled = false;
    operations += o.operations;
    failedOps.insert(o.failedOps.begin(), o.failedOps.end());
    for (const auto& [op, ms] : o.designMs) latencies.add(op, ms);
    for (const auto& [op, ms] : o.opMs) opTimes.add(op, ms);
    if (options.trace && pass % 2 == 1) {
      tracedPassMs.push_back(o.wallMs);
      const int span = tracer.lastIndex("rtl.pass");
      const auto& sp = tracer.spans()[static_cast<std::size_t>(span)];
      coverage.push_back(tracer.childMs(span) / (sp.endMs - sp.startMs));
      traced.push_back(o);
    } else {
      passMs.push_back(o.wallMs);
    }
    outcomes.push_back(std::move(o));
  }
  const double phaseS = msSince(phase) / 1000;
  // Every pass repeats the same operations, so the run accounts each one
  // once: the number of passes a run fits in does not change the counts.
  result.attempted = s.designs.size() + s.models.size();
  result.failed = failedOps.size();

  const PassOutcome& first = outcomes.front();
  for (const auto& o : outcomes)
    result.check(o.cycles == first.cycles && o.refused == first.refused &&
                     o.divergent == first.divergent && o.nodes == first.nodes &&
                     o.verilogBytes == first.verilogBytes,
                 "exact RTL counters changed between passes");

  std::size_t enumerated = 0;
  for (const auto& f : s.families) enumerated += f.designs;
  printRunRecord(options,
                 {{"threads", "1"},
                  {"passes", std::to_string(outcomes.size())},
                  {"pass_ms_median", std::to_string(median(passMs))},
                  {"pass_ms_min",
                   std::to_string(*std::min_element(passMs.begin(), passMs.end()))},
                  {"calibration_ms_min", std::to_string(calibration.fastestMs())},
                  {"design_operations_per_pass", std::to_string(s.designs.size())},
                  {"model_operations_per_pass", std::to_string(s.models.size())},
                  {"enumerated_designs", std::to_string(enumerated)},
                  {"refused_per_pass", std::to_string(first.refused)},
                  {"divergent_per_pass", std::to_string(first.divergent)},
                  {"known_divergent", std::to_string(known.size())}});

  if (!options.trace) {
    EndToEnd e;
    const double f = calibration.factor();
    e.setupS = median(setupS);
    e.passS = opTimes.sumOfBest() / 1000 * f;
    e.latencyP50Ms = latencies.medianOfBest() * f;
    e.peakRssMb = peakRssMb();
    e.simCycles = static_cast<double>(first.cycles);
    addEndToEnd(result, e);
    return result;
  }

  std::map<std::string, double> m;
  m["host.calibration_ms"] = calibration.fastestMs();
  const auto med = [&](double PassOutcome::*field) {
    std::vector<double> v;
    for (const auto& o : traced) v.push_back(o.*field);
    return median(v);
  };
  m["arch.generate_ms"] = med(&PassOutcome::generateMs);
  m["arch.run_full_ms"] = med(&PassOutcome::runMs);
  m["hwir.verilog_ms"] = med(&PassOutcome::verilogMs);
  m["arch.model_build_ms"] = med(&PassOutcome::modelBuildMs);
  m["arch.model_run_ms"] = med(&PassOutcome::modelRunMs);
  m["hwir.ns_per_cycle"] =
      m["arch.run_full_ms"] * 1e6 / static_cast<double>(first.designCycles);
  m["arch.nodes"] = static_cast<double>(first.nodes);
  m["arch.refused"] = static_cast<double>(first.refused);
  m["hwir.verilog_bytes"] = static_cast<double>(first.verilogBytes);
  m["arch.model_stall_slots"] = static_cast<double>(first.stallSlots);
  m["verify.divergent"] = static_cast<double>(first.divergent);
  m["tensor.reference_ms"] = s.referenceMs;
  m["latency_p90_ms"] = quantile(latencies.all(), 0.9);
  m["latency_p99_ms"] = quantile(latencies.all(), 0.99);
  m["throughput_rps"] = static_cast<double>(operations) / phaseS;
  m["trace.overhead_ms"] = median(tracedPassMs) - median(passMs);
  m["trace.span_coverage"] = *std::min_element(coverage.begin(), coverage.end());
  result.check(m["trace.span_coverage"] >= kMinSpanCoverage,
               "rtl spans cover only " + std::to_string(m["trace.span_coverage"]) +
                   " of a pass");
  tracer.enabled = true;
  m["hwir.compile_ms"] = replayCompile(s, tracer);
  printSelfTimes(tracer);
  tracer.writeChromeTrace(options.workDir + "/trace-rtl.json");
  addPerLayer(result, m);
  return result;
}

/// Sweeps every enumerated design of every family at data seeds 1-3 and
/// writes the divergent ones: the known-defect list the rtl workload
/// accepts as failures without marking the run incorrect.
void writeKnownDivergent(const std::string& path) {
  std::set<std::string> divergent;
  const auto table = tensor::workloads::allWorkloads();
  for (std::uint64_t seed = 1; seed <= 3; ++seed)
    for (const auto& w : table) {
      const auto env = tensor::makeRandomInputs(w.algebra, seed);
      const auto reference = tensor::referenceExecute(w.algebra, env);
      const auto specs = stt::enumerateDesignSpace(
          w.algebra, familyOptions(w.allowAllUnicast));
      for (std::size_t i = 0; i < specs.size(); ++i) {
        std::optional<arch::GeneratedAccelerator> acc;
        try {
          acc.emplace(arch::generateAccelerator(specs[i], kArray, hardware()));
        } catch (const Error&) {
          continue;
        }
        if (arch::runAcceleratorFull(*acc, env).collected.maxAbsDiff(reference) != 0.0)
          divergent.insert(w.name + "\t" + std::to_string(i) + "\t" + specs[i].label());
      }
    }
  std::ofstream out(path);
  out << "# family\tindex\tlabel — full-workload RTL divergences on a 4x4 array\n"
         "# with injectEverywhere, union over data seeds 1-3 (ROADMAP open item 1)\n";
  for (const auto& d : divergent) out << d << "\n";
  std::printf("wrote %zu known divergent designs to %s\n", divergent.size(),
              path.c_str());
}

}  // namespace perfbench
