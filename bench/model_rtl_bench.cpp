// Stitched model: build and compiled-RTL execution budgets, with the
// legacy interpreter reported alongside.
//
// Builds the mlp-3 builtin model the same way the model oracle does — one
// realizable design per layer, stitched into ONE merged netlist with
// planner-sized inter-layer buffers — then executes the identical stitched
// top under both RTL engines:
//
//   compiled  the flattened evaluation tape (hwir::SimEngine::Compiled),
//             the engine the model oracle and the daemon run on.
//   legacy    the node-walking interpreter (hwir::SimEngine::Legacy), the
//             semantics reference.
//
// Element-exactness is asserted every run, gates or not: both engines must
// match the composed dense reference bit for bit (the same contract
// verify_model_conformance_test enforces).
//
// Gates (full mode only), both on host-calibrated times: each timed run is
// preceded by the calibration kernel (bench_util.hpp) and scaled to the
// reference host, where the kernel takes kCalibrationReferenceMs; the gate
// reads the median scaled time over kFullRepeats runs.
//   compiled_ms  runModelAccelerator on the compiled tape, within
//                kGateMaxCompiledMs. The compiled-vs-legacy ratio is
//                reported, not gated: the legacy walker's old margin was
//                mostly eagerly built check messages.
//   build_ms     buildModelAccelerator (netlists, stage schedules, link
//                tables and buffer planning), within kGateMaxBuildMs.
// Raw medians, the fastest kernel time and the host's thread count are
// recorded next to the scaled ones.
//
// Merges a "model_rtl" section into BENCH_hotpaths.json next to the
// earlier gates.
//
// Usage: bench_model_rtl [--smoke] [--out <path>]
//   --smoke   one rep, correctness asserts only, no timing gates
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/model.hpp"
#include "bench_util.hpp"
#include "stt/enumerate.hpp"
#include "support/error.hpp"
#include "tensor/network.hpp"
#include "tensor/reference.hpp"
#include "tensor/workloads.hpp"

namespace {

using namespace tensorlib;
using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

// Budgets at the reference host speed (see bench_util.hpp).
constexpr double kGateMaxCompiledMs = 12.75;
constexpr double kGateMaxBuildMs = 4.0;
constexpr int kFullRepeats = 5;
constexpr const char* kModel = "mlp-3";

/// First enumerated design the netlist generator can realize — the same
/// cheap spec source the buffer-property tests use (no cost models, no
/// exploration service; engine time is what this bench measures).
stt::DataflowSpec firstRealizableSpec(const tensor::TensorAlgebra& algebra,
                                      bool allowAllUnicast,
                                      const arch::ModelBuildOptions& options) {
  stt::EnumerationOptions enumeration;
  enumeration.dropAllUnicast = !allowAllUnicast;
  arch::HardwareConfig hw = options.hw;
  hw.injectEverywhere = true;
  for (const stt::DataflowSpec& spec :
       stt::enumerateDesignSpace(algebra, enumeration)) {
    try {
      (void)arch::generateAccelerator(spec, options.array, hw);
      return spec;
    } catch (const Error&) {
      continue;
    }
  }
  fail("no realizable design for " + algebra.str());
}

/// Raw and calibrated medians of one timed operation.
struct Timing {
  double rawMs = 0, scaledMs = 0;
};

/// Times `op` `reps` times, each run right after a calibration sample.
template <typename Op>
Timing timeCalibrated(int reps, double& fastestKernelMs, Op&& op) {
  std::vector<double> raw, scaled;
  for (int rep = 0; rep < reps; ++rep) {
    const double kernelMs = bench::calibrationMs(2);
    fastestKernelMs = std::min(fastestKernelMs, kernelMs);
    const auto t = Clock::now();
    op();
    raw.push_back(msSince(t));
    scaled.push_back(bench::atReferenceSpeed(raw.back(), kernelMs));
  }
  return {bench::median(raw), bench::median(scaled)};
}

struct ModelRtlReport {
  std::size_t layers = 0;
  std::int64_t cycles = 0;  ///< stitched schedule length (both engines)
  Timing build, compiled, legacy;
  double kernelMs = std::numeric_limits<double>::max();  ///< fastest
  double speedup() const { return legacy.rawMs / compiled.rawMs; }
};

ModelRtlReport benchModelRtl(int reps) {
  const tensor::NetworkSpec* network = tensor::workloads::findNetwork(kModel);
  if (network == nullptr) fail(std::string("missing builtin model ") + kModel);

  arch::ModelBuildOptions options;
  std::vector<std::pair<std::string, stt::DataflowSpec>> layerSpecs;
  for (const auto& layer : network->layers())
    layerSpecs.emplace_back(
        layer.name,
        firstRealizableSpec(layer.algebra, layer.allowAllUnicast, options));

  ModelRtlReport r;
  std::optional<arch::ModelAccelerator> built;
  r.build = timeCalibrated(reps, r.kernelMs, [&] {
    built.emplace(arch::buildModelAccelerator(layerSpecs, options));
  });
  const arch::ModelAccelerator& model = *built;

  std::vector<tensor::TensorEnv> envs;
  for (std::size_t l = 0; l < model.layers.size(); ++l)
    envs.push_back(
        tensor::makeRandomInputs(model.layers[l].acc.spec.algebra(), l + 1));
  const std::vector<tensor::DenseTensor> golden =
      arch::composedReference(model, envs);

  r.layers = model.layers.size();
  for (const hwir::SimEngine engine :
       {hwir::SimEngine::Compiled, hwir::SimEngine::Legacy}) {
    arch::ModelRunOptions runOptions;
    runOptions.engine = engine;
    arch::ModelRunResult run;
    const Timing timing = timeCalibrated(reps, r.kernelMs, [&] {
      run = arch::runModelAccelerator(model, envs, runOptions);
    });
    (engine == hwir::SimEngine::Compiled ? r.compiled : r.legacy) = timing;
    r.cycles = run.cyclesRun;
    // Element-exactness: the speed comparison is only meaningful while
    // both engines compute the same model.
    if (run.outputs.size() != golden.size())
      fail("stitched run returned the wrong layer count");
    for (std::size_t l = 0; l < golden.size(); ++l)
      if (golden[l].maxAbsDiff(run.outputs[l]) != 0.0)
        fail("stitched engine diverged from the composed reference at "
             "layer " +
             std::to_string(l));
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
    bench::printHeader(smoke ? "Stitched model RTL engines (smoke)"
                             : "Stitched model: build and compiled tape");
    const ModelRtlReport r = benchModelRtl(smoke ? 1 : kFullRepeats);
    std::printf(
        "  %s  build %.2f ms (%.2f raw, budget %.2f) | compiled %.2f ms "
        "(%.2f raw, budget %.2f) | legacy %.1f ms raw (%.2fx)\n"
        "  [medians of %d; ms at the reference host, where the calibration "
        "kernel takes %.1f ms (here %.2f ms, %u threads); %zu layers, %lld "
        "cycles, both engines element-exact vs composed reference]\n",
        kModel, r.build.scaledMs, r.build.rawMs, kGateMaxBuildMs,
        r.compiled.scaledMs, r.compiled.rawMs, kGateMaxCompiledMs,
        r.legacy.rawMs, r.speedup(), smoke ? 1 : kFullRepeats,
        bench::kCalibrationReferenceMs, r.kernelMs,
        std::thread::hardware_concurrency(), r.layers,
        static_cast<long long>(r.cycles));

    const bool buildPass = r.build.scaledMs <= kGateMaxBuildMs;
    const bool compiledPass = r.compiled.scaledMs <= kGateMaxCompiledMs;
    const bool pass = smoke || (buildPass && compiledPass);
    if (!smoke) {
      std::ostringstream line;
      line << "\"model_rtl\": {\"model\": \"" << kModel
           << "\", \"layers\": " << r.layers << ", \"cycles\": " << r.cycles
           << ", \"build_ms\": " << r.build.scaledMs
           << ", \"build_raw_ms\": " << r.build.rawMs
           << ", \"compiled_ms\": " << r.compiled.scaledMs
           << ", \"compiled_raw_ms\": " << r.compiled.rawMs
           << ", \"legacy_raw_ms\": " << r.legacy.rawMs
           << ", \"speedup\": " << r.speedup()
           << ", \"calibration_ms\": " << r.kernelMs
           << ", \"calibration_reference_ms\": "
           << bench::kCalibrationReferenceMs
           << ", \"nproc\": " << std::thread::hardware_concurrency()
           << ", \"repeats\": " << kFullRepeats
           << ", \"gate_max_build_ms\": " << kGateMaxBuildMs
           << ", \"gate_max_compiled_ms\": " << kGateMaxCompiledMs
           << ", \"pass\": " << (pass ? "true" : "false") << "}";
      bench::mergeJsonSection(out, "model_rtl", line.str());
      std::printf("  merged into %s\n", out.c_str());
    }

    if (!smoke && !buildPass)
      std::printf("  GATE FAIL: build %.2f ms > %.2f ms budget\n",
                  r.build.scaledMs, kGateMaxBuildMs);
    if (!smoke && !compiledPass)
      std::printf("  GATE FAIL: compiled %.2f ms > %.2f ms budget\n",
                  r.compiled.scaledMs, kGateMaxCompiledMs);
    return pass ? 0 : 1;
  } catch (const tensorlib::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
