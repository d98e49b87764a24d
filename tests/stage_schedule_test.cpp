// Differential test for the RTL stage templates: every stage that
// buildStageSchedules describes as (template, per-tensor offset) must
// resolve to exactly the pokes, samples and lastCycle that the per-stage
// construction in stage_oracle.hpp builds from a tile trace at the stage's
// real origin and outer iteration, in the same order. Full-workload runs
// driven by the two paths must collect, expect and run identically.
//
// Coverage: an every-60th sample of each allWorkloads() family (remainder
// tiles and multi-iteration outer loops included), every layer of the
// builtin models, and designs that the full-workload RTL run is known to
// get wrong (perfbench/golden/rtl_divergent.tsv): templates must reproduce
// their behaviour too, wrong or not.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>

#include "arch/model.hpp"
#include "stage_oracle.hpp"
#include "stt/enumerate.hpp"
#include "tensor/network.hpp"
#include "tensor/workloads.hpp"

namespace tensorlib::arch {
namespace {

namespace wl = tensor::workloads;

const stt::ArrayConfig kArray{4, 4, 320.0, 32.0, 2};

HardwareConfig fullRunHardware() {
  HardwareConfig hw;
  hw.injectEverywhere = true;
  return hw;
}

std::vector<stt::DataflowSpec> familySpecs(const wl::NamedWorkload& w) {
  stt::EnumerationOptions options;
  options.dropAllUnicast = !w.allowAllUnicast;
  return stt::enumerateDesignSpace(w.algebra, options);
}

linalg::IntVector shifted(const linalg::IntVector& element,
                          const linalg::IntVector& offset) {
  linalg::IntVector out = element;
  for (std::size_t k = 0; k < out.size(); ++k) out[k] += offset[k];
  return out;
}

std::string str(const linalg::IntVector& v) {
  std::ostringstream os;
  os << "(";
  for (std::size_t k = 0; k < v.size(); ++k) os << (k ? "," : "") << v[k];
  os << ")";
  return os.str();
}

/// The first difference between the resolved templates and the oracle's
/// per-stage schedules; empty when every stage matches exactly.
std::string firstMismatch(const StageSchedules& got,
                          const std::vector<oracle::StageSchedule>& want) {
  if (got.stages.size() != want.size())
    return "stage count " + std::to_string(got.stages.size()) + " vs " +
           std::to_string(want.size());
  for (std::size_t s = 0; s < want.size(); ++s) {
    const StageRef& ref = got.stages[s];
    const StageTemplate& st = got.templateOf(s);
    const oracle::StageSchedule& w = want[s];
    const std::string at = "stage " + std::to_string(s) + ": ";
    if (st.tileShape != w.tileShape) return at + "tile shape";
    if (ref.tileOrigin != w.tileOrigin) return at + "tile origin";
    if (ref.outerFixed != w.outerFixed) return at + "outer iteration";
    if (st.lastCycle != w.lastCycle) return at + "lastCycle";
    if (st.pokes.size() != w.pokes.size()) return at + "poke count";
    for (std::size_t i = 0; i < w.pokes.size(); ++i) {
      const SymbolicPoke& p = st.pokes[i];
      const oracle::SymbolicPoke& q = w.pokes[i];
      const linalg::IntVector element =
          shifted(p.element, ref.offset[p.tensorIndex]);
      if (p.cycle != q.cycle || p.port != q.port ||
          p.tensorIndex != q.tensorIndex || p.isValid != q.isValid ||
          element != q.element)
        return at + "poke " + std::to_string(i) + " element " + str(element) +
               " vs " + str(q.element);
    }
    if (st.samples.size() != w.samples.size()) return at + "sample count";
    for (std::size_t i = 0; i < w.samples.size(); ++i) {
      const SymbolicSample& p = st.samples[i];
      const oracle::SymbolicSample& q = w.samples[i];
      const linalg::IntVector element = shifted(p.element, ref.offset.back());
      if (p.cycle != q.cycle || p.port != q.port || element != q.element)
        return at + "sample " + std::to_string(i) + " element " +
               str(element) + " vs " + str(q.element);
    }
  }
  return "";
}

void expectFullRunMatchesOracle(const GeneratedAccelerator& acc,
                                const tensor::TensorEnv& env,
                                const std::string& what) {
  const RtlRunResult got = runAcceleratorFull(acc, env);
  const RtlRunResult want = oracle::runAcceleratorFull(acc, env);
  EXPECT_EQ(got.cyclesRun, want.cyclesRun) << what;
  EXPECT_EQ(got.collected.raw(), want.collected.raw()) << what;
  EXPECT_EQ(got.expected.raw(), want.expected.raw()) << what;
}

TEST(StageSchedules, MatchPerStageOracleOverWorkloadSample) {
  std::size_t designs = 0, remainderDesigns = 0, outerDesigns = 0;
  for (const auto& w : wl::allWorkloads()) {
    const auto specs = familySpecs(w);
    const tensor::TensorEnv env = tensor::makeRandomInputs(w.algebra, 1);
    for (std::size_t i = 0; i < specs.size(); i += 60) {
      std::optional<GeneratedAccelerator> acc;
      try {
        acc.emplace(generateAccelerator(specs[i], kArray, fullRunHardware()));
      } catch (const Error&) {
        continue;  // not realizable as a netlist
      }
      const std::string what = w.name + " #" + std::to_string(i) + " " +
                               specs[i].label();
      const StageSchedules got = buildStageSchedules(*acc);
      ASSERT_EQ(firstMismatch(got, oracle::buildStageSchedules(*acc)), "")
          << what;
      expectFullRunMatchesOracle(*acc, env, what);

      ++designs;
      if (got.templates.size() > 1) ++remainderDesigns;
      for (const StageRef& ref : got.stages)
        if (ref.outerFixed != got.stages.front().outerFixed) {
          ++outerDesigns;
          break;
        }
    }
  }
  EXPECT_GT(designs, 150u);
  EXPECT_GT(remainderDesigns, 0u);  // remainder tiles get their own template
  EXPECT_GT(outerDesigns, 0u);      // stages over several outer iterations
}

TEST(StageSchedules, MatchPerStageOracleForEveryBuiltinModelLayer) {
  for (const auto& network : wl::builtinNetworks()) {
    ModelBuildOptions options;
    HardwareConfig hw = options.hw;
    hw.injectEverywhere = true;
    std::vector<std::pair<std::string, stt::DataflowSpec>> layerSpecs;
    for (const auto& layer : network.layers()) {
      stt::EnumerationOptions enumeration;
      enumeration.dropAllUnicast = !layer.allowAllUnicast;
      for (const auto& spec :
           stt::enumerateDesignSpace(layer.algebra, enumeration)) {
        try {
          (void)generateAccelerator(spec, options.array, hw);
          layerSpecs.emplace_back(layer.name, spec);
          break;
        } catch (const Error&) {
        }
      }
    }
    ASSERT_EQ(layerSpecs.size(), network.layers().size()) << network.name();
    const ModelAccelerator model = buildModelAccelerator(layerSpecs, options);
    for (const ModelLayer& layer : model.layers)
      EXPECT_EQ(firstMismatch(layer.stages,
                              oracle::buildStageSchedules(layer.acc)),
                "")
          << network.name() << " layer " << layer.name;
  }
}

TEST(StageSchedules, MatchPerStageOracleOnKnownDivergentDesigns) {
  // (family, index into the family's enumerated list), one per family of
  // perfbench/golden/rtl_divergent.tsv.
  const std::pair<const char*, std::size_t> designs[] = {
      {"contraction3", 394}, {"conv2d", 3292},   {"conv2d-dilated", 1897},
      {"conv2d-strided", 3340}, {"depthwise", 1084}, {"ttmc", 1250}};
  for (const auto& [family, index] : designs) {
    const wl::NamedWorkload* w = wl::findWorkload(family);
    ASSERT_NE(w, nullptr) << family;
    const auto specs = familySpecs(*w);
    ASSERT_LT(index, specs.size()) << family;
    const std::string what = std::string(family) + " #" +
                             std::to_string(index) + " " +
                             specs[index].label();
    const GeneratedAccelerator acc =
        generateAccelerator(specs[index], kArray, fullRunHardware());
    EXPECT_EQ(firstMismatch(buildStageSchedules(acc),
                            oracle::buildStageSchedules(acc)),
              "")
        << what;
    expectFullRunMatchesOracle(acc, tensor::makeRandomInputs(w->algebra, 1),
                               what);
  }
}

}  // namespace
}  // namespace tensorlib::arch
