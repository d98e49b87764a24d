// The per-stage reference the RTL stage templates are pinned to.
//
// This is the stage construction the testbench used before schedules were
// keyed by tile shape: every (outer-loop iteration, tile origin) stage
// builds its own tile trace with sim::buildTileTrace at the stage's real
// origin and outer iteration, resolves its ports, and carries absolute
// tensor elements. oracle::runAcceleratorFull drives a complete workload
// from these stages through a std::map-keyed stimulus, the way the
// single-accelerator testbench did.
//
// Nothing here shares the shift-by-offset path (templates per tile shape,
// per-stage element offsets), so a bug in that path cannot hide in both.
// CI greps this file to keep it that way.
#pragma once

#include <algorithm>
#include <map>
#include <vector>

#include "arch/testbench.hpp"
#include "hwir/rtlsim.hpp"
#include "sim/trace.hpp"
#include "support/error.hpp"
#include "tensor/reference.hpp"

namespace tensorlib::oracle {

using arch::chainId;
using arch::chainResidue;
using arch::chainsAlong;
using arch::GeneratedAccelerator;
using arch::HardwareConfig;
using arch::lineId;
using arch::PeCoord;
using arch::RtlRunResult;
using arch::stepsBetween;
using hwir::NodeId;
using hwir::RtlSimulator;

/// One stimulus entry of a stage: drive `port` at the stage-relative
/// `cycle`; data pokes carry input tensor `tensorIndex` at the absolute
/// `element`, valid pokes drive the constant 1.
struct SymbolicPoke {
  std::int64_t cycle = 0;
  hwir::NodeId port = 0;
  std::size_t tensorIndex = 0;
  linalg::IntVector element;
  bool isValid = false;
};

/// One output sample of a stage at the stage-relative `cycle`.
struct SymbolicSample {
  std::int64_t cycle = 0;
  hwir::NodeId port = 0;
  linalg::IntVector element;
};

/// The schedule of one controller stage with absolute elements.
struct StageSchedule {
  std::vector<SymbolicPoke> pokes;      ///< sorted by cycle, poke order kept
  std::vector<SymbolicSample> samples;  ///< sorted by cycle, order kept
  std::int64_t lastCycle = 0;  ///< last scheduled cycle incl. drain tail
  linalg::IntVector tileShape;   ///< this stage's (possibly remainder) tile
  linalg::IntVector tileOrigin;  ///< within the selected loops
  linalg::IntVector outerFixed;  ///< full-nest outer-loop iteration
};

inline std::uint64_t encode(double v, const HardwareConfig& cfg) {
  if (cfg.dataKind == hwir::DataKind::Float32)
    return RtlSimulator::encodeFloat(static_cast<float>(v));
  return RtlSimulator::encodeInt(static_cast<std::int64_t>(v), cfg.dataWidth);
}

inline double decode(std::uint64_t bits, const HardwareConfig& cfg) {
  if (cfg.dataKind == hwir::DataKind::Float32)
    return static_cast<double>(RtlSimulator::decodeFloat(bits));
  return static_cast<double>(RtlSimulator::decodeInt(bits, cfg.dataWidth));
}

struct Sample {
  NodeId port;
  linalg::IntVector element;
};

/// Per-cycle input pokes and output samples keyed by cycle, golden values
/// and the run length.
struct TbSchedule {
  std::map<std::int64_t, std::vector<std::pair<NodeId, std::uint64_t>>>
      stimulus;
  std::map<std::int64_t, std::vector<Sample>> samples;
  tensor::DenseTensor expected;
  std::int64_t lastCycle = 0;
};

/// Builds the symbolic schedule of ONE stage (one tile at one outer-loop
/// iteration). Cycles are stage-relative; resolving against an environment
/// at a base cycle reproduces the historical per-stage stimulus exactly
/// (stationary loads in resident-map order first, then injections in trace
/// order, then the per-class sampling plan).
inline StageSchedule buildStageScheduleFor(
    const GeneratedAccelerator& acc, const linalg::IntVector& shape,
    const linalg::IntVector& origin, const linalg::IntVector& outerFixed) {
  const auto& spec = acc.spec;
  const sim::TileTrace trace =
      sim::buildTileTrace(spec, shape, origin, outerFixed);
  const std::int64_t loadBase = 0;
  const std::int64_t computeBase = acc.loadCycles;
  const std::int64_t computeEnd = acc.loadCycles + acc.computeCycles;

  StageSchedule st;
  st.tileShape = shape;
  st.tileOrigin = origin;
  st.outerFixed = outerFixed;
  const auto& selIdx = spec.selection().indices();

  // Stationary-family tensors (incl. multicast+stationary): every PE holds
  // exactly one element for the whole pass; derive the PE -> element map
  // from the active points and feed the row load buses column by column.
  for (std::size_t i = 0; i + 1 < spec.tensors().size(); ++i) {
    const auto& bundle = acc.inputs[i];
    if (bundle.rowLoadPorts.empty()) continue;
    const auto& role = spec.tensors()[i];
    std::map<PeCoord, linalg::IntVector> resident;
    for (const auto& ap : trace.active) {
      linalg::IntVector x = outerFixed;
      for (std::size_t j = 0; j < 3; ++j)
        x[selIdx[j]] = origin[j] + ap.iteration[j];
      const linalg::IntVector element = role.fullAccess.evaluate(x);
      const PeCoord pe{ap.p1, ap.p2};
      const auto it = resident.find(pe);
      if (it == resident.end()) {
        resident.emplace(pe, element);
      } else {
        TL_CHECK(it->second == element,
                 "stationary tensor " + role.tensor +
                     " maps two elements to one PE");
      }
    }
    for (const auto& [pe, element] : resident) {
      st.pokes.push_back({loadBase + pe.p2, bundle.rowLoadPorts.at(pe.p1), i,
                          element, /*isValid=*/false});
      st.pokes.push_back({loadBase + pe.p2, bundle.rowLoadValidPorts.at(pe.p1),
                          i, element, /*isValid=*/true});
    }
  }

  for (const auto& inj : trace.injections) {
    const auto& bundle = acc.inputs[inj.tensorIndex];
    if (!bundle.rowLoadPorts.empty()) continue;  // handled above
    const PeCoord pe{inj.p1, inj.p2};
    const std::int64_t cycle = computeBase + inj.cycle;
    NodeId dataPort = 0, validPort = 0;

    switch (bundle.dataflowClass) {
      case stt::DataflowClass::Systolic:
      case stt::DataflowClass::Unicast: {
        dataPort = bundle.peDataPorts.at(pe);
        validPort = bundle.peValidPorts.at(pe);
        break;
      }
      case stt::DataflowClass::Multicast: {
        const std::int64_t line =
            lineId(pe, bundle.direction[0], bundle.direction[1]);
        dataPort = bundle.lineDataPorts.at(line);
        validPort = bundle.lineValidPorts.at(line);
        break;
      }
      case stt::DataflowClass::SystolicMulticast: {
        const std::int64_t line =
            lineId(pe, bundle.busDirection[0], bundle.busDirection[1]);
        dataPort = bundle.lineDataPorts.at(line);
        validPort = bundle.lineValidPorts.at(line);
        break;
      }
      case stt::DataflowClass::Broadcast2D:
      case stt::DataflowClass::FullReuse: {
        dataPort = bundle.lineDataPorts.at(0);
        validPort = bundle.lineValidPorts.at(0);
        break;
      }
      default:
        fail("testbench: unsupported input class");
    }
    st.pokes.push_back({cycle, dataPort, inj.tensorIndex, inj.element,
                        /*isValid=*/false});
    st.pokes.push_back({cycle, validPort, inj.tensorIndex, inj.element,
                        /*isValid=*/true});
  }

  // ---- Sampling plan: cycle -> (port, output element).
  const auto& out = acc.output;
  switch (out.dataflowClass) {
    case stt::DataflowClass::Stationary: {
      for (const auto& ev : trace.outputs) {
        // PE (p1,p2) drains through the row chain: it reaches the row port
        // after (p2Span-1 - p2) shifts, first visible at computeEnd+1.
        const std::int64_t cycle =
            computeEnd + 1 + (acc.grid.p2Span - 1 - ev.p2);
        st.samples.push_back({cycle, out.rowDrainPorts.at(ev.p1), ev.element});
      }
      break;
    }
    case stt::DataflowClass::Systolic: {
      const auto& step = out.direction;
      const auto chains = chainsAlong(acc.grid, step[0], step[1]);
      for (const auto& ev : trace.outputs) {
        const PeCoord pe{ev.p1, ev.p2};
        // Find the chain's exit PE and the hop count to it.
        const std::pair<std::int64_t, std::int64_t> key{
            lineId(pe, step[0], step[1]), chainResidue(pe, step[0], step[1])};
        const PeCoord exit = chains.at(key).back();
        const std::int64_t s = stepsBetween(pe, exit, step[0], step[1]);
        const std::int64_t cycle = computeBase + ev.cycle + (s + 1) * step[2];
        st.samples.push_back(
            {cycle, out.linePorts.at(chainId(exit, step[0], step[1])),
             ev.element});
      }
      break;
    }
    case stt::DataflowClass::Multicast: {
      for (const auto& ev : trace.outputs) {
        const std::int64_t line =
            lineId({ev.p1, ev.p2}, out.direction[0], out.direction[1]);
        st.samples.push_back(
            {computeBase + ev.cycle + 1, out.linePorts.at(line), ev.element});
      }
      break;
    }
    case stt::DataflowClass::Unicast: {
      for (const auto& ev : trace.outputs)
        st.samples.push_back({computeBase + ev.cycle + 1,
                              out.pePorts.at({ev.p1, ev.p2}), ev.element});
      break;
    }
    default:
      fail("testbench: unsupported output class");
  }

  // Normalize to per-cycle order (what the map-keyed schedule historically
  // produced): stable sort keeps poke/sample order within a cycle.
  std::stable_sort(st.pokes.begin(), st.pokes.end(),
                   [](const SymbolicPoke& a, const SymbolicPoke& b) {
                     return a.cycle < b.cycle;
                   });
  std::stable_sort(st.samples.begin(), st.samples.end(),
                   [](const SymbolicSample& a, const SymbolicSample& b) {
                     return a.cycle < b.cycle;
                   });

  st.lastCycle = computeEnd + acc.drainCycles;
  if (!st.samples.empty())
    st.lastCycle = std::max(st.lastCycle, st.samples.back().cycle);
  return st;
}

/// Resolves one symbolic stage against a tensor environment into the
/// concrete testbench schedule, offset to `baseCycle`.
inline void resolveStage(const GeneratedAccelerator& acc,
                         const tensor::TensorEnv& env, const StageSchedule& st,
                         std::int64_t baseCycle, TbSchedule& sched) {
  for (const auto& p : st.pokes) {
    const std::uint64_t bits =
        p.isValid
            ? 1
            : encode(env.at(acc.spec.tensors()[p.tensorIndex].tensor)
                         .at(p.element),
                     acc.config);
    sched.stimulus[baseCycle + p.cycle].push_back({p.port, bits});
  }
  for (const auto& s : st.samples)
    sched.samples[baseCycle + s.cycle].push_back({s.port, s.element});
  sched.lastCycle = std::max(sched.lastCycle, baseCycle + st.lastCycle);
}

/// Golden values of one stage: direct evaluation over the stage's tile box
/// (the active points of a tile trace are exactly the box).
inline void accumulateGolden(const GeneratedAccelerator& acc,
                             const tensor::TensorEnv& env,
                             const StageSchedule& st,
                             tensor::DenseTensor& expected) {
  const auto& spec = acc.spec;
  const auto& selIdx = spec.selection().indices();
  linalg::IntVector local(3, 0);
  while (true) {
    linalg::IntVector x = st.outerFixed;
    for (std::size_t j = 0; j < 3; ++j)
      x[selIdx[j]] = st.tileOrigin[j] + local[j];
    double prod = 1.0;
    for (const auto& role : spec.tensors()) {
      if (role.isOutput) continue;
      prod *= env.at(role.tensor).at(role.fullAccess.evaluate(x));
    }
    expected.at(spec.outputRole().fullAccess.evaluate(x)) += prod;

    std::size_t d = 3;
    bool done = false;
    while (d-- > 0) {
      if (++local[d] < st.tileShape[d]) break;
      local[d] = 0;
      if (d == 0) done = true;
    }
    if (done) break;
  }
}

/// Shared simulator loop over a prepared schedule.
inline RtlRunResult runSchedule(const GeneratedAccelerator& acc,
                                const TbSchedule& sched,
                                const arch::RtlRunOptions& options = {}) {
  RtlRunResult result;
  result.expected = sched.expected;
  result.collected = tensor::DenseTensor(
      acc.spec.algebra().tensorShape(acc.spec.algebra().output()));

  RtlSimulator sim(acc.netlist, options.engine);
  if (options.corruptTapeMasks) sim.corruptTapeMasksForTest();
  for (std::int64_t cycle = 0; cycle <= sched.lastCycle; ++cycle) {
    sim.clearInputs();
    const auto st = sched.stimulus.find(cycle);
    if (st != sched.stimulus.end())
      for (const auto& [port, bits] : st->second) sim.poke(port, bits);
    sim.evaluate();
    const auto sp = sched.samples.find(cycle);
    if (sp != sched.samples.end())
      for (const auto& s : sp->second)
        result.collected.at(s.element) += decode(sim.peek(s.port), acc.config);
    sim.step();
  }
  result.cyclesRun = sched.lastCycle + 1;
  result.maxAbsDiff = result.collected.maxAbsDiff(result.expected);
  return result;
}

/// Every stage of the complete workload in execution order, each built
/// from its own tile trace.
inline std::vector<StageSchedule> buildStageSchedules(
    const GeneratedAccelerator& acc) {
  const auto& spec = acc.spec;
  const auto& algebra = spec.algebra();
  const linalg::IntVector extents = spec.selection().extents();

  // Tile origins per selected loop.
  std::vector<std::vector<std::int64_t>> origins(3);
  for (std::size_t j = 0; j < 3; ++j)
    for (std::int64_t o = 0; o < extents[j]; o += acc.tileShape[j])
      origins[j].push_back(o);

  std::vector<StageSchedule> stages;
  const auto& outerIdx = spec.selection().outerIndices();
  linalg::IntVector outerFixed(algebra.loopCount(), 0);
  while (true) {
    for (std::int64_t o0 : origins[0])
      for (std::int64_t o1 : origins[1])
        for (std::int64_t o2 : origins[2]) {
          const linalg::IntVector origin{o0, o1, o2};
          linalg::IntVector shape(3);
          for (std::size_t j = 0; j < 3; ++j)
            shape[j] = std::min(acc.tileShape[j], extents[j] - origin[j]);
          stages.push_back(
              buildStageScheduleFor(acc, shape, origin, outerFixed));
        }
    bool done = outerIdx.empty();
    for (std::size_t d = outerIdx.size(); d-- > 0;) {
      if (++outerFixed[outerIdx[d]] < algebra.loops()[outerIdx[d]].extent)
        break;
      outerFixed[outerIdx[d]] = 0;
      if (d == 0) done = true;
    }
    if (done) break;
  }
  return stages;
}

/// The complete workload driven from the per-stage schedules.
inline RtlRunResult runAcceleratorFull(const GeneratedAccelerator& acc,
                                       const tensor::TensorEnv& env) {
  const auto& algebra = acc.spec.algebra();
  TbSchedule sched;
  sched.expected = tensor::DenseTensor(algebra.tensorShape(algebra.output()));

  const std::vector<StageSchedule> stages = oracle::buildStageSchedules(acc);
  for (std::size_t s = 0; s < stages.size(); ++s) {
    resolveStage(acc, env, stages[s],
                 static_cast<std::int64_t>(s) * acc.stagePeriod, sched);
    accumulateGolden(acc, env, stages[s], sched.expected);
  }
  // Run to the end of the last stage so final drains complete.
  sched.lastCycle = std::max(
      sched.lastCycle,
      static_cast<std::int64_t>(stages.size()) * acc.stagePeriod - 1);
  return runSchedule(acc, sched);
}

}  // namespace tensorlib::oracle
