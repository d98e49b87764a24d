#include "arch/testbench.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "hwir/rtlsim.hpp"
#include "support/error.hpp"

namespace tensorlib::arch {

namespace {

using hwir::NodeId;
using hwir::RtlSimulator;

std::uint64_t encode(double v, const HardwareConfig& cfg) {
  if (cfg.dataKind == hwir::DataKind::Float32)
    return RtlSimulator::encodeFloat(static_cast<float>(v));
  return RtlSimulator::encodeInt(static_cast<std::int64_t>(v), cfg.dataWidth);
}

double decode(std::uint64_t bits, const HardwareConfig& cfg) {
  if (cfg.dataKind == hwir::DataKind::Float32)
    return static_cast<double>(RtlSimulator::decodeFloat(bits));
  return static_cast<double>(RtlSimulator::decodeInt(bits, cfg.dataWidth));
}

/// One scheduled output read: decode `port` into the output's flat
/// element `flat`.
struct Sample {
  NodeId port;
  std::size_t flat;
};

/// Everything a testbench (in-process or emitted Verilog) needs, indexed by
/// cycle 0..lastCycle: input pokes and output samples in schedule order,
/// plus golden values.
struct TbSchedule {
  std::vector<std::vector<std::pair<NodeId, std::uint64_t>>> stimulus;
  std::vector<std::vector<Sample>> samples;
  tensor::DenseTensor expected;
  std::int64_t lastCycle = 0;

  TbSchedule(const GeneratedAccelerator& acc, std::int64_t last)
      : stimulus(static_cast<std::size_t>(last + 1)),
        samples(static_cast<std::size_t>(last + 1)),
        expected(acc.spec.algebra().tensorShape(acc.spec.algebra().output())),
        lastCycle(last) {}
};

/// The environment's tensor per spec.tensors() entry (output: null).
std::vector<const tensor::DenseTensor*> inputTensors(
    const GeneratedAccelerator& acc, const tensor::TensorEnv& env) {
  std::vector<const tensor::DenseTensor*> inputs;
  for (const auto& role : acc.spec.tensors())
    inputs.push_back(role.isOutput ? nullptr : &env.at(role.tensor));
  return inputs;
}

/// Builds the template of one tile shape from its canonical trace (origin
/// 0, outer loops 0). Cycles are stage-relative: stationary loads in
/// resident-map order first, then injections in trace order, then the
/// per-class sampling plan.
StageTemplate buildStageTemplate(const GeneratedAccelerator& acc,
                                 const sim::TileTrace& trace,
                                 const linalg::IntVector& shape) {
  const auto& spec = acc.spec;
  const std::int64_t loadBase = 0;
  const std::int64_t computeBase = acc.loadCycles;
  const std::int64_t computeEnd = acc.loadCycles + acc.computeCycles;

  StageTemplate st;
  st.tileShape = shape;
  const auto& selIdx = spec.selection().indices();

  // Stationary-family tensors (incl. multicast+stationary): every PE holds
  // exactly one element for the whole pass; derive the PE -> element map
  // from the active points and feed the row load buses column by column.
  // Residence is shift-invariant, so checking the template checks every
  // stage of its shape.
  for (std::size_t i = 0; i + 1 < spec.tensors().size(); ++i) {
    const auto& bundle = acc.inputs[i];
    if (bundle.rowLoadPorts.empty()) continue;
    const auto& role = spec.tensors()[i];
    std::map<PeCoord, linalg::IntVector> resident;
    linalg::IntVector x(spec.algebra().loopCount(), 0);
    for (const auto& ap : trace.active) {
      for (std::size_t j = 0; j < 3; ++j) x[selIdx[j]] = ap.iteration[j];
      linalg::IntVector element = role.fullAccess.evaluate(x);
      const PeCoord pe{ap.p1, ap.p2};
      const auto it = resident.find(pe);
      if (it == resident.end()) {
        resident.emplace(pe, std::move(element));
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

  // Normalize to per-cycle order: stable sort keeps poke/sample order
  // within a cycle.
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

/// Resolves one stage (template + shift) against the environment's
/// tensors into the concrete testbench schedule, offset to `baseCycle`.
void resolveStage(const GeneratedAccelerator& acc,
                  const std::vector<const tensor::DenseTensor*>& inputs,
                  const StageTemplate& st, const StageRef& ref,
                  std::int64_t baseCycle, TbSchedule& sched) {
  for (const auto& p : st.pokes) {
    std::uint64_t bits = 1;
    if (!p.isValid) {
      const tensor::DenseTensor& t = *inputs[p.tensorIndex];
      bits = encode(t.raw()[shiftedFlatIndex(t.shape(), p.element,
                                             ref.offset[p.tensorIndex])],
                    acc.config);
    }
    sched.stimulus[static_cast<std::size_t>(baseCycle + p.cycle)].push_back(
        {p.port, bits});
  }
  const auto& outShape = sched.expected.shape();
  for (const auto& s : st.samples)
    sched.samples[static_cast<std::size_t>(baseCycle + s.cycle)].push_back(
        {s.port, shiftedFlatIndex(outShape, s.element, ref.offset.back())});
}

/// Template elements of every point of a tile box in row-major local
/// order: box[point][tensor]. Golden evaluation shifts them per stage.
using GoldenBox = std::vector<std::vector<linalg::IntVector>>;

GoldenBox buildGoldenBox(const stt::DataflowSpec& spec,
                         const linalg::IntVector& shape) {
  const auto& selIdx = spec.selection().indices();
  GoldenBox box;
  linalg::IntVector x(spec.algebra().loopCount(), 0);
  linalg::IntVector local(3, 0);
  while (true) {
    for (std::size_t j = 0; j < 3; ++j) x[selIdx[j]] = local[j];
    auto& point = box.emplace_back();
    for (const auto& role : spec.tensors())
      point.push_back(role.fullAccess.evaluate(x));

    std::size_t d = 3;
    bool done = false;
    while (d-- > 0) {
      if (++local[d] < shape[d]) break;
      local[d] = 0;
      if (d == 0) done = true;
    }
    if (done) break;
  }
  return box;
}

/// Golden values of one stage: direct evaluation over the stage's tile box
/// (the active points of a tile trace are exactly the box), inputs
/// multiplied in label order and points summed in row-major order.
void accumulateGolden(const std::vector<const tensor::DenseTensor*>& inputs,
                      const GoldenBox& box, const StageRef& ref,
                      tensor::DenseTensor& expected) {
  const std::size_t outSlot = inputs.size() - 1;
  for (const auto& point : box) {
    double prod = 1.0;
    for (std::size_t t = 0; t < outSlot; ++t)
      prod *= inputs[t]->raw()[shiftedFlatIndex(inputs[t]->shape(), point[t],
                                                ref.offset[t])];
    expected.raw()[shiftedFlatIndex(expected.shape(), point[outSlot],
                                    ref.offset[outSlot])] += prod;
  }
}

/// The canonical tile (origin 0, outer 0): every offset is zero.
StageRef canonicalStage(const GeneratedAccelerator& acc) {
  StageRef ref{0, linalg::IntVector(3, 0),
               linalg::IntVector(acc.spec.algebra().loopCount(), 0), {}};
  ref.offset = sim::TileTraceCache(acc.spec).offsets(ref.tileOrigin,
                                                     ref.outerFixed);
  return ref;
}

/// Single-tile schedule at origin 0 / outer 0 (the acc's own trace).
TbSchedule buildTbSchedule(const GeneratedAccelerator& acc,
                           const tensor::TensorEnv& env) {
  const StageTemplate st = buildStageTemplate(acc, acc.trace, acc.tileShape);
  const StageRef ref = canonicalStage(acc);
  const auto inputs = inputTensors(acc, env);
  TbSchedule sched(acc, st.lastCycle);
  resolveStage(acc, inputs, st, ref, 0, sched);
  accumulateGolden(inputs, buildGoldenBox(acc.spec, acc.tileShape), ref,
                   sched.expected);
  return sched;
}

/// Shared simulator loop over a prepared schedule.
RtlRunResult runSchedule(const GeneratedAccelerator& acc,
                         const TbSchedule& sched,
                         const RtlRunOptions& options = {}) {
  RtlRunResult result;
  result.expected = sched.expected;
  result.collected = tensor::DenseTensor(sched.expected.shape());
  auto& collected = result.collected.raw();

  RtlSimulator sim(acc.netlist, options.engine);
  if (options.corruptTapeMasks) sim.corruptTapeMasksForTest();
  for (std::int64_t cycle = 0; cycle <= sched.lastCycle; ++cycle) {
    const auto c = static_cast<std::size_t>(cycle);
    sim.clearInputs();
    for (const auto& [port, bits] : sched.stimulus[c]) sim.poke(port, bits);
    sim.evaluate();
    for (const auto& s : sched.samples[c])
      collected[s.flat] += decode(sim.peek(s.port), acc.config);
    sim.step();
  }
  result.cyclesRun = sched.lastCycle + 1;
  result.maxAbsDiff = result.collected.maxAbsDiff(result.expected);
  return result;
}

}  // namespace

std::size_t shiftedFlatIndex(const linalg::IntVector& shape,
                             const linalg::IntVector& element,
                             const linalg::IntVector& offset) {
  TL_CHECK(element.size() == shape.size() && offset.size() == shape.size(),
           "stage element rank does not match its tensor");
  std::int64_t flat = 0;
  for (std::size_t k = 0; k < shape.size(); ++k) {
    const std::int64_t v = element[k] + offset[k];
    TL_CHECK(v >= 0 && v < shape[k], "stage element outside its tensor");
    flat = flat * shape[k] + v;
  }
  return static_cast<std::size_t>(flat);
}

StageSchedules buildStageSchedules(const GeneratedAccelerator& acc) {
  const auto& spec = acc.spec;
  const auto& algebra = spec.algebra();
  const linalg::IntVector extents = spec.selection().extents();

  // Tile origins per selected loop.
  std::vector<std::vector<std::int64_t>> origins(3);
  for (std::size_t j = 0; j < 3; ++j)
    for (std::int64_t o = 0; o < extents[j]; o += acc.tileShape[j])
      origins[j].push_back(o);

  StageSchedules out;
  sim::TileTraceCache traces(spec);
  std::map<linalg::IntVector, std::size_t> templateIndex;
  const auto& outerIdx = spec.selection().outerIndices();
  linalg::IntVector outerFixed(algebra.loopCount(), 0);
  while (true) {
    for (std::int64_t o0 : origins[0])
      for (std::int64_t o1 : origins[1])
        for (std::int64_t o2 : origins[2]) {
          linalg::IntVector origin{o0, o1, o2};
          linalg::IntVector shape(3);
          for (std::size_t j = 0; j < 3; ++j)
            shape[j] = std::min(acc.tileShape[j], extents[j] - origin[j]);
          const auto [it, fresh] =
              templateIndex.emplace(shape, out.templates.size());
          if (fresh)  // the full tile's trace is the accelerator's own
            out.templates.push_back(buildStageTemplate(
                acc, shape == acc.tileShape ? acc.trace : traces.base(shape),
                shape));
          out.stages.push_back({it->second, origin, outerFixed,
                                traces.offsets(origin, outerFixed)});
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
  return out;
}

RtlRunResult runAcceleratorTile(const GeneratedAccelerator& acc,
                                const tensor::TensorEnv& env,
                                const RtlRunOptions& options) {
  return runSchedule(acc, buildTbSchedule(acc, env), options);
}

RtlRunResult runAcceleratorFull(const GeneratedAccelerator& acc,
                                const tensor::TensorEnv& env) {
  const StageSchedules schedules = buildStageSchedules(acc);
  const std::size_t stageCount = schedules.stages.size();

  // Run to the end of the last stage so final drains complete.
  std::int64_t lastCycle =
      static_cast<std::int64_t>(stageCount) * acc.stagePeriod - 1;
  for (std::size_t s = 0; s < stageCount; ++s)
    lastCycle = std::max(lastCycle,
                         static_cast<std::int64_t>(s) * acc.stagePeriod +
                             schedules.templateOf(s).lastCycle);

  TbSchedule sched(acc, lastCycle);
  const auto inputs = inputTensors(acc, env);
  std::vector<GoldenBox> boxes;
  for (const auto& st : schedules.templates)
    boxes.push_back(buildGoldenBox(acc.spec, st.tileShape));
  for (std::size_t s = 0; s < stageCount; ++s) {
    const StageRef& ref = schedules.stages[s];
    resolveStage(acc, inputs, schedules.templates[ref.templateIndex], ref,
                 static_cast<std::int64_t>(s) * acc.stagePeriod, sched);
    accumulateGolden(inputs, boxes[ref.templateIndex], ref, sched.expected);
  }
  return runSchedule(acc, sched);
}

std::string emitVerilogTestbench(const GeneratedAccelerator& acc,
                                 const tensor::TensorEnv& env) {
  const TbSchedule sched = buildTbSchedule(acc, env);
  const hwir::Netlist& n = acc.netlist;

  std::ostringstream os;
  os << "// Self-checking testbench generated by TensorLib-cpp for "
     << n.name() << "\n";
  os << "`timescale 1ns/1ps\n";
  os << "module tb_" << n.name() << ";\n";
  os << "  reg clk = 1'b0;\n  always #5 clk = ~clk;\n";
  os << "  integer errors = 0;\n\n";
  for (NodeId id : n.inputs()) {
    const auto& nd = n.node(id);
    os << "  reg " << (nd.width > 1 ? "[" + std::to_string(nd.width - 1) + ":0] " : "")
       << nd.name << " = 0;\n";
  }
  for (NodeId id : n.outputs()) {
    const auto& nd = n.node(id);
    os << "  wire " << (nd.width > 1 ? "[" + std::to_string(nd.width - 1) + ":0] " : "")
       << nd.name << ";\n";
  }
  os << "\n  " << n.name() << " dut (\n    .clk(clk)";
  for (NodeId id : n.inputs())
    os << ",\n    ." << n.node(id).name << "(" << n.node(id).name << ")";
  for (NodeId id : n.outputs())
    os << ",\n    ." << n.node(id).name << "(" << n.node(id).name << ")";
  os << "\n  );\n\n  initial begin\n";

  for (std::int64_t cycle = 0; cycle <= sched.lastCycle; ++cycle) {
    os << "    // cycle " << cycle << "\n";
    // Default-drive every input low, then apply the cycle's stimulus.
    for (NodeId id : n.inputs()) os << "    " << n.node(id).name << " = 0;\n";
    const auto c = static_cast<std::size_t>(cycle);
    for (const auto& [port, bits] : sched.stimulus[c])
      os << "    " << n.node(port).name << " = " << n.node(port).width
         << "'h" << std::hex << bits << std::dec << ";\n";
    if (!sched.samples[c].empty()) {
      os << "    #4;\n";  // sample just before the latching edge
      for (const auto& s : sched.samples[c]) {
        const std::uint64_t expect =
            encode(sched.expected.raw()[s.flat], acc.config);
        const auto& port = n.node(s.port);
        os << "    if (" << port.name << " !== " << port.width << "'h"
           << std::hex << expect << std::dec << ") begin errors = errors + 1; "
           << "$display(\"MISMATCH cycle " << cycle << " port " << port.name
           << ": got %h\", " << port.name << "); end\n";
      }
      os << "    #6;\n";
    } else {
      os << "    #10;\n";
    }
  }
  os << "    if (errors == 0) $display(\"TB PASS\");\n";
  os << "    else $display(\"TB FAIL: %0d mismatches\", errors);\n";
  os << "    $finish;\n  end\nendmodule\n";
  return os.str();
}

}  // namespace tensorlib::arch
