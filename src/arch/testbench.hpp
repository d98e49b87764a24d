// RTL testbench: drives a generated accelerator through its LOAD/COMPUTE/
// DRAIN phases with the memory-access schedule derived from the STT
// analysis, samples the output ports, and checks the collected results
// against a direct software evaluation of the same tile.
//
// A complete workload runs one controller stage per (outer-loop
// iteration, tile origin). Stages of one tile shape differ only by a
// constant element offset per tensor, so the schedule is built once per
// shape (StageTemplate, from sim::TileTraceCache::base) and every stage is
// a template plus offsets (StageRef); consumers resolve
// template element + offset in place. The resolved stimulus and samples
// are indexed by cycle.
//
// This is the paper's verification loop (Chisel -> Verilog -> VCS simulation
// against a golden model) realized on the hwir netlist.
#pragma once

#include "arch/generator.hpp"
#include "hwir/rtlsim.hpp"
#include "tensor/reference.hpp"

namespace tensorlib::arch {

/// How the netlist is executed by the in-process testbench. The conformance
/// oracle (src/verify) runs the same schedule through both engines to
/// localize a defect to the compiled tape vs the legacy interpreter.
struct RtlRunOptions {
  hwir::SimEngine engine = hwir::SimEngine::Compiled;
  /// Fault-injection demo: corrupt the compiled tape's width masks before
  /// running (see RtlSimulator::corruptTapeMasksForTest). Legacy: no-op.
  bool corruptTapeMasks = false;
};

struct RtlRunResult {
  tensor::DenseTensor collected;  ///< what the ports produced
  tensor::DenseTensor expected;   ///< golden values for the same tile
  std::int64_t cyclesRun = 0;
  double maxAbsDiff = 0.0;
  bool matches() const { return maxAbsDiff == 0.0; }
};

/// One symbolic stimulus entry of a stage template: drive `port` at the
/// stage-relative `cycle`. Data pokes (isValid == false) carry input
/// tensor `tensorIndex` (index into spec.tensors(), label order) at the
/// template `element`; valid pokes drive the constant 1.
struct SymbolicPoke {
  std::int64_t cycle = 0;
  hwir::NodeId port = 0;
  std::size_t tensorIndex = 0;
  linalg::IntVector element;
  bool isValid = false;
};

/// One symbolic output sample: read `port` at the stage-relative `cycle`
/// and accumulate the decoded value into the template output `element`
/// (stages produce partial sums; the final value is the sum over all
/// stages that write the element).
struct SymbolicSample {
  std::int64_t cycle = 0;
  hwir::NodeId port = 0;
  linalg::IntVector element;
};

/// The environment-independent schedule of one tile SHAPE, laid out at
/// tile origin 0 and outer-loop iteration 0: which ports to poke / sample
/// at which stage-relative cycles, with which tensor elements. Port
/// resolution and the stationary-residence check run once per template.
struct StageTemplate {
  std::vector<SymbolicPoke> pokes;      ///< sorted by cycle, poke order kept
  std::vector<SymbolicSample> samples;  ///< sorted by cycle, order kept
  std::int64_t lastCycle = 0;  ///< last scheduled cycle incl. drain tail
  linalg::IntVector tileShape;  ///< full or remainder tile
};

/// One controller stage (one tile at one outer-loop iteration): a template
/// shifted to its tile. The stage pokes/samples element
/// `template element + offset[tensorIndex]` (the output is the last
/// tensor) at the template's ports and cycles. Access functions are
/// affine, so the shift is one constant per tensor
/// (sim::TileTraceCache::offsets), and because adding a constant keeps the
/// lexicographic order of elements, the trace's element grouping, and
/// with it the order of injections, pokes and samples, is the same as a
/// trace built at the stage's own origin.
struct StageRef {
  std::size_t templateIndex = 0;
  linalg::IntVector tileOrigin;  ///< within the selected loops
  linalg::IntVector outerFixed;  ///< full-nest outer-loop iteration
  std::vector<linalg::IntVector> offset;  ///< per spec.tensors() entry
};

/// Symbolic schedules for EVERY stage of the complete workload: one
/// template per distinct tile shape (at most 8 for 3 selected loops) and
/// one StageRef per (outer-loop iteration, tile origin) pair in execution
/// order. Stage s of runAcceleratorFull starts at cycle s * acc.stagePeriod;
/// resolving against a TensorEnv reproduces the testbench stimulus exactly,
/// and the model-level engine (arch/model.*) resolves chained tensors
/// against inter-layer buffers instead, so both execute bit-identically.
struct StageSchedules {
  std::vector<StageTemplate> templates;
  std::vector<StageRef> stages;
  const StageTemplate& templateOf(std::size_t stage) const {
    return templates[stages[stage].templateIndex];
  }
};

StageSchedules buildStageSchedules(const GeneratedAccelerator& acc);

/// Row-major flat index of `element + offset` in a tensor of `shape`,
/// without materializing the shifted element. Throws support::Error when
/// it falls outside the tensor.
std::size_t shiftedFlatIndex(const linalg::IntVector& shape,
                             const linalg::IntVector& element,
                             const linalg::IntVector& offset);

/// Runs one tile (origin 0, outer iterations 0) of the generated
/// accelerator against the tensor environment.
RtlRunResult runAcceleratorTile(const GeneratedAccelerator& acc,
                                const tensor::TensorEnv& env,
                                const RtlRunOptions& options = {});

/// Runs the COMPLETE workload at RTL: every tile at every outer-loop
/// iteration executes as one controller stage (the wrapping stage counter
/// reloads stationary buffers, clears accumulators and drains outputs
/// between tiles). The collected output is compared against the full
/// software reference. Requires the accelerator to be generated with
/// HardwareConfig::injectEverywhere (remainder tiles inject at interior
/// PEs). Runtime grows with tiles x stagePeriod; intended for small
/// verification workloads.
RtlRunResult runAcceleratorFull(const GeneratedAccelerator& acc,
                                const tensor::TensorEnv& env);

/// Emits a self-checking Verilog testbench for one tile of the generated
/// accelerator: applies the memory-system stimulus cycle by cycle, samples
/// the output ports at the scheduled cycles, compares against golden values
/// and prints PASS/FAIL — runnable under any Verilog simulator alongside
/// hwir::emitVerilog's design module.
std::string emitVerilogTestbench(const GeneratedAccelerator& acc,
                                 const tensor::TensorEnv& env);

}  // namespace tensorlib::arch
