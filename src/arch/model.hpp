// Model-level hardware generation: stitch per-layer accelerators into ONE
// emitted top with inter-layer buffers and execute the whole model through
// the compiled RTL tape.
//
// NetworkExplorer picks a dataflow per layer; this module turns that
// assignment into executable hardware. Every layer's accelerator netlist is
// instantiated into a single merged netlist (hwir::Netlist::instantiate),
// so one RtlSimulator — one compiled evaluation tape — clocks all layers
// concurrently. Between adjacent layers sits a double-buffered SRAM queue
// model: the producer's drained output elements land in the buffer, the
// consumer's memory schedule reads them back, and a full buffer exerts
// back-pressure by stalling the producer's controller for whole stage slots
// (controllers free-run with period stagePeriod, so stalls are quantized to
// stage boundaries — a bubble stage injects nothing and samples nothing).
//
// The stitching contract (docs/ARCHITECTURE.md "Model stitching") is:
//   * the consumer's chained input is its algebra's FIRST input tensor
//     (the activation, by workload convention);
//   * shapes connect by index-embedding (same rank, every consumer extent
//     >= the producer's; out-of-range reads are zero halo) or by row-major
//     flat embedding (consumer element count >= producer's; the tail is
//     zero) — chainRule() below;
//   * values crossing a buffer are requantized to signed 8 bits (exact
//     two's-complement wrap), like real accelerators requantize
//     activations between layers; this also keeps deep compositions inside
//     the datapath width. The composed dense reference applies the same
//     requantization, so model execution is element-exact, not approximate.
//
// Buffer depths come from an abstract run of the same stage scheduler the
// engine uses (planModelSchedule with unbounded capacities): the recorded
// peak occupancy is sufficient by construction — the bounded engine
// replays the identical schedule — and minimal-ish (tests show depth-1
// deadlocks on a constructed producer/consumer pair).
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "arch/testbench.hpp"

namespace tensorlib::arch {

/// How a consumer layer's chained input connects to its producer's output.
enum class ChainKind {
  Exact,      ///< identical shapes
  Embed,      ///< same rank, consumer extents >= producer's (zero halo)
  FlatExact,  ///< equal element counts, row-major reinterpretation
  FlatEmbed,  ///< consumer count > producer's, row-major prefix + zero tail
};

const char* chainKindName(ChainKind kind);

struct ChainRule {
  ChainKind kind = ChainKind::Exact;
  linalg::IntVector producerShape;
  linalg::IntVector consumerShape;
};

/// The stitching contract: how a producer output of shape `producer` feeds
/// a consumer input of shape `consumer`. nullopt when the pair is not
/// stitchable (neither embedding applies).
std::optional<ChainRule> chainRule(const linalg::IntVector& producer,
                                   const linalg::IntVector& consumer);

/// Maps a consumer-input element to the producer-output element feeding
/// it; nullopt for zero-filled positions (halo / flat tail).
std::optional<linalg::IntVector> chainSource(const ChainRule& rule,
                                             const linalg::IntVector& element);

/// Inter-layer requantization: exact signed-8-bit two's-complement wrap,
/// applied to every value crossing a buffer (engine and reference alike).
double requantize(double v);

/// One layer of a stitched model accelerator.
struct ModelLayer {
  std::string name;
  GeneratedAccelerator acc;
  /// Full-workload symbolic schedule: one template per tile shape, each
  /// stage a template plus per-tensor element offsets. The planner reads
  /// template lastCycles; link tables and the engine resolve elements as
  /// template element + offset, chained ones through the chain rule.
  StageSchedules stages;
  hwir::NodeId nodeOffset = 0;        ///< this layer's offset in the top
  std::string chainedTensor;          ///< fed from upstream; empty: layer 0
  std::optional<ChainRule> chain;     ///< engaged iff chainedTensor set
};

/// The committed size of one inter-layer buffer (in output elements).
struct BufferPlan {
  std::int64_t capacity = 0;  ///< committed depth the engine enforces
  std::int64_t peak = 0;      ///< planner peak occupancy (sufficient depth)
  std::int64_t producerElements = 0;  ///< distinct elements ever written
};

/// A whole model stitched into one netlist, ready for one RtlSimulator.
struct ModelAccelerator {
  hwir::Netlist top;
  std::vector<ModelLayer> layers;
  std::vector<BufferPlan> buffers;  ///< layers.size() - 1 entries

  explicit ModelAccelerator(std::string topName) : top(std::move(topName)) {}
};

struct ModelBuildOptions {
  stt::ArrayConfig array{4, 4, 320.0, 32.0, 2};
  /// injectEverywhere is forced on (multi-tile full runs need it).
  HardwareConfig hw{32, hwir::DataKind::Bits, true};
  std::string topName = "model_top";
  /// Per-buffer depth override (elements); entries <= 0 (or a short/empty
  /// vector) fall back to the planner's peak. Tests use this to prove
  /// depth-1 deadlocks.
  std::vector<std::int64_t> bufferDepthOverride;
};

/// Generates one accelerator per layer spec, derives the chain rules,
/// merges the netlists into one top and sizes the inter-layer buffers.
/// Throws support::Error for non-stitchable adjacent shapes or a spec the
/// netlist generator cannot realize (rank-2 outputs etc.).
ModelAccelerator buildModelAccelerator(
    const std::vector<std::pair<std::string, stt::DataflowSpec>>& layerSpecs,
    const ModelBuildOptions& options);

/// The abstract stage schedule of a stitched model: when every layer stage
/// starts, quantized to each layer's own controller period.
struct ModelSchedulePlan {
  /// Start cycle of each (layer, stage), always a multiple of that layer's
  /// stagePeriod.
  std::vector<std::vector<std::int64_t>> stageStart;
  std::vector<std::int64_t> peaks;  ///< per-buffer peak occupancy observed
  std::int64_t totalCycles = 0;     ///< cycles the stitched run occupies
  std::int64_t stallSlots = 0;      ///< bubble slots from deps/back-pressure
};

/// Runs the engine's stage scheduler abstractly (no RTL): stages start at
/// their layer's period boundaries once their chained-input dependencies
/// are complete and the downstream buffer has room. `capacities` bounds
/// each buffer (empty = unbounded, recording the sufficient peaks). Throws
/// support::Error naming the blocking buffer on deadlock.
ModelSchedulePlan planModelSchedule(const ModelAccelerator& model,
                                    const std::vector<std::int64_t>& capacities);

struct ModelRunOptions {
  hwir::SimEngine engine = hwir::SimEngine::Compiled;
  /// Fault injection: corrupt the compiled tape's width masks (no-op for
  /// Legacy) so the model oracle must localize the divergence.
  bool corruptTapeMasks = false;
};

struct ModelRunResult {
  /// Per-layer collected outputs (raw accumulated values, before any
  /// downstream requantization), network order.
  std::vector<tensor::DenseTensor> outputs;
  /// Cycle each output element was last sampled at (divergence reports).
  std::vector<tensor::DenseTensor> lastSampleCycle;
  std::int64_t cyclesRun = 0;
  std::int64_t stallSlots = 0;
};

/// Executes the stitched top cycle by cycle under ONE simulator: resolves
/// every layer's scheduled pokes (chained tensors read the inter-layer
/// buffer through the chain rule + requantization; everything else reads
/// `envs`), samples the scheduled outputs, and enforces the committed
/// buffer capacities. `envs` holds each layer's input tensors (the chained
/// entry, if present, is ignored). Throws support::Error on deadlock.
ModelRunResult runModelAccelerator(const ModelAccelerator& model,
                                   const std::vector<tensor::TensorEnv>& envs,
                                   const ModelRunOptions& options = {});

/// The composed dense reference the stitched execution must match
/// element-exactly: layer by layer, referenceExecute with the chained
/// input rebuilt from the previous golden output through the same chain
/// rule and requantization the hardware applies.
std::vector<tensor::DenseTensor> composedReference(
    const ModelAccelerator& model, const std::vector<tensor::TensorEnv>& envs);

}  // namespace tensorlib::arch
