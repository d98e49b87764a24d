#include "arch/model.hpp"

#include <algorithm>
#include <limits>

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

std::int64_t elementCount(const linalg::IntVector& shape) {
  std::int64_t n = 1;
  for (const std::int64_t e : shape) n *= e;
  return n;
}

std::int64_t flatIndex(const linalg::IntVector& shape,
                       const linalg::IntVector& index) {
  std::int64_t flat = 0;
  for (std::size_t d = 0; d < shape.size(); ++d)
    flat = flat * shape[d] + index[d];
  return flat;
}

linalg::IntVector unflatten(const linalg::IntVector& shape, std::int64_t flat) {
  linalg::IntVector index(shape.size(), 0);
  for (std::size_t d = shape.size(); d-- > 0;) {
    index[d] = flat % shape[d];
    flat /= shape[d];
  }
  return index;
}

/// The producer-output flat index feeding the consumer's chained-input
/// element `element + offset` (chainSource followed by flatIndex over the
/// producer shape, without materializing either element); -1 for
/// zero-filled positions (halo / flat tail).
std::int64_t chainSourceFlat(const ChainRule& rule,
                             const linalg::IntVector& element,
                             const linalg::IntVector& offset) {
  const auto flat = static_cast<std::int64_t>(
      shiftedFlatIndex(rule.consumerShape, element, offset));
  if (rule.kind != ChainKind::Embed)
    return flat < elementCount(rule.producerShape) ? flat : -1;
  std::int64_t src = 0;
  for (std::size_t d = 0; d < element.size(); ++d) {
    const std::int64_t v = element[d] + offset[d];
    if (v >= rule.producerShape[d]) return -1;
    src = src * rule.producerShape[d] + v;
  }
  return src;
}

/// Index of the layer's chained tensor in spec.tensors(); npos for layer 0.
std::size_t chainedTensorIndex(const ModelLayer& layer) {
  const auto& tensors = layer.acc.spec.tensors();
  for (std::size_t i = 0; i < tensors.size(); ++i)
    if (!tensors[i].isOutput && tensors[i].tensor == layer.chainedTensor)
      return i;
  return std::string::npos;
}

/// Structural producer/consumer linkage of one inter-layer buffer, derived
/// purely from the two layers' symbolic stage schedules: which elements
/// each producer stage first/last writes, which producer stage each
/// consumer stage needs completed, and when storage can be released. The
/// planner and the engine share these tables, which is what makes the
/// planner's peak occupancy a sufficient capacity by construction.
struct LinkTables {
  std::vector<std::int64_t> allocAtStart;        ///< [producer stage]
  std::vector<std::int64_t> freeAtProducerDone;  ///< [producer stage]
  std::vector<std::int64_t> freeAtConsumerDone;  ///< [consumer stage]
  /// Highest producer stage whose outputs the consumer stage reads
  /// (through the chain rule); -1 when the stage reads only halo/zeros.
  std::vector<std::int64_t> needStage;           ///< [consumer stage]
  std::int64_t producerElements = 0;
};

LinkTables buildLinkTables(const ModelLayer& producer,
                           const ModelLayer& consumer) {
  const ChainRule& rule = *consumer.chain;
  const std::int64_t total = elementCount(rule.producerShape);
  const StageSchedules& produced = producer.stages;
  const StageSchedules& consumed = consumer.stages;

  LinkTables t;
  t.allocAtStart.assign(produced.stages.size(), 0);
  t.freeAtProducerDone.assign(produced.stages.size(), 0);
  t.freeAtConsumerDone.assign(consumed.stages.size(), 0);
  t.needStage.assign(consumed.stages.size(), -1);

  std::vector<std::int64_t> firstWriter(total, -1), lastWriter(total, -1),
      lastReader(total, -1);
  for (std::size_t s = 0; s < produced.stages.size(); ++s) {
    const linalg::IntVector& offset = produced.stages[s].offset.back();
    for (const auto& sample : produced.templateOf(s).samples) {
      const std::size_t flat =
          shiftedFlatIndex(rule.producerShape, sample.element, offset);
      if (firstWriter[flat] < 0) {
        firstWriter[flat] = static_cast<std::int64_t>(s);
        ++t.allocAtStart[s];
      }
      lastWriter[flat] = static_cast<std::int64_t>(s);
    }
  }

  const std::size_t chained = chainedTensorIndex(consumer);
  for (std::size_t s = 0; s < consumed.stages.size(); ++s) {
    const linalg::IntVector& offset = consumed.stages[s].offset[chained];
    for (const auto& poke : consumed.templateOf(s).pokes) {
      if (poke.isValid || poke.tensorIndex != chained) continue;
      const std::int64_t flat = chainSourceFlat(rule, poke.element, offset);
      if (flat < 0) continue;              // zero halo / flat tail
      if (lastWriter[flat] < 0) continue;  // never written: final zero
      t.needStage[s] = std::max(t.needStage[s], lastWriter[flat]);
      lastReader[flat] = static_cast<std::int64_t>(s);
    }
  }

  for (std::int64_t flat = 0; flat < total; ++flat) {
    if (firstWriter[flat] < 0) continue;
    ++t.producerElements;
    if (lastReader[flat] >= 0)
      ++t.freeAtConsumerDone[lastReader[flat]];
    else
      ++t.freeAtProducerDone[lastWriter[flat]];
  }
  return t;
}

std::vector<LinkTables> buildAllLinks(const ModelAccelerator& model) {
  std::vector<LinkTables> links;
  for (std::size_t l = 0; l + 1 < model.layers.size(); ++l)
    links.push_back(buildLinkTables(model.layers[l], model.layers[l + 1]));
  return links;
}

/// The shared stage scheduler (see planModelSchedule). Deterministic and
/// value-independent: decisions depend only on the structural link tables,
/// so an abstract (planner) run and the RTL engine produce the same
/// schedule for the same capacities.
ModelSchedulePlan schedule(const ModelAccelerator& model,
                           const std::vector<LinkTables>& links,
                           const std::vector<std::int64_t>& capacities) {
  const std::size_t L = model.layers.size();
  const bool bounded = !capacities.empty();
  TL_CHECK(!bounded || capacities.size() + 1 == L || L == 1,
           "planModelSchedule: capacity list does not match buffer count");

  struct LayerState {
    std::size_t nextStage = 0;
    std::int64_t slotFreeAt = 0;  ///< this layer's controller slot boundary
    std::size_t donePrefix = 0;   ///< completed stages 0..donePrefix-1
    std::vector<bool> done;
    /// (completion cycle, stage): completion = last scheduled cycle + 1.
    std::vector<std::pair<std::int64_t, std::size_t>> pending;
  };
  std::vector<LayerState> state(L);
  ModelSchedulePlan plan;
  plan.stageStart.resize(L);
  plan.peaks.assign(L > 0 ? L - 1 : 0, 0);
  std::vector<std::int64_t> occ(L > 0 ? L - 1 : 0, 0);
  for (std::size_t l = 0; l < L; ++l) {
    state[l].done.assign(model.layers[l].stages.stages.size(), false);
    plan.stageStart[l].assign(model.layers[l].stages.stages.size(), -1);
  }

  const auto depsOk = [&](std::size_t l) {
    if (l == 0) return true;
    const std::int64_t need = links[l - 1].needStage[state[l].nextStage];
    return need < 0 ||
           state[l - 1].donePrefix > static_cast<std::size_t>(need);
  };
  const auto capOk = [&](std::size_t l) {
    if (!bounded || l + 1 >= L) return true;
    return occ[l] + links[l].allocAtStart[state[l].nextStage] <= capacities[l];
  };

  std::int64_t now = 0;
  std::int64_t maxCycle = 0;
  while (true) {
    // Completions due at `now`: mark stages done, release buffer storage.
    for (std::size_t l = 0; l < L; ++l) {
      auto& st = state[l];
      for (std::size_t i = 0; i < st.pending.size();) {
        if (st.pending[i].first > now) {
          ++i;
          continue;
        }
        const std::size_t stage = st.pending[i].second;
        st.done[stage] = true;
        if (l > 0) occ[l - 1] -= links[l - 1].freeAtConsumerDone[stage];
        if (l + 1 < L) occ[l] -= links[l].freeAtProducerDone[stage];
        st.pending.erase(st.pending.begin() + static_cast<std::ptrdiff_t>(i));
      }
      while (st.donePrefix < st.done.size() && st.done[st.donePrefix])
        ++st.donePrefix;
    }

    // Starts at `now`, in layer order (deterministic): a stage starts only
    // on its own controller's slot boundary, with its chained dependencies
    // complete and room in the downstream buffer. Otherwise the slot is a
    // bubble: the free-running controller cycles through an inert stage.
    for (std::size_t l = 0; l < L; ++l) {
      auto& st = state[l];
      const std::int64_t period = model.layers[l].acc.stagePeriod;
      if (st.nextStage >= st.done.size()) continue;
      if (now < st.slotFreeAt || now % period != 0) continue;
      if (!depsOk(l) || !capOk(l)) continue;
      const std::size_t stage = st.nextStage;
      plan.stageStart[l][stage] = now;
      if (l + 1 < L) {
        occ[l] += links[l].allocAtStart[stage];
        plan.peaks[l] = std::max(plan.peaks[l], occ[l]);
      }
      const std::int64_t lastCycle =
          model.layers[l].stages.templateOf(stage).lastCycle;
      st.pending.push_back({now + lastCycle + 1, stage});
      maxCycle = std::max(maxCycle, now + lastCycle);
      st.slotFreeAt = now + period;
      ++st.nextStage;
    }

    bool allDone = true;
    for (const auto& st : state)
      if (st.nextStage < st.done.size() || !st.pending.empty()) allDone = false;
    if (allDone) break;

    // Next event: the earliest pending completion, or the next slot
    // boundary of a layer that is startable apart from alignment.
    std::int64_t next = std::numeric_limits<std::int64_t>::max();
    for (const auto& st : state)
      for (const auto& [at, stage] : st.pending) {
        (void)stage;
        next = std::min(next, at);
      }
    for (std::size_t l = 0; l < L; ++l) {
      const auto& st = state[l];
      if (st.nextStage >= st.done.size()) continue;
      if (!depsOk(l) || !capOk(l)) continue;
      const std::int64_t period = model.layers[l].acc.stagePeriod;
      const std::int64_t earliest = std::max(st.slotFreeAt, now + 1);
      const std::int64_t boundary = (earliest + period - 1) / period * period;
      next = std::min(next, boundary);
    }
    if (next == std::numeric_limits<std::int64_t>::max()) {
      // No pending completion and no startable layer: nothing will ever
      // change state again. Name the first blocked layer and why.
      for (std::size_t l = 0; l < L; ++l) {
        const auto& st = state[l];
        if (st.nextStage >= st.done.size()) continue;
        if (!capOk(l))
          fail("model execution deadlocked: inter-layer buffer " +
               std::to_string(l) + " (capacity " +
               std::to_string(capacities[l]) + ", occupancy " +
               std::to_string(occ[l]) + ") cannot admit stage " +
               std::to_string(st.nextStage) + " of layer '" +
               model.layers[l].name + "' (allocates " +
               std::to_string(links[l].allocAtStart[st.nextStage]) +
               " elements)");
        fail("model execution deadlocked: layer '" + model.layers[l].name +
             "' stage " + std::to_string(st.nextStage) +
             " waits on producer '" + model.layers[l - 1].name +
             "' which cannot progress");
      }
      fail("model execution deadlocked");
    }
    now = next;
  }

  plan.totalCycles = maxCycle + 1;
  for (std::size_t l = 0; l < L; ++l) {
    const auto& starts = plan.stageStart[l];
    if (starts.empty()) continue;
    const std::int64_t period = model.layers[l].acc.stagePeriod;
    plan.stallSlots += starts.back() / period + 1 -
                       static_cast<std::int64_t>(starts.size());
  }
  return plan;
}

std::vector<std::int64_t> committedCapacities(const ModelAccelerator& model) {
  std::vector<std::int64_t> caps;
  for (const auto& plan : model.buffers) caps.push_back(plan.capacity);
  return caps;
}

/// Rebuilds the consumer's chained input tensor from a producer output
/// through the chain rule + requantization (the reference-side half of the
/// stitching contract).
tensor::DenseTensor mapChainedInput(const ChainRule& rule,
                                    const tensor::DenseTensor& producerOut) {
  tensor::DenseTensor mapped(rule.consumerShape);
  const std::int64_t total = elementCount(rule.consumerShape);
  for (std::int64_t flat = 0; flat < total; ++flat) {
    const linalg::IntVector element = unflatten(rule.consumerShape, flat);
    const auto src = chainSource(rule, element);
    mapped.at(element) = src ? requantize(producerOut.at(*src)) : 0.0;
  }
  return mapped;
}

}  // namespace

const char* chainKindName(ChainKind kind) {
  switch (kind) {
    case ChainKind::Exact: return "exact";
    case ChainKind::Embed: return "embed";
    case ChainKind::FlatExact: return "flat-exact";
    case ChainKind::FlatEmbed: return "flat-embed";
  }
  return "?";
}

std::optional<ChainRule> chainRule(const linalg::IntVector& producer,
                                   const linalg::IntVector& consumer) {
  if (producer.size() == consumer.size()) {
    bool ge = true, eq = true;
    for (std::size_t d = 0; d < producer.size(); ++d) {
      if (consumer[d] < producer[d]) ge = false;
      if (consumer[d] != producer[d]) eq = false;
    }
    if (ge)
      return ChainRule{eq ? ChainKind::Exact : ChainKind::Embed, producer,
                       consumer};
  }
  const std::int64_t pCount = elementCount(producer);
  const std::int64_t cCount = elementCount(consumer);
  if (cCount >= pCount)
    return ChainRule{cCount == pCount ? ChainKind::FlatExact
                                      : ChainKind::FlatEmbed,
                     producer, consumer};
  return std::nullopt;
}

std::optional<linalg::IntVector> chainSource(const ChainRule& rule,
                                             const linalg::IntVector& element) {
  switch (rule.kind) {
    case ChainKind::Exact:
      return element;
    case ChainKind::Embed:
      for (std::size_t d = 0; d < element.size(); ++d)
        if (element[d] >= rule.producerShape[d]) return std::nullopt;
      return element;
    case ChainKind::FlatExact:
    case ChainKind::FlatEmbed: {
      const std::int64_t flat = flatIndex(rule.consumerShape, element);
      if (flat >= elementCount(rule.producerShape)) return std::nullopt;
      return unflatten(rule.producerShape, flat);
    }
  }
  return std::nullopt;
}

double requantize(double v) {
  const std::int64_t iv = static_cast<std::int64_t>(v);
  std::int64_t m = (iv + 128) % 256;
  if (m < 0) m += 256;
  return static_cast<double>(m - 128);
}

ModelAccelerator buildModelAccelerator(
    const std::vector<std::pair<std::string, stt::DataflowSpec>>& layerSpecs,
    const ModelBuildOptions& options) {
  TL_CHECK(!layerSpecs.empty(), "model accelerator needs at least one layer");
  HardwareConfig hw = options.hw;
  hw.injectEverywhere = true;  // remainder tiles need interior injection

  ModelAccelerator model(options.topName);
  for (const auto& [name, spec] : layerSpecs) {
    ModelLayer layer{name, generateAccelerator(spec, options.array, hw),
                     {},   0,
                     {},   std::nullopt};
    layer.stages = buildStageSchedules(layer.acc);
    model.layers.push_back(std::move(layer));
  }

  // Derive the chain rules before stitching so a non-stitchable model
  // fails fast with shapes in the message.
  for (std::size_t l = 1; l < model.layers.size(); ++l) {
    const auto& prevAlgebra = model.layers[l - 1].acc.spec.algebra();
    const auto& algebra = model.layers[l].acc.spec.algebra();
    TL_CHECK(!algebra.inputs().empty(),
             "layer '" + model.layers[l].name + "' has no input to chain");
    const linalg::IntVector producerShape =
        prevAlgebra.tensorShape(prevAlgebra.output());
    const linalg::IntVector consumerShape =
        algebra.tensorShape(algebra.inputs()[0]);
    const auto rule = chainRule(producerShape, consumerShape);
    TL_CHECK(rule.has_value(),
             "layers '" + model.layers[l - 1].name + "' -> '" +
                 model.layers[l].name +
                 "' are not stitchable: producer output does not embed in "
                 "the consumer's first input");
    model.layers[l].chainedTensor = algebra.inputs()[0].tensor;
    model.layers[l].chain = rule;
  }

  for (auto& layer : model.layers)
    layer.nodeOffset = model.top.instantiate(layer.acc.netlist, layer.name);
  model.top.validate();

  // Size the inter-layer buffers from the unbounded planner run: the
  // bounded engine replays the identical schedule, so the recorded peak is
  // sufficient by construction.
  const auto links = buildAllLinks(model);
  const auto plan = schedule(model, links, {});
  for (std::size_t b = 0; b + 1 < model.layers.size(); ++b) {
    BufferPlan buffer;
    buffer.peak = plan.peaks[b];
    buffer.producerElements = links[b].producerElements;
    buffer.capacity = b < options.bufferDepthOverride.size() &&
                              options.bufferDepthOverride[b] > 0
                          ? options.bufferDepthOverride[b]
                          : buffer.peak;
    model.buffers.push_back(buffer);
  }
  return model;
}

ModelSchedulePlan planModelSchedule(
    const ModelAccelerator& model, const std::vector<std::int64_t>& capacities) {
  return schedule(model, buildAllLinks(model), capacities);
}

ModelRunResult runModelAccelerator(const ModelAccelerator& model,
                                   const std::vector<tensor::TensorEnv>& envs,
                                   const ModelRunOptions& options) {
  const std::size_t L = model.layers.size();
  TL_CHECK(envs.size() == L, "runModelAccelerator: one env per layer");
  const HardwareConfig& cfg = model.layers[0].acc.config;

  const auto links = buildAllLinks(model);
  const auto plan = schedule(model, links, committedCapacities(model));

  ModelRunResult result;
  result.stallSlots = plan.stallSlots;
  std::vector<linalg::IntVector> outShapes;
  for (const auto& layer : model.layers) {
    const auto& algebra = layer.acc.spec.algebra();
    outShapes.push_back(algebra.tensorShape(algebra.output()));
    result.outputs.emplace_back(outShapes.back());
    result.lastSampleCycle.emplace_back(outShapes.back());
  }

  // Materialize the per-cycle event lists. Chained data pokes carry the
  // flat producer-output index to read at poke time (the dependency
  // schedule guarantees the value is final); everything else resolves to
  // bits now.
  struct PokeEv {
    NodeId port;
    std::uint64_t bits;
    std::int32_t srcLayer;  ///< < 0: use bits; else producer layer index
    std::int64_t srcFlat;   ///< flat producer-output index; < 0: zero halo
  };
  struct SampleEv {
    std::uint32_t layer;
    NodeId port;
    std::int64_t flat;  ///< into the layer's output tensor
  };
  std::vector<std::vector<PokeEv>> pokesAt(
      static_cast<std::size_t>(plan.totalCycles));
  std::vector<std::vector<SampleEv>> samplesAt(
      static_cast<std::size_t>(plan.totalCycles));

  for (std::size_t l = 0; l < L; ++l) {
    const ModelLayer& layer = model.layers[l];
    const auto& tensors = layer.acc.spec.tensors();
    const std::size_t chained = l > 0 ? chainedTensorIndex(layer)
                                      : std::string::npos;
    std::vector<const tensor::DenseTensor*> inputs;
    for (std::size_t i = 0; i < tensors.size(); ++i)
      inputs.push_back(tensors[i].isOutput || i == chained
                           ? nullptr
                           : &envs[l].at(tensors[i].tensor));
    for (std::size_t s = 0; s < layer.stages.stages.size(); ++s) {
      const std::int64_t base = plan.stageStart[l][s];
      const StageRef& ref = layer.stages.stages[s];
      const StageTemplate& st = layer.stages.templates[ref.templateIndex];
      for (const auto& poke : st.pokes) {
        PokeEv ev{layer.nodeOffset + poke.port, 1, -1, -1};
        if (!poke.isValid) {
          const linalg::IntVector& offset = ref.offset[poke.tensorIndex];
          if (poke.tensorIndex == chained) {
            ev.srcLayer = static_cast<std::int32_t>(l - 1);
            ev.srcFlat = chainSourceFlat(*layer.chain, poke.element, offset);
          } else {
            const tensor::DenseTensor& t = *inputs[poke.tensorIndex];
            ev.bits = encode(
                t.raw()[shiftedFlatIndex(t.shape(), poke.element, offset)],
                cfg);
          }
        }
        pokesAt[static_cast<std::size_t>(base + poke.cycle)].push_back(ev);
      }
      for (const auto& sample : st.samples)
        samplesAt[static_cast<std::size_t>(base + sample.cycle)].push_back(
            {static_cast<std::uint32_t>(l), layer.nodeOffset + sample.port,
             static_cast<std::int64_t>(shiftedFlatIndex(
                 outShapes[l], sample.element, ref.offset.back()))});
    }
  }

  RtlSimulator sim(model.top, options.engine);
  if (options.corruptTapeMasks) sim.corruptTapeMasksForTest();
  for (std::int64_t cycle = 0; cycle < plan.totalCycles; ++cycle) {
    sim.clearInputs();
    for (const auto& ev : pokesAt[static_cast<std::size_t>(cycle)]) {
      std::uint64_t bits = ev.bits;
      if (ev.srcLayer >= 0) {
        const double v =
            ev.srcFlat >= 0
                ? requantize(result.outputs[static_cast<std::size_t>(
                                                ev.srcLayer)]
                                 .raw()[static_cast<std::size_t>(ev.srcFlat)])
                : 0.0;
        bits = encode(v, cfg);
      }
      sim.poke(ev.port, bits);
    }
    sim.evaluate();
    for (const auto& ev : samplesAt[static_cast<std::size_t>(cycle)]) {
      result.outputs[ev.layer].raw()[static_cast<std::size_t>(ev.flat)] +=
          decode(sim.peek(ev.port), cfg);
      result.lastSampleCycle[ev.layer]
          .raw()[static_cast<std::size_t>(ev.flat)] =
          static_cast<double>(cycle);
    }
    sim.step();
  }
  result.cyclesRun = plan.totalCycles;
  return result;
}

std::vector<tensor::DenseTensor> composedReference(
    const ModelAccelerator& model, const std::vector<tensor::TensorEnv>& envs) {
  TL_CHECK(envs.size() == model.layers.size(),
           "composedReference: one env per layer");
  std::vector<tensor::DenseTensor> golden;
  for (std::size_t l = 0; l < model.layers.size(); ++l) {
    const ModelLayer& layer = model.layers[l];
    tensor::TensorEnv env = envs[l];
    if (l > 0 && layer.chain)
      env[layer.chainedTensor] = mapChainedInput(*layer.chain, golden[l - 1]);
    golden.push_back(
        tensor::referenceExecute(layer.acc.spec.algebra(), env));
  }
  return golden;
}

}  // namespace tensorlib::arch
