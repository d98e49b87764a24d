#include "driver/explore_service.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <sstream>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "sim/perf.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "support/threadpool.hpp"

namespace tensorlib::driver {

namespace {

// ---- canonical cache keys --------------------------------------------------
// Two queries share cached work iff their keys match, so keys must capture
// everything the cached value depends on — and nothing more (perf knobs like
// useLegacyEnumeration produce byte-identical output and are excluded).

std::string algebraKey(const tensor::TensorAlgebra& a) {
  std::ostringstream os;
  os << a.name() << ";";
  for (const auto& loop : a.loops()) os << loop.name << "=" << loop.extent << ",";
  os << ";" << a.output().tensor << ":" << a.output().access.str();
  for (const auto& in : a.inputs()) os << ";" << in.tensor << ":" << in.access.str();
  return os.str();
}

std::string arrayKey(const stt::ArrayConfig& c) {
  std::ostringstream os;
  os << c.rows << "x" << c.cols << "@" << c.frequencyMHz << "/"
     << c.bandwidthGBps << "/" << c.dataBytes;
  return os.str();
}

std::string enumKey(const stt::EnumerationOptions& o) {
  std::ostringstream os;
  os << "e" << o.maxEntry << (o.requireUnimodular ? "u" : "-")
     << (o.canonicalize ? "c" : "-") << (o.dedupeBySignature ? "d" : "-")
     << (o.dropFullReuse ? "f" : "-") << (o.dropAllUnicast ? "a" : "-")
     << (o.boundFirst ? "b" : "-");
  return os.str();
}

/// Candidates per packed evaluation window: the block a list-path work unit
/// evaluates at a time, and the bound-first search's flush size. 64 is the
/// bench-gated setting (bench_block_bench).
constexpr std::size_t kWindowSpecs = 64;

std::string specKey(const stt::DataflowSpec& spec) {
  // The selection's loop INDICES are part of the key: labels abbreviate
  // loops to initials, so two selections over same-initial loops (e.g.
  // {m,n,ka} and {m,n,kb}) would otherwise collide at equal transforms.
  std::ostringstream os;
  for (std::size_t idx : spec.selection().indices()) os << idx << ".";
  os << "|" << spec.letters() << "|" << spec.transform().str();
  return os.str();
}

/// Packs a partial transform's six |entry| values (each < 2^10 for any
/// sane maxEntry) into the bound-memo key. The bound depends only on these
/// and the selection geometry, so the memo is scoped per selection.
std::uint64_t partialBoundKey(const stt::PartialTransform& p) {
  std::uint64_t k = 0;
  for (int j = 0; j < 3; ++j)
    k = (k << 10) | static_cast<std::uint64_t>(p.absRow0[j] & 1023);
  for (int j = 0; j < 3; ++j)
    k = (k << 10) | static_cast<std::uint64_t>(p.absRow1[j] & 1023);
  return k;
}

std::shared_ptr<const cost::CostBackend> makeBackend(const ExploreQuery& q) {
  return q.backend == cost::BackendKind::Asic
             ? cost::makeAsicBackend(q.dataWidth)
             : cost::makeFpgaBackend(q.fpga);
}

ParetoEntry paretoEntryOf(const sim::PerfResult& perf,
                          const cost::CostFigures& figures, std::size_t order,
                          std::string label) {
  ParetoEntry e;
  e.cost.cycles = static_cast<double>(perf.totalCycles);
  e.cost.powerMw = figures.powerMw;
  e.cost.area = figures.area;
  e.cost.utilization = perf.utilization;
  e.order = order;
  e.label = std::move(label);
  return e;
}

}  // namespace

std::string CacheStats::str() const {
  std::ostringstream os;
  os << "hits=" << hits << " misses=" << misses << " evictions=" << evictions
     << " entries=" << entries << " shards=" << shards;
  return os.str();
}

// ---- service implementation ------------------------------------------------

struct ExplorationService::Impl {
  /// One memoized evaluation. The first thread to reach the entry computes
  /// it under the once_flag; concurrent askers block until it is ready, so
  /// overlapping queries inside one batch still evaluate each point once.
  struct EvalEntry {
    std::once_flag once;
    sim::PerfResult perf;
    cost::CostReport cost;
    /// Set (release) after `once` ran: snapshot export must only persist
    /// entries whose values are actually populated, and the once_flag
    /// itself cannot be queried.
    std::atomic<bool> ready{false};
  };

  struct EvalShard {
    mutable std::mutex mutex;
    std::unordered_map<std::string, std::shared_ptr<EvalEntry>> map;
    std::deque<std::string> fifo;  ///< insertion order, for eviction
    std::uint64_t hits = 0, misses = 0, evictions = 0;
  };

  /// Memoized enumerated design space (shared across queries; in-flight
  /// holders keep evicted lists alive through the shared_ptr). The packed
  /// block view and per-spec cache keys are built lazily under their own
  /// once_flag, exactly once per list no matter how many queries share it.
  struct SpecListEntry {
    std::once_flag once;
    std::shared_ptr<const std::vector<stt::DataflowSpec>> specs;
    std::once_flag blockOnce;
    std::shared_ptr<const stt::SpecBlockSet> block;
    std::shared_ptr<const std::vector<std::string>> specKeys;
  };

  /// What one work unit folds: its streaming frontier, the reports of its
  /// frontier residents, and its share of the cache-bucket accounting.
  struct UnitOut {
    ParetoFrontier frontier;
    std::unordered_map<std::size_t, DesignReport> kept;  ///< order -> report
    std::uint64_t hits = 0, misses = 0, pruned = 0, skipped = 0;
    std::uint64_t designs = 0;  ///< bound-first only: candidates handled
  };

  /// evaluateWindow's per-unit scratch, reused across windows so its
  /// passes allocate nothing per candidate.
  struct WindowScratch {
    std::vector<std::shared_ptr<EvalEntry>> resident;
    std::vector<std::uint8_t> state;  ///< 0 evaluate, 1 cache hit, 2 pruned
    std::vector<std::size_t> pending;
    std::vector<cost::CostBound> bounds;
    std::vector<std::size_t> evicted;
  };

  ServiceOptions options;
  ThreadPool pool;
  std::vector<EvalShard> shards;

  std::mutex specMutex;
  std::unordered_map<std::string, std::shared_ptr<SpecListEntry>> specMap;
  std::deque<std::string> specFifo;

  // In-flight submit() runs; the destructor waits for zero so a future
  // that outlives the service cannot touch freed state.
  std::mutex pendingMutex;
  std::condition_variable pendingDone;
  std::size_t pendingSubmits = 0;

  explicit Impl(ServiceOptions opts)
      : options(resolve(opts)), pool(options.threads - 1), shards(options.shardCount) {}

  static ServiceOptions resolve(ServiceOptions o) {
    if (o.threads == 0) {
      const unsigned hw = std::thread::hardware_concurrency();
      o.threads = hw > 0 ? hw : 1;
    }
    if (o.shardCount == 0) o.shardCount = 1;
    if (o.workUnitSpecs == 0) o.workUnitSpecs = 1;
    return o;
  }

  std::size_t perShardCapacity() const {
    const std::size_t cap = options.cacheCapacity / options.shardCount;
    return cap > 0 ? cap : 1;
  }

  /// Returns the entry for `key` if present (counting a hit), else null
  /// without registering a miss — the pruning path peeks before deciding
  /// whether the evaluation is worth admitting to the cache at all.
  std::shared_ptr<EvalEntry> peekEntry(const std::string& key) {
    EvalShard& shard = shards[std::hash<std::string>{}(key) % shards.size()];
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.map.find(key);
    if (it == shard.map.end()) return nullptr;
    ++shard.hits;
    return it->second;
  }

  /// Finds or creates the entry for `key`; second element is true on a hit.
  std::pair<std::shared_ptr<EvalEntry>, bool> evalEntry(const std::string& key) {
    EvalShard& shard = shards[std::hash<std::string>{}(key) % shards.size()];
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      ++shard.hits;
      return {it->second, true};
    }
    ++shard.misses;
    auto entry = std::make_shared<EvalEntry>();
    shard.map.emplace(key, entry);
    shard.fifo.push_back(key);
    while (shard.map.size() > perShardCapacity()) {
      shard.map.erase(shard.fifo.front());
      shard.fifo.pop_front();
      ++shard.evictions;
    }
    return {entry, false};
  }

  /// Computes an entry's evaluation once, through the packed models. The
  /// result depends on the spec alone, not on the set it was packed in (the
  /// equivalence contract, pinned by tests/block_eval_test.cpp), so every
  /// query that shares the entry reads the same values.
  const EvalEntry& forceBlock(const std::shared_ptr<EvalEntry>& entry,
                              const stt::SpecBlockSet& set, std::size_t i,
                              const stt::ArrayConfig& array,
                              const cost::CostBackend& backend,
                              stt::BlockMappingStore& store) {
    std::call_once(entry->once, [&] {
      cost::BlockEval eval = backend.evaluateBlock(set, i, array, store);
      entry->perf = eval.perf;
      entry->cost = std::move(eval.cost);
      entry->ready.store(true, std::memory_order_release);
    });
    return *entry;
  }

  /// Installs a restored evaluation under `key` unless one is already
  /// resident (live entries win — they are at least as fresh). Registers
  /// neither a hit nor a miss: restored warmth shows up as hits when
  /// queries actually touch it.
  bool importEval(const std::string& key, const sim::PerfResult& perf,
                  const cost::CostReport& cost) {
    EvalShard& shard = shards[std::hash<std::string>{}(key) % shards.size()];
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.map.count(key) > 0) return false;
    auto entry = std::make_shared<EvalEntry>();
    std::call_once(entry->once, [&] {
      entry->perf = perf;
      entry->cost = cost;
      entry->ready.store(true, std::memory_order_release);
    });
    shard.map.emplace(key, std::move(entry));
    shard.fifo.push_back(key);
    while (shard.map.size() > perShardCapacity()) {
      shard.map.erase(shard.fifo.front());
      shard.fifo.pop_front();
      ++shard.evictions;
    }
    return true;
  }

  std::shared_ptr<SpecListEntry> specEntry(const ExploreQuery& q) {
    const std::string key = algebraKey(q.algebra) + "|" + enumKey(q.enumeration);
    std::shared_ptr<SpecListEntry> entry;
    {
      std::lock_guard<std::mutex> lock(specMutex);
      auto it = specMap.find(key);
      if (it != specMap.end()) {
        entry = it->second;
      } else {
        entry = std::make_shared<SpecListEntry>();
        specMap.emplace(key, entry);
        specFifo.push_back(key);
        while (specMap.size() > std::max<std::size_t>(1, options.specListCacheCapacity)) {
          specMap.erase(specFifo.front());
          specFifo.pop_front();
        }
      }
    }
    std::call_once(entry->once, [&] {
      entry->specs = std::make_shared<const std::vector<stt::DataflowSpec>>(
          stt::enumerateDesignSpace(q.algebra, q.enumeration));
    });
    return entry;
  }

  /// Builds the packed SoA view and per-spec cache keys of one list (once;
  /// concurrent callers block until ready).
  void ensureBlock(SpecListEntry& entry) {
    std::call_once(entry.blockOnce, [&] {
      entry.block = stt::packSpecBlocks(entry.specs);
      auto keys = std::make_shared<std::vector<std::string>>();
      keys->reserve(entry.specs->size());
      for (const stt::DataflowSpec& spec : *entry.specs)
        keys->push_back(specKey(spec));
      entry.specKeys = std::move(keys);
    });
  }

  std::string evalPrefix(const ExploreQuery& q, const cost::CostBackend& backend) {
    return algebraKey(q.algebra) + "|" + arrayKey(q.array) + "|" +
           backend.cacheKey() + "|";
  }

  /// The one evaluation routine behind run()/runBatch(): candidates
  /// [begin, end) of a packed `set` go through three passes and fold into
  /// `out`.
  ///   1. Cache peek: resident evaluations are cheaper than bounding, so
  ///      hits bypass the bound pass entirely.
  ///   2. Packed lower bounds for every non-resident candidate; a bound
  ///      strictly dominated by `snapshot` (when given) or by the unit's
  ///      own frontier is cut, all BEFORE any tile-mapping search.
  ///   3. Survivors are evaluated (packed models + per-class mapping store)
  ///      and folded into the streaming frontier in index order.
  /// Passes 1-2 run only when `prune` is set. Candidate i has frontier
  /// order `orderBase + i`; `keyOf(i)` returns its eval-cache key and
  /// `specOf(i)` its DataflowSpec, asked for frontier keepers only.
  template <class KeyOf, class SpecOf>
  void evaluateWindow(const stt::SpecBlockSet& set, std::size_t begin,
                      std::size_t end, std::size_t orderBase,
                      const stt::ArrayConfig& array,
                      const cost::CostBackend& backend,
                      stt::BlockMappingStore& store, bool prune,
                      const ParetoFrontier* snapshot, const KeyOf& keyOf,
                      const SpecOf& specOf, WindowScratch& scratch,
                      UnitOut& out) {
    const std::size_t count = end - begin;
    scratch.resident.assign(count, nullptr);
    scratch.state.assign(count, 0);
    scratch.pending.clear();
    if (prune) {
      for (std::size_t i = begin; i < end; ++i) {
        scratch.resident[i - begin] = peekEntry(keyOf(i));
        if (scratch.resident[i - begin])
          scratch.state[i - begin] = 1;
        else
          scratch.pending.push_back(i);
      }
    }
    if (!scratch.pending.empty()) {
      scratch.bounds.resize(scratch.pending.size());
      backend.lowerBoundBlock(set, scratch.pending.data(),
                              scratch.pending.size(), array,
                              scratch.bounds.data());
      for (std::size_t p = 0; p < scratch.pending.size(); ++p) {
        const cost::CostBound& bound = scratch.bounds[p];
        const ParetoCost boundCost{bound.cycles, bound.figures.powerMw,
                                   bound.figures.area, 0.0};
        if (finiteCost(boundCost) &&
            ((snapshot && snapshot->strictlyDominates(boundCost)) ||
             out.frontier.strictlyDominates(boundCost))) {
          ++out.pruned;
          scratch.state[scratch.pending[p] - begin] = 2;
        }
      }
    }
    for (std::size_t i = begin; i < end; ++i) {
      if (scratch.state[i - begin] == 2) continue;
      std::shared_ptr<EvalEntry> entry = std::move(scratch.resident[i - begin]);
      bool hit = scratch.state[i - begin] == 1;
      if (!entry) std::tie(entry, hit) = evalEntry(keyOf(i));
      forceBlock(entry, set, i, array, backend, store);
      (hit ? out.hits : out.misses) += 1;
      const std::size_t order = orderBase + i;
      scratch.evicted.clear();
      if (out.frontier.insert(paretoEntryOf(entry->perf, entry->cost.figures,
                                            order, set.labels[i]),
                              &scratch.evicted))
        out.kept.emplace(order,
                         DesignReport(specOf(i), entry->perf, entry->cost));
      for (std::size_t o : scratch.evicted) out.kept.erase(o);
    }
  }
};

ExplorationService::ExplorationService(ServiceOptions options)
    : impl_(std::make_unique<Impl>(options)) {}

ExplorationService::~ExplorationService() {
  std::unique_lock<std::mutex> lock(impl_->pendingMutex);
  impl_->pendingDone.wait(lock, [&] { return impl_->pendingSubmits == 0; });
}

std::vector<QueryResult> ExplorationService::runBatch(
    const std::vector<ExploreQuery>& batch) {
  const std::size_t n = batch.size();
  std::vector<QueryResult> results(n);
  if (n == 0) return results;

  // Phase 1: resolve each query's backend and (cached) design space, packed
  // into its SoA view (once per list), and size a per-query mapping store
  // (one slot per mapping class times the backend's operating-point
  // fan-out). Bound-first queries never materialize a spec list at all —
  // they resolve per-selection contexts and geometries instead, and the
  // search streams candidates into packed windows inside their (single)
  // work unit.
  struct BoundFirstQueryData {
    std::vector<stt::SpecContextPtr> contexts;     ///< one per selection
    std::vector<stt::SelectionGeometry> geometries;
    std::vector<std::string> selKeyPrefixes;  ///< "0.1.2.|" per selection
  };
  std::vector<std::shared_ptr<const cost::CostBackend>> backends(n);
  std::vector<std::shared_ptr<Impl::SpecListEntry>> listEntries(n);
  std::vector<std::string> prefixes(n);
  std::vector<std::unique_ptr<stt::BlockMappingStore>> stores(n);
  std::vector<std::unique_ptr<BoundFirstQueryData>> boundFirst(n);
  parallelForOn(impl_->pool, n, [&](std::size_t i) {
    backends[i] = makeBackend(batch[i]);
    prefixes[i] = impl_->evalPrefix(batch[i], *backends[i]);
    if (batch[i].enumeration.boundFirst) {
      auto data = std::make_unique<BoundFirstQueryData>();
      for (const stt::LoopSelection& sel :
           stt::allLoopSelections(batch[i].algebra)) {
        auto context = stt::makeSpecContext(batch[i].algebra, sel);
        data->geometries.push_back(stt::makeSelectionGeometry(*context));
        std::ostringstream os;
        for (std::size_t idx : sel.indices()) os << idx << ".";
        os << "|";
        data->selKeyPrefixes.push_back(os.str());
        data->contexts.push_back(std::move(context));
      }
      boundFirst[i] = std::move(data);
      return;
    }
    listEntries[i] = impl_->specEntry(batch[i]);
    impl_->ensureBlock(*listEntries[i]);
    stores[i] = std::make_unique<stt::BlockMappingStore>(
        backends[i]->blockSlotCount(*listEntries[i]->block));
  });

  // Phase 2: shard every query's space into work units; fan the whole
  // batch's units out together so a wide query cannot serialize the batch.
  // A bound-first query is one serial unit — its branch-and-bound sweep is
  // inherently sequential (the streaming incumbent IS the cut), and the
  // batch still parallelizes across queries.
  struct Unit {
    std::size_t query, begin, end;
  };
  std::vector<Unit> units;
  for (std::size_t i = 0; i < n; ++i) {
    if (boundFirst[i]) {
      units.push_back({i, 0, 0});
      continue;
    }
    const std::size_t total = listEntries[i]->specs->size();
    for (std::size_t b = 0; b < total; b += impl_->options.workUnitSpecs)
      units.push_back({i, b, std::min(total, b + impl_->options.workUnitSpecs)});
  }
  std::vector<Impl::UnitOut> outs(units.size());

  // Per-query deadlines, measured from batch entry. A query whose deadline
  // expires stops mid-unit; its remaining candidates count as `skipped`
  // and the result is marked timedOut with the partial frontier.
  using Clock = std::chrono::steady_clock;
  const Clock::time_point started = Clock::now();
  struct DeadlineState {
    Clock::time_point at{};
    bool armed = false;
    std::atomic<bool> expired{false};
  };
  std::vector<DeadlineState> deadlines(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (batch[i].deadlineMs <= 0) continue;
    deadlines[i].armed = true;
    deadlines[i].at = started + std::chrono::milliseconds(batch[i].deadlineMs);
  }

  // Per-query incumbent frontiers shared across that query's work units:
  // each completed unit publishes its survivors, and every window of a
  // running unit snapshots the incumbents it can prune against. Every
  // incumbent is a fully evaluated true cost, so pruning against a racy
  // snapshot is still sound — only *how many* candidates get cut varies
  // with scheduling, the final frontier never does.
  struct Incumbent {
    std::mutex mutex;
    ParetoFrontier frontier;
  };
  std::vector<Incumbent> incumbents(n);
  const bool prune = impl_->options.enablePruning;

  parallelForOn(impl_->pool, units.size(), [&](std::size_t u) {
    const Unit& unit = units[u];
    const ExploreQuery& q = batch[unit.query];
    const cost::CostBackend& backend = *backends[unit.query];
    Impl::UnitOut& out = outs[u];
    DeadlineState& deadline = deadlines[unit.query];
    // Rehearsable failure boundary: the chaos harness arms slow units
    // (deadline/overload drills), thrown units (error responses), and
    // mid-batch process exits (crash-recovery drills) here.
    if (const auto fault = support::fireFault("work_unit")) {
      if (fault->action == "sleep")
        std::this_thread::sleep_for(std::chrono::milliseconds(fault->value));
      else if (fault->action == "throw")
        fail("injected work_unit fault");
      else if (fault->action == "exit")
        std::_Exit(static_cast<int>(fault->value));
    }
    // The deadline is observed at window boundaries.
    const auto expired = [&] {
      if (!deadline.armed) return false;
      if (deadline.expired.load(std::memory_order_relaxed)) return true;
      if (Clock::now() >= deadline.at) {
        deadline.expired.store(true, std::memory_order_relaxed);
        return true;
      }
      return false;
    };
    Impl::WindowScratch scratch;
    if (boundFirst[unit.query]) {
      // Bound-first branch-and-bound: stream the search's survivors into a
      // reusable packed window, evaluate full windows, and fold into the
      // unit's own streaming frontier — which doubles as the incumbent the
      // partial-transform cut prices against (one unit per query, so there
      // is nothing to snapshot). DataflowSpecs are materialized lazily,
      // only for frontier keepers.
      const BoundFirstQueryData& bf = *boundFirst[unit.query];
      stt::SpecBlockSet window;
      std::vector<linalg::IntMatrix> matrices;  ///< signed, for lazy analyze
      std::vector<std::string> keys;
      std::unordered_map<std::uint64_t, cost::CostBound> boundMemo;
      std::size_t repCounter = 0;  ///< running representative order
      for (std::size_t s = 0; s < bf.contexts.size(); ++s) {
        if (expired()) break;  // unreached candidates are not designs
        const stt::SelectionGeometry& geometry = bf.geometries[s];
        boundMemo.clear();  // the partial bound reads this geometry
        const auto resetWindow = [&] {
          stt::resetSpecBlocks(window, geometry);
          matrices.clear();
          keys.clear();
        };
        resetWindow();
        const auto keyOf = [&](std::size_t i) -> const std::string& {
          return keys[i];
        };
        const auto specOf = [&](std::size_t i) {
          return stt::analyzeDataflow(bf.contexts[s],
                                      stt::SpaceTimeTransform(matrices[i]));
        };
        const auto flushWindow = [&] {
          const std::size_t count = window.count;
          if (count == 0) return;
          if (expired()) {  // emitted but never evaluated -> skipped
            out.skipped += count;
            resetWindow();
            return;
          }
          // The packed bounds are tighter than the partial cut: they see
          // class structures and the exact per-candidate intensity.
          stt::assignSpecBlockClasses(window);
          stt::BlockMappingStore store(backend.blockSlotCount(window));
          impl_->evaluateWindow(window, 0, count, repCounter - count, q.array,
                                backend, store, prune, nullptr, keyOf, specOf,
                                scratch, out);
          resetWindow();
        };
        stt::BoundFirstHooks hooks;
        if (prune)
          hooks.cut = [&](const stt::PartialTransform& partial) {
            const std::uint64_t k = partialBoundKey(partial);
            auto it = boundMemo.find(k);
            if (it == boundMemo.end())
              it = boundMemo
                       .emplace(k, backend.lowerBoundPartial(partial, q.array))
                       .first;
            // Memoize only the BOUND: the incumbent frontier grows during
            // the sweep, so the cut decision is re-taken every time.
            const ParetoCost boundCost{it->second.cycles,
                                       it->second.figures.powerMw,
                                       it->second.figures.area, 0.0};
            if (finiteCost(boundCost) &&
                out.frontier.strictlyDominates(boundCost)) {
              ++out.pruned;
              ++out.designs;
              return true;
            }
            return false;
          };
        hooks.emit = [&](const stt::BoundFirstCandidate& c) {
          stt::appendSpecBlock(window, geometry, *c.matrix, c.classTag,
                               c.absDir, c.systolicDt,
                               geometry.selectionLabel + "-" + c.letters);
          matrices.push_back(*c.matrix);
          keys.push_back(prefixes[unit.query] + bf.selKeyPrefixes[s] +
                         c.letters + "|" + c.matrix->str());
          ++repCounter;
          ++out.designs;
          if (window.count >= kWindowSpecs) flushWindow();
        };
        if (deadline.armed) hooks.shouldStop = expired;
        const stt::BoundFirstStats st = stt::enumerateBoundFirst(
            bf.contexts[s], geometry, q.enumeration, hooks);
        if (st.stopped) {
          out.skipped += window.count;
          break;
        }
        flushWindow();
      }
    } else {
      // List path: the unit's range in windows of kWindowSpecs, each pruned
      // against a fresh incumbent snapshot — a stale one would let late
      // candidates in a large unit dodge cuts that completed units already
      // justify.
      const Impl::SpecListEntry& list = *listEntries[unit.query];
      const std::string& prefix = prefixes[unit.query];
      std::string key;  ///< reused: keys allocate nothing per candidate
      const auto keyOf = [&](std::size_t i) -> const std::string& {
        key.assign(prefix);
        key.append((*list.specKeys)[i]);
        return key;
      };
      const auto specOf = [&](std::size_t i) -> const stt::DataflowSpec& {
        return (*list.specs)[i];
      };
      ParetoFrontier snapshot;
      for (std::size_t b = unit.begin; b < unit.end; b += kWindowSpecs) {
        // On expiry the WHOLE untouched remainder counts as skipped, so the
        // accounting invariant (hits + misses + pruned + skipped ==
        // designs) holds exactly for timed-out partial results too.
        if (expired()) {
          out.skipped += unit.end - b;
          break;
        }
        if (prune) {
          std::lock_guard<std::mutex> lock(incumbents[unit.query].mutex);
          snapshot = incumbents[unit.query].frontier;
        }
        impl_->evaluateWindow(*list.block, b, std::min(unit.end, b + kWindowSpecs),
                              0, q.array, backend, *stores[unit.query], prune,
                              &snapshot, keyOf, specOf, scratch, out);
      }
    }
    if (prune) {
      std::lock_guard<std::mutex> lock(incumbents[unit.query].mutex);
      incumbents[unit.query].frontier.merge(out.frontier);
    }
  });

  // Phase 3: merge unit frontiers per query (unit order; the kept set is
  // insertion-order independent, so any schedule above lands here equal).
  for (std::size_t i = 0; i < n; ++i) {
    ParetoFrontier frontier;
    std::unordered_map<std::size_t, DesignReport> kept;
    std::vector<std::size_t> pruned;
    std::uint64_t boundFirstDesigns = 0;
    for (std::size_t u = 0; u < units.size(); ++u) {
      if (units[u].query != i) continue;
      Impl::UnitOut& out = outs[u];
      results[i].cache.hits += out.hits;
      results[i].cache.misses += out.misses;
      results[i].cache.pruned += out.pruned;
      results[i].cache.skipped += out.skipped;
      boundFirstDesigns += out.designs;
      for (const ParetoEntry& e : out.frontier.entries()) {
        pruned.clear();
        if (frontier.insert(e, &pruned))
          kept.emplace(e.order, std::move(out.kept.at(e.order)));
        for (std::size_t o : pruned) kept.erase(o);
      }
    }
    const std::vector<ParetoEntry> ordered = frontier.sorted();
    results[i].designs = boundFirst[i]
                             ? static_cast<std::size_t>(boundFirstDesigns)
                             : listEntries[i]->specs->size();
    results[i].timedOut = deadlines[i].expired.load(std::memory_order_relaxed);
    const QueryCacheCounts& c = results[i].cache;
    TL_CHECK(c.hits + c.misses + c.pruned + c.skipped == results[i].designs,
             "cache accounting broken: every design must be exactly one of "
             "hit/miss/pruned/skipped");
    results[i].frontier.reserve(ordered.size());
    for (const ParetoEntry& e : ordered)
      results[i].frontier.push_back(std::move(kept.at(e.order)));
    if (const auto bestIdx = pickBest(ordered, batch[i].objective))
      results[i].best = results[i].frontier[*bestIdx];
  }
  return results;
}

QueryResult ExplorationService::run(const ExploreQuery& query) {
  return std::move(runBatch({query}).front());
}

std::future<QueryResult> ExplorationService::submit(ExploreQuery query) {
  // A fresh thread (not a pool worker): run() blocks on the pool's own
  // fan-out, and a blocked worker could deadlock a single-worker pool.
  {
    std::lock_guard<std::mutex> lock(impl_->pendingMutex);
    ++impl_->pendingSubmits;
  }
  try {
    return std::async(std::launch::async, [this, q = std::move(query)] {
      struct Done {
        Impl* impl;
        ~Done() {
          std::lock_guard<std::mutex> lock(impl->pendingMutex);
          --impl->pendingSubmits;
          impl->pendingDone.notify_all();
        }
      } done{impl_.get()};
      return run(q);
    });
  } catch (...) {
    // Thread creation failed before the task (and its Done guard) existed.
    std::lock_guard<std::mutex> lock(impl_->pendingMutex);
    --impl_->pendingSubmits;
    impl_->pendingDone.notify_all();
    throw;
  }
}

std::vector<DesignReport> ExplorationService::evaluateAll(
    const ExploreQuery& query) {
  const auto backend = makeBackend(query);
  const auto list = impl_->specEntry(query);
  impl_->ensureBlock(*list);
  const stt::SpecBlockSet& set = *list->block;
  const std::string prefix = impl_->evalPrefix(query, *backend);
  stt::BlockMappingStore store(backend->blockSlotCount(set));
  const std::size_t n = set.count;

  std::vector<std::optional<DesignReport>> slots(n);
  const std::size_t chunk = impl_->options.workUnitSpecs;
  const std::size_t unitCount = (n + chunk - 1) / chunk;
  parallelForOn(impl_->pool, unitCount, [&](std::size_t u) {
    const std::size_t begin = u * chunk, end = std::min(n, begin + chunk);
    std::string key;
    for (std::size_t i = begin; i < end; ++i) {
      key.assign(prefix);
      key.append((*list->specKeys)[i]);
      const auto entry = impl_->evalEntry(key).first;
      impl_->forceBlock(entry, set, i, query.array, *backend, store);
      slots[i].emplace((*list->specs)[i], entry->perf, entry->cost);
    }
  });

  std::vector<DesignReport> out;
  out.reserve(n);
  for (auto& slot : slots) out.push_back(std::move(*slot));
  return out;
}

DesignReport ExplorationService::evaluate(const ExploreQuery& query,
                                          const stt::DataflowSpec& spec) {
  const auto backend = makeBackend(query);
  const auto set = stt::packSpec(spec);
  stt::BlockMappingStore store(backend->blockSlotCount(*set));
  const auto entry =
      impl_->evalEntry(impl_->evalPrefix(query, *backend) + specKey(spec)).first;
  impl_->forceBlock(entry, *set, 0, query.array, *backend, store);
  return DesignReport(spec, entry->perf, entry->cost);
}

CacheStats ExplorationService::cacheStats() const {
  CacheStats stats;
  stats.shards = impl_->shards.size();
  for (const auto& shard : impl_->shards) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    stats.hits += shard.hits;
    stats.misses += shard.misses;
    stats.evictions += shard.evictions;
    stats.entries += shard.map.size();
  }
  return stats;
}

void ExplorationService::clearCache() {
  for (auto& shard : impl_->shards) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.map.clear();
    shard.fifo.clear();
    shard.hits = shard.misses = shard.evictions = 0;
  }
  std::lock_guard<std::mutex> lock(impl_->specMutex);
  impl_->specMap.clear();
  impl_->specFifo.clear();
}

bool ExplorationService::saveSnapshot(const std::string& path,
                                      const std::string& fingerprint) const {
  namespace snap = snapshot;
  snap::Writer w;
  w.str(fingerprint);

  // Candidate-matrix memo (process-wide; shared by every service).
  const auto candidates = stt::exportCandidateCache();
  w.u64(candidates.size());
  for (const stt::CandidateCacheEntry& entry : candidates) {
    w.i64(entry.maxEntry);
    w.u8(static_cast<std::uint8_t>((entry.requireUnimodular ? 1 : 0) |
                                   (entry.canonicalize ? 2 : 0) |
                                   (entry.legacyEngine ? 4 : 0) |
                                   (entry.boundFirst ? 8 : 0)));
    w.u64(entry.matrices->size());
    for (const linalg::IntMatrix& m : *entry.matrices) snap::writeMatrix(w, m);
  }

  // Eval cache: only entries whose evaluation completed (an in-flight
  // once_flag's values are garbage) — collected under the shard locks.
  std::vector<std::pair<std::string, std::shared_ptr<Impl::EvalEntry>>> evals;
  for (const auto& shard : impl_->shards) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const std::string& key : shard.fifo) {
      const auto it = shard.map.find(key);
      if (it == shard.map.end()) continue;
      if (!it->second->ready.load(std::memory_order_acquire)) continue;
      evals.emplace_back(key, it->second);
    }
  }
  w.u64(evals.size());
  for (const auto& [key, entry] : evals) {
    w.str(key);
    snap::writePerf(w, entry->perf);
    snap::writeCost(w, entry->cost);
  }

  return snap::writeSnapshotFile(path, w.takeBuffer());
}

snapshot::RestoreResult ExplorationService::restoreSnapshot(
    const std::string& path, const std::string& fingerprint) {
  namespace snap = snapshot;
  snap::RestoreResult result;
  const auto payload =
      snap::readSnapshotFile(path, &result.status, &result.message);
  if (!payload) return result;

  // Decode the WHOLE payload into staging containers before touching any
  // live cache: a snapshot that fails mid-decode leaves the service
  // exactly as cold as it was, never half-populated.
  std::vector<stt::CandidateCacheEntry> candidateLists;
  std::vector<std::tuple<std::string, sim::PerfResult, cost::CostReport>> evals;
  try {
    snap::Reader r(*payload);
    const std::string snapshotFingerprint = r.str();
    if (snapshotFingerprint != fingerprint) {
      result.status = snap::RestoreStatus::ConfigMismatch;
      result.message = "snapshot fingerprint '" + snapshotFingerprint +
                       "' != expected '" + fingerprint + "'";
      return result;
    }

    const std::uint64_t lists = r.u64();
    for (std::uint64_t i = 0; i < lists; ++i) {
      stt::CandidateCacheEntry entry;
      entry.maxEntry = static_cast<int>(r.i64());
      const std::uint8_t flags = r.u8();
      entry.requireUnimodular = (flags & 1) != 0;
      entry.canonicalize = (flags & 2) != 0;
      entry.legacyEngine = (flags & 4) != 0;
      entry.boundFirst = (flags & 8) != 0;
      const std::uint64_t count = r.u64();
      std::vector<linalg::IntMatrix> matrices;
      matrices.reserve(count);
      for (std::uint64_t j = 0; j < count; ++j)
        matrices.push_back(snap::readMatrix(r));
      entry.matrices = std::make_shared<const std::vector<linalg::IntMatrix>>(
          std::move(matrices));
      candidateLists.push_back(std::move(entry));
    }

    const std::uint64_t entries = r.u64();
    for (std::uint64_t i = 0; i < entries; ++i) {
      std::string key = r.str();
      sim::PerfResult perf = snap::readPerf(r);
      cost::CostReport cost = snap::readCost(r);
      evals.emplace_back(std::move(key), perf, std::move(cost));
    }

    TL_CHECK(r.done(), "snapshot payload has trailing bytes");
  } catch (const std::exception& e) {
    // std::exception, not just Error: a hostile/buggy payload can also
    // surface as bad_alloc or length_error, and any decode failure must
    // degrade to a cold start rather than crash the daemon at startup.
    result.status = snap::RestoreStatus::Corrupt;
    result.message = e.what();
    return result;
  }

  result.candidateLists = stt::importCandidateCache(candidateLists);
  for (const auto& [key, perf, cost] : evals)
    if (impl_->importEval(key, perf, cost)) ++result.evalEntries;
  result.status = snap::RestoreStatus::Restored;
  return result;
}

ExplorationService& ExplorationService::shared() {
  static ExplorationService service;
  return service;
}

}  // namespace tensorlib::driver
