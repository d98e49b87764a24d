// Tile-trace construction: the schedule of one tile's execution in
// space-time, derived purely from the STT analysis.
//
// For every loop point of a tile this computes the (PE, cycle) it executes
// at, and for every input tensor the *injection events*: the memory reads
// that must happen because the movement rules (systolic hop / multicast bus
// / stationary residence) cannot deliver the element from a prior point.
// The same trace drives the behavioral simulator (cycle counts, bandwidth),
// the netlist testbench (port stimulus), and traffic-model validation.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "stt/mapping.hpp"
#include "stt/spec.hpp"

namespace tensorlib::sim {

/// One MAC execution: a selected-loop point mapped to (p1, p2, t),
/// normalized so the tile occupies p >= 0, t >= 0.
struct ActivePoint {
  linalg::IntVector iteration;  ///< selected-loop coordinates within the tile
  std::int64_t p1 = 0, p2 = 0, t = 0;
};

/// One memory read feeding the array.
struct Injection {
  std::size_t tensorIndex = 0;     ///< into spec.tensors() (label order)
  linalg::IntVector element;       ///< full tensor index
  std::int64_t cycle = 0;          ///< normalized tile cycle
  std::int64_t p1 = 0, p2 = 0;     ///< delivery PE (or bus anchor)
  bool viaBus = false;             ///< delivered on a multicast/broadcast bus
};

/// One memory write leaving the array.
struct OutputEvent {
  linalg::IntVector element;  ///< full output tensor index
  std::int64_t cycle = 0;     ///< cycle the last contributing MAC runs
  std::int64_t p1 = 0, p2 = 0;  ///< producing PE (tree root anchor for M)
};

/// How a tensor's value physically moves, derived from its reuse lattice.
/// Shared by the trace builder (injection DP), the hardware generator
/// (module/interconnect selection) and the RTL testbench (port schedules).
struct Movement {
  /// Register-to-register step (dp1, dp2, dt>0): the systolic hop, or the
  /// stationary residence step when dp == 0. Absent for pure
  /// multicast/broadcast/unicast.
  bool hasStep = false;
  linalg::IntVector step{0, 0, 0};
  /// Same-cycle bus. kind:
  ///   None   — no bus (systolic/stationary/unicast)
  ///   Line   — one bus per reuse line along busDir (multicast, and the
  ///            broadcast half of systolic+multicast)
  ///   Global — a single array-wide bus (2-D broadcast, full reuse)
  enum class Bus { None, Line, Global };
  Bus bus = Bus::None;
  linalg::IntVector busDir{0, 0, 0};  ///< spatial, dt == 0 (Line only)

  bool hasBus() const { return bus != Bus::None; }
};

/// Derives the movement mechanism from a classified tensor dataflow.
Movement deriveMovement(const stt::TensorDataflow& dataflow);

/// Schedule of one tile at one outer-loop iteration.
struct TileTrace {
  std::int64_t cycles = 0;  ///< time span of the tile (compute only)
  std::int64_t p1Span = 0, p2Span = 0;
  std::vector<ActivePoint> active;          ///< sorted by t
  std::vector<Injection> injections;        ///< sorted by cycle
  std::vector<OutputEvent> outputs;         ///< sorted by cycle
  std::vector<std::int64_t> injectionWords;  ///< per tensor, label order
                                             ///< (output slot = write count)
  std::vector<std::int64_t> demandPerCycle;  ///< memory words needed per cycle

  std::int64_t totalWords() const;
  std::int64_t peakDemand() const;
};

/// Builds the trace of one tile: the selected loops sweep [0, shape) offset
/// by `tileOrigin` (element indices must be globally correct), with the
/// non-selected loops fixed at the values in `outerFixed` (a full-nest
/// iteration vector; the selected entries are overwritten per point).
TileTrace buildTileTrace(const stt::DataflowSpec& spec,
                         const linalg::IntVector& shape,
                         const linalg::IntVector& tileOrigin,
                         const linalg::IntVector& outerFixed);

/// Convenience: single-tile trace at origin with all outer loops at 0.
TileTrace buildTileTrace(const stt::DataflowSpec& spec,
                         const linalg::IntVector& shape);

/// Memoizes buildTileTrace for one spec.
///
/// Traces are congruent across tile origins and outer iterations: the
/// space-time image depends only on the tile shape, and every element index
/// is an affine function of the iteration vector, so changing
/// (origin, outerFixed) shifts each tensor's elements by a constant offset
/// without changing grouping, injection cycles, or demand. The cache key is
/// therefore the shape (the origin class — interior vs boundary truncation —
/// is exactly what shape captures); base() returns the canonical
/// origin-0/outer-0 trace and materialize() applies the per-tensor offsets
/// of a concrete (origin, outerFixed) projection on top of it.
///
/// Two consumers rely on this shift: the behavioral simulator (dfsim)
/// materializes whole traces, and the RTL testbench (arch/testbench.*)
/// builds one stage template per tile shape from base() and resolves every
/// stage's elements as template element + offsets().
class TileTraceCache {
 public:
  explicit TileTraceCache(const stt::DataflowSpec& spec);

  /// The canonical trace of a tile shape (origin 0, outer loops 0). The
  /// shift-invariant fields (active points, cycles, spans, demand profile,
  /// word counts) are valid for every tile of this shape.
  const TileTrace& base(const linalg::IntVector& shape);

  /// A full trace for a concrete tile: the cached base trace with element
  /// indices shifted to (tileOrigin, outerFixed). Equals
  /// buildTileTrace(spec, shape, tileOrigin, outerFixed).
  TileTrace materialize(const linalg::IntVector& shape,
                        const linalg::IntVector& tileOrigin,
                        const linalg::IntVector& outerFixed);

  /// Per-tensor element offset (spec.tensors() order) of the tile at
  /// (tileOrigin, outerFixed) from the canonical trace: the access
  /// functions are affine, so evaluate(x) - evaluate(0) is the constant
  /// shift between that tile's elements and base()'s.
  std::vector<linalg::IntVector> offsets(
      const linalg::IntVector& tileOrigin,
      const linalg::IntVector& outerFixed) const;

 private:
  const stt::DataflowSpec& spec_;
  std::vector<linalg::IntVector> origin0_;  ///< per tensor: evaluate(0)
  std::map<linalg::IntVector, TileTrace> byShape_;
};

}  // namespace tensorlib::sim
