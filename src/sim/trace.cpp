#include "sim/trace.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <set>

#include "support/error.hpp"

namespace tensorlib::sim {

namespace {

using Point = std::array<std::int64_t, 3>;  // (p1, p2, t)

/// Extended gcd: returns g = gcd(a, b) and coefficients with x*a + y*b = g.
std::int64_t egcd(std::int64_t a, std::int64_t b, std::int64_t& x,
                  std::int64_t& y) {
  if (b == 0) {
    x = (a >= 0) ? 1 : -1;
    y = 0;
    return std::abs(a);
  }
  std::int64_t x1 = 0, y1 = 0;
  const std::int64_t g = egcd(b, a % b, x1, y1);
  x = y1;
  y = x1 - (a / b) * y1;
  return g;
}

linalg::IntVector scaled(const linalg::IntVector& v, std::int64_t s) {
  linalg::IntVector out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = v[i] * s;
  return out;
}

linalg::IntVector added(const linalg::IntVector& a, const linalg::IntVector& b) {
  linalg::IntVector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

}  // namespace

Movement deriveMovement(const stt::TensorDataflow& df) {
  Movement mv;
  const auto& basis = df.latticeBasis;
  const std::size_t r = basis.cols();
  if (r == 0) return mv;  // unicast: nothing moves

  if (r == 1) {
    linalg::IntVector v = basis.col(0);
    if (v[2] == 0) {
      mv.bus = Movement::Bus::Line;  // multicast line
      mv.busDir = v;
    } else {
      if (v[2] < 0) v = scaled(v, -1);
      mv.hasStep = true;
      mv.step = v;
    }
    return mv;
  }

  // rank >= 2: a dt == 0 direction always exists (combine basis vectors to
  // cancel the time components), so there is a bus; the register step is the
  // minimal-positive-dt lattice combination when the plane is not orthogonal
  // to the t-axis.
  std::vector<linalg::IntVector> vs;
  for (std::size_t j = 0; j < r; ++j) vs.push_back(basis.col(j));

  // Fold the basis pairwise: g = gcd of time components with coefficients.
  linalg::IntVector u = vs[0];
  for (std::size_t j = 1; j < r; ++j) {
    std::int64_t x = 0, y = 0;
    const std::int64_t g = egcd(u[2], vs[j][2], x, y);
    if (g == 0) continue;  // both time components zero
    u = added(scaled(u, x), scaled(vs[j], y));
    TL_CHECK(u[2] == g, "egcd combination failed");
  }
  if (u[2] != 0) {
    if (u[2] < 0) u = scaled(u, -1);
    mv.hasStep = true;
    mv.step = u;
  }

  // Bus orientation: a nonzero dt == 0 lattice combination. When the whole
  // plane is spatial (rank 2 with both dt == 0, or rank 3), the "line"
  // degenerates into a plane and the bus is array-global.
  if (df.dataflowClass == stt::DataflowClass::Broadcast2D ||
      df.dataflowClass == stt::DataflowClass::FullReuse) {
    mv.bus = Movement::Bus::Global;
  } else {
    mv.bus = Movement::Bus::Line;
    // w = d2*v1 - d1*v2 cancels the time components exactly.
    const linalg::IntVector w =
        added(scaled(vs[0], vs[1][2]), scaled(vs[1], -vs[0][2]));
    TL_CHECK(w[2] == 0, "bus direction has a time component");
    TL_CHECK(w[0] != 0 || w[1] != 0, "degenerate bus direction");
    mv.busDir = w;
  }
  return mv;
}

std::int64_t TileTrace::totalWords() const {
  std::int64_t total = 0;
  for (auto w : injectionWords) total += w;
  return total;
}

std::int64_t TileTrace::peakDemand() const {
  std::int64_t peak = 0;
  for (auto d : demandPerCycle) peak = std::max(peak, d);
  return peak;
}

TileTrace buildTileTrace(const stt::DataflowSpec& spec,
                         const linalg::IntVector& shape) {
  const linalg::IntVector origin(3, 0);
  linalg::IntVector outer(spec.algebra().loopCount(), 0);
  return buildTileTrace(spec, shape, origin, outer);
}

TileTraceCache::TileTraceCache(const stt::DataflowSpec& spec) : spec_(spec) {
  const linalg::IntVector zero(spec_.algebra().loopCount(), 0);
  for (const auto& role : spec_.tensors())
    origin0_.push_back(role.fullAccess.evaluate(zero));
}

const TileTrace& TileTraceCache::base(const linalg::IntVector& shape) {
  const auto it = byShape_.find(shape);
  if (it != byShape_.end()) return it->second;
  return byShape_.emplace(shape, buildTileTrace(spec_, shape)).first->second;
}

std::vector<linalg::IntVector> TileTraceCache::offsets(
    const linalg::IntVector& tileOrigin,
    const linalg::IntVector& outerFixed) const {
  const auto& selIdx = spec_.selection().indices();
  linalg::IntVector x = outerFixed;
  for (std::size_t j = 0; j < 3; ++j) x[selIdx[j]] = tileOrigin[j];

  std::vector<linalg::IntVector> delta;
  delta.reserve(spec_.tensors().size());
  for (std::size_t t = 0; t < spec_.tensors().size(); ++t) {
    linalg::IntVector d = spec_.tensors()[t].fullAccess.evaluate(x);
    for (std::size_t k = 0; k < d.size(); ++k) d[k] -= origin0_[t][k];
    delta.push_back(std::move(d));
  }
  return delta;
}

TileTrace TileTraceCache::materialize(const linalg::IntVector& shape,
                                      const linalg::IntVector& tileOrigin,
                                      const linalg::IntVector& outerFixed) {
  TileTrace out = base(shape);
  const std::vector<linalg::IntVector> delta = offsets(tileOrigin, outerFixed);
  for (auto& inj : out.injections)
    inj.element = added(inj.element, delta[inj.tensorIndex]);
  const std::size_t outSlot = spec_.tensors().size() - 1;
  for (auto& ev : out.outputs) ev.element = added(ev.element, delta[outSlot]);
  return out;
}

TileTrace buildTileTrace(const stt::DataflowSpec& spec,
                         const linalg::IntVector& shape,
                         const linalg::IntVector& tileOrigin,
                         const linalg::IntVector& outerFixed) {
  TL_CHECK(shape.size() == 3 && tileOrigin.size() == 3,
           "buildTileTrace: shape/origin must be 3-D");
  TL_CHECK(outerFixed.size() == spec.algebra().loopCount(),
           "buildTileTrace: outerFixed must cover the whole nest");
  const linalg::IntMatrix& t = spec.transform().matrix();

  // Normalization offsets: the min of each space-time coordinate over the
  // tile box (linear form => min is the sum of per-loop minima).
  std::int64_t lo[3] = {0, 0, 0}, hi[3] = {0, 0, 0};
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t j = 0; j < 3; ++j) {
      const std::int64_t c = t.at(r, j) * (shape[j] - 1);
      if (c < 0) lo[r] += c;
      else hi[r] += c;
    }

  TileTrace out;
  out.p1Span = hi[0] - lo[0] + 1;
  out.p2Span = hi[1] - lo[1] + 1;
  out.cycles = hi[2] - lo[2] + 1;

  // --- Active points.
  const std::int64_t volume = shape[0] * shape[1] * shape[2];
  out.active.reserve(static_cast<std::size_t>(volume));
  linalg::IntVector local(3, 0);
  while (true) {
    const linalg::IntVector st = t * local;
    ActivePoint ap;
    ap.iteration = local;
    ap.p1 = st[0] - lo[0];
    ap.p2 = st[1] - lo[1];
    ap.t = st[2] - lo[2];
    out.active.push_back(ap);

    std::size_t d = 3;
    bool done = false;
    while (d-- > 0) {
      if (++local[d] < shape[d]) break;
      local[d] = 0;
      if (d == 0) done = true;
    }
    if (done) break;
  }
  std::sort(out.active.begin(), out.active.end(),
            [](const ActivePoint& a, const ActivePoint& b) { return a.t < b.t; });

  // Full-nest iteration vector for element-index computation.
  const auto& selIdx = spec.selection().indices();
  auto fullIteration = [&](const linalg::IntVector& localSel) {
    linalg::IntVector x = outerFixed;
    for (std::size_t j = 0; j < 3; ++j)
      x[selIdx[j]] = tileOrigin[j] + localSel[j];
    return x;
  };

  out.injectionWords.assign(spec.tensors().size(), 0);
  out.demandPerCycle.assign(static_cast<std::size_t>(out.cycles), 0);

  // --- Input injections: per tensor, group active points by element and run
  // the movement DP (register steps need an exact covered predecessor; a bus
  // covers every same-cycle user at once).
  for (std::size_t ti = 0; ti < spec.tensors().size(); ++ti) {
    const auto& role = spec.tensors()[ti];
    if (role.isOutput) continue;
    const Movement mv = deriveMovement(role.dataflow);

    std::map<linalg::IntVector, std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < out.active.size(); ++i)
      groups[role.fullAccess.evaluate(fullIteration(out.active[i].iteration))]
          .push_back(i);

    for (const auto& [element, idxs] : groups) {
      std::set<Point> covered;
      std::size_t i = 0;
      while (i < idxs.size()) {
        // Points arrive sorted by t (idxs preserve active order).
        const std::int64_t cycle = out.active[idxs[i]].t;
        std::size_t j = i;
        std::vector<std::size_t> uncovered;
        for (; j < idxs.size() && out.active[idxs[j]].t == cycle; ++j) {
          const ActivePoint& ap = out.active[idxs[j]];
          bool cov = false;
          if (mv.hasStep) {
            const Point pred{ap.p1 - mv.step[0], ap.p2 - mv.step[1],
                             ap.t - mv.step[2]};
            cov = covered.count(pred) != 0;
          }
          if (cov) {
            covered.insert({ap.p1, ap.p2, ap.t});
          } else {
            uncovered.push_back(idxs[j]);
          }
        }
        if (mv.hasBus()) {
          // The bus must (re)fire whenever any same-cycle user cannot get
          // the value from its own register chain — exactly the condition
          // under which the generated hardware asserts bus-valid.
          if (!uncovered.empty()) {
            const ActivePoint& anchor = out.active[uncovered.front()];
            out.injections.push_back(
                {ti, element, cycle, anchor.p1, anchor.p2, /*viaBus=*/true});
            out.injectionWords[ti] += 1;
            out.demandPerCycle[static_cast<std::size_t>(cycle)] += 1;
          }
          for (std::size_t k : uncovered) {
            const ActivePoint& ap = out.active[k];
            covered.insert({ap.p1, ap.p2, ap.t});
          }
        } else {
          for (std::size_t k : uncovered) {
            const ActivePoint& ap = out.active[k];
            out.injections.push_back(
                {ti, element, ap.t, ap.p1, ap.p2, /*viaBus=*/false});
            out.injectionWords[ti] += 1;
            out.demandPerCycle[static_cast<std::size_t>(ap.t)] += 1;
            covered.insert({ap.p1, ap.p2, ap.t});
          }
        }
        i = j;
      }
    }
  }
  std::sort(out.injections.begin(), out.injections.end(),
            [](const Injection& a, const Injection& b) { return a.cycle < b.cycle; });

  // --- Output events: one write per distinct output element per tile, at
  // the cycle/PE of its last contributing MAC (accumulators, systolic chain
  // exits and reduction-tree roots all emit exactly then). Unicast outputs
  // are covered too: with rank-0 reuse each element has exactly one MAC.
  {
    const auto& role = spec.outputRole();
    const std::size_t outSlot = spec.tensors().size() - 1;
    std::map<linalg::IntVector, OutputEvent> events;
    for (const auto& ap : out.active) {
      const linalg::IntVector element =
          role.fullAccess.evaluate(fullIteration(ap.iteration));
      auto it = events.find(element);
      if (it == events.end()) {
        events.emplace(element, OutputEvent{element, ap.t, ap.p1, ap.p2});
      } else if (ap.t > it->second.cycle) {
        it->second = OutputEvent{element, ap.t, ap.p1, ap.p2};
      }
    }
    for (auto& [element, ev] : events) {
      out.outputs.push_back(ev);
      out.injectionWords[outSlot] += 1;
      out.demandPerCycle[static_cast<std::size_t>(ev.cycle)] += 1;
    }
    std::sort(out.outputs.begin(), out.outputs.end(),
              [](const OutputEvent& a, const OutputEvent& b) {
                return a.cycle < b.cycle;
              });
  }
  return out;
}

}  // namespace tensorlib::sim
