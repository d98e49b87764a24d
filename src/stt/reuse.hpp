// Reuse-subspace computation (Equations (2)/(3) of the paper).
//
// For a tensor with (selection-restricted) access matrix A and transform T,
// two space-time points (p,t), (p',t') touch the same tensor element iff
// A·T⁻¹·(p,t) == A·T⁻¹·(p',t'), i.e. their difference lies in
// null(A·T⁻¹) = T·null(A). We compute that subspace exactly and hand its
// basis to the Table-I classifier. This is mathematically equivalent to the
// paper's Equation (3) (eigenvectors of E − (AT⁻¹)⁻(AT⁻¹), which is the
// projector onto the same nullspace) but needs no pseudoinverse.
#pragma once

#include "linalg/matrix.hpp"
#include "linalg/solve.hpp"
#include "stt/transform.hpp"

namespace tensorlib::stt {

/// Reuse subspace of one tensor in space-time coordinates.
struct ReuseAnalysis {
  /// Basis of null(A_sel) in selected-loop coordinates; 3 x r, columns are
  /// primitive integer vectors.
  linalg::IntMatrix loopBasis;
  /// The same basis mapped to space-time: columns of T * loopBasis, each
  /// reduced to primitive form. 3 x r. Used for classification (Table I
  /// cares about directions only).
  linalg::IntMatrix spaceTimeBasis;
  /// Exact lattice basis T * loopBasis without primitive reduction: the true
  /// reuse lattice in space-time, whose strides the simulators must honor
  /// (a reuse step can move more than one PE / more than one cycle).
  linalg::IntMatrix latticeBasis;
  /// r = dim of the reuse subspace (0..3).
  std::size_t rank = 0;
};

/// Computes the reuse subspace under transform `t` of an access restricted
/// to the three selected loops, given that access's nullspace basis
/// (linalg::nullspaceBasis of its coefficients: 3 x r, primitive columns).
/// The basis does not depend on T, so a sweep over many transforms computes
/// it once per selection (SpecContext::reuseBases) and only the mapping
/// through T runs per candidate.
ReuseAnalysis analyzeReuse(const linalg::IntMatrix& loopBasis,
                           const SpaceTimeTransform& t);

}  // namespace tensorlib::stt
