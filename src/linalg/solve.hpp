// Exact fraction-free integer kernels behind the STT analysis: determinant,
// adjugate, rank, nullspace bases, span membership and canonical row bases.
//
// The matrices are tiny (3x3 transforms, access matrices with a handful of
// rows) and integral, so no fractions are needed: Bareiss elimination keeps
// every intermediate entry a minor of the input, and the inverse of a
// transform is its adjugate over its determinant. Every multiply and add
// goes through checkedMul/checkedAdd/checkedSub, so a case that would not
// fit in int64 throws tensorlib::Error instead of mis-classifying a
// dataflow.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace tensorlib::linalg {

/// Fraction-free reduced row echelon form (integer-preserving Gauss-Jordan
/// with Bareiss' exact division). `matrix` equals `scale` times the RREF of
/// the input: every pivot entry equals `scale`, and every entry is a minor
/// of the input. Pivot choice (first nonzero at or below the pivot row) is
/// the same as textbook Gauss-Jordan, so pivots and rank match it exactly.
struct IntRref {
  IntMatrix matrix;
  std::vector<std::size_t> pivots;  ///< pivot column per pivot row
  std::size_t rank = 0;
  std::int64_t scale = 1;  ///< common pivot value; 1 when rank == 0
  bool oddSwaps = false;   ///< the row exchanges form an odd permutation
};

IntRref fractionFreeRref(const IntMatrix& m);

/// Rank of an integer matrix.
std::size_t rank(const IntMatrix& m);

/// Determinant of a square matrix (closed form for 3x3, Bareiss otherwise).
std::int64_t determinant(const IntMatrix& m);

/// Adjugate of a square matrix: adj(m) * m == m * adj(m) == det(m) * I, so
/// a nonsingular m has inverse adj(m) / det(m).
IntMatrix adjugate(const IntMatrix& m);

/// Basis of the (right) nullspace {x : m*x = 0}, one primitive integer vector
/// per column of the returned matrix (the RREF back-substitution vectors,
/// one per free column). Empty matrix (cols()==0) if trivial.
IntMatrix nullspaceBasis(const IntMatrix& m);

/// True if v lies in the column span of basis (over the rationals).
bool inSpan(const IntMatrix& basis, const IntVector& v);

/// Canonical basis of the row space of m: the nonzero RREF rows, each
/// scaled to a primitive integer vector (first nonzero entry positive). Any
/// two matrices with the same row space yield the same rows.
std::vector<IntVector> canonicalRowBasis(const IntMatrix& m);

}  // namespace tensorlib::linalg
