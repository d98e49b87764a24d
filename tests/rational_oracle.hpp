// Rational Gauss-Jordan oracle for the fraction-free integer kernels in
// linalg/solve.hpp: textbook exact elimination over Rational, an independent
// implementation the differential tests compare the integer kernels against
// (same pivot rule, so RREF, rank, pivots, nullspace and canonical rows must
// agree exactly).
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "linalg/matrix.hpp"

namespace tensorlib::linalg::oracle {

/// Result of Gauss-Jordan elimination.
struct Rref {
  RatMatrix matrix;                 ///< reduced row echelon form
  std::vector<std::size_t> pivots;  ///< pivot column per pivot row
  std::size_t rank = 0;
};

/// Reduced row echelon form via exact Gauss-Jordan elimination.
inline Rref rref(const RatMatrix& input) {
  Rref out;
  out.matrix = input;
  RatMatrix& m = out.matrix;
  const std::size_t rows = m.rows();
  const std::size_t cols = m.cols();
  std::size_t pivotRow = 0;
  for (std::size_t c = 0; c < cols && pivotRow < rows; ++c) {
    // Find a nonzero pivot in column c at or below pivotRow.
    std::size_t sel = pivotRow;
    while (sel < rows && m.at(sel, c).isZero()) ++sel;
    if (sel == rows) continue;
    if (sel != pivotRow)
      for (std::size_t j = 0; j < cols; ++j) std::swap(m.at(sel, j), m.at(pivotRow, j));
    const Rational inv = m.at(pivotRow, c).reciprocal();
    for (std::size_t j = 0; j < cols; ++j) m.at(pivotRow, j) *= inv;
    for (std::size_t r = 0; r < rows; ++r) {
      if (r == pivotRow || m.at(r, c).isZero()) continue;
      const Rational factor = m.at(r, c);
      for (std::size_t j = 0; j < cols; ++j) m.at(r, j) -= factor * m.at(pivotRow, j);
    }
    out.pivots.push_back(c);
    ++pivotRow;
  }
  out.rank = pivotRow;
  return out;
}

inline std::size_t rank(const RatMatrix& m) { return rref(m).rank; }
inline std::size_t rank(const IntMatrix& m) { return rank(toRational(m)); }

/// Determinant of a square rational matrix (exact, by elimination).
inline Rational determinant(const RatMatrix& input) {
  TL_CHECK(input.rows() == input.cols(), "determinant of non-square matrix");
  RatMatrix m = input;
  const std::size_t n = m.rows();
  Rational det(1);
  for (std::size_t c = 0; c < n; ++c) {
    std::size_t sel = c;
    while (sel < n && m.at(sel, c).isZero()) ++sel;
    if (sel == n) return Rational(0);
    if (sel != c) {
      for (std::size_t j = 0; j < n; ++j) std::swap(m.at(sel, j), m.at(c, j));
      det = -det;
    }
    det *= m.at(c, c);
    const Rational inv = m.at(c, c).reciprocal();
    for (std::size_t r = c + 1; r < n; ++r) {
      if (m.at(r, c).isZero()) continue;
      const Rational factor = m.at(r, c) * inv;
      for (std::size_t j = c; j < n; ++j) m.at(r, j) -= factor * m.at(c, j);
    }
  }
  return det;
}

inline std::int64_t determinant(const IntMatrix& m) {
  return determinant(toRational(m)).toInteger();
}

/// Inverse of a square matrix; nullopt if singular.
inline std::optional<RatMatrix> inverse(const RatMatrix& m) {
  TL_CHECK(m.rows() == m.cols(), "inverse of non-square matrix");
  const std::size_t n = m.rows();
  // Augment [m | I] and reduce.
  RatMatrix aug(n, 2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) aug.at(i, j) = m.at(i, j);
    aug.at(i, n + i) = Rational(1);
  }
  const Rref red = rref(aug);
  if (red.rank < n || red.pivots[n - 1] >= n) return std::nullopt;
  RatMatrix inv(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) inv.at(i, j) = red.matrix.at(i, n + j);
  return inv;
}

inline std::optional<RatMatrix> inverse(const IntMatrix& m) {
  return inverse(toRational(m));
}

/// Basis of the (right) nullspace {x : m*x = 0}, one primitive integer vector
/// per column of the returned matrix. Empty matrix (cols()==0) if trivial.
inline IntMatrix nullspaceBasis(const RatMatrix& m) {
  const std::size_t cols = m.cols();
  const Rref red = rref(m);
  std::vector<bool> isPivot(cols, false);
  for (auto p : red.pivots) isPivot[p] = true;

  std::vector<IntVector> basis;
  for (std::size_t freeCol = 0; freeCol < cols; ++freeCol) {
    if (isPivot[freeCol]) continue;
    // Back-substitute: free variable = 1, other free vars = 0.
    RatVector v(cols, Rational(0));
    v[freeCol] = Rational(1);
    for (std::size_t pr = 0; pr < red.pivots.size(); ++pr)
      v[red.pivots[pr]] = -red.matrix.at(pr, freeCol);
    basis.push_back(clearDenominators(v));
  }
  IntMatrix out(cols, basis.size());
  for (std::size_t j = 0; j < basis.size(); ++j)
    for (std::size_t i = 0; i < cols; ++i) out.at(i, j) = basis[j][i];
  return out;
}

inline IntMatrix nullspaceBasis(const IntMatrix& m) {
  return nullspaceBasis(toRational(m));
}

/// True if v lies in the column span of basis (both exact).
inline bool inSpan(const RatMatrix& basis, const RatVector& v) {
  if (basis.cols() == 0) return isZeroVector(v);
  TL_CHECK(basis.rows() == v.size(), "inSpan: dimension mismatch");
  // v in span(basis) iff rank([basis | v]) == rank(basis).
  RatMatrix aug(basis.rows(), basis.cols() + 1);
  for (std::size_t i = 0; i < basis.rows(); ++i) {
    for (std::size_t j = 0; j < basis.cols(); ++j) aug.at(i, j) = basis.at(i, j);
    aug.at(i, basis.cols()) = v[i];
  }
  return rank(aug) == rank(basis);
}

inline bool inSpan(const IntMatrix& basis, const IntVector& v) {
  RatVector rv(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) rv[i] = Rational(v[i]);
  return inSpan(toRational(basis), rv);
}

/// The canonical reuse-plane rows signatures hash: each nonzero RREF row
/// with denominators cleared to a primitive integer vector.
inline std::vector<IntVector> canonicalRowBasis(const IntMatrix& m) {
  const Rref red = rref(toRational(m));
  std::vector<IntVector> rows;
  for (std::size_t i = 0; i < red.rank; ++i)
    rows.push_back(clearDenominators(red.matrix.row(i)));
  return rows;
}

/// Solves m*x = b exactly; nullopt if inconsistent. If the system is
/// under-determined, free variables are set to zero.
inline std::optional<RatVector> solve(const RatMatrix& m, const RatVector& b) {
  TL_CHECK(m.rows() == b.size(), "solve: dimension mismatch");
  RatMatrix aug(m.rows(), m.cols() + 1);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) aug.at(i, j) = m.at(i, j);
    aug.at(i, m.cols()) = b[i];
  }
  const Rref red = rref(aug);
  // Inconsistent iff a pivot lands in the augmented column.
  for (auto p : red.pivots)
    if (p == m.cols()) return std::nullopt;
  RatVector x(m.cols(), Rational(0));
  for (std::size_t pr = 0; pr < red.pivots.size(); ++pr)
    x[red.pivots[pr]] = red.matrix.at(pr, m.cols());
  return x;
}

}  // namespace tensorlib::linalg::oracle
