#include "linalg/solve.hpp"

#include <utility>

namespace tensorlib::linalg {

namespace {

/// a*d - b*c, overflow-checked.
std::int64_t det2(std::int64_t a, std::int64_t b, std::int64_t c, std::int64_t d) {
  return checkedSub(checkedMul(a, d), checkedMul(b, c));
}

/// Signed 3x3 cofactor C(r, c); the cyclic index order folds in the sign.
std::int64_t cofactor3(const IntMatrix& m, std::size_t r, std::size_t c) {
  const std::size_t r1 = (r + 1) % 3, r2 = (r + 2) % 3;
  const std::size_t c1 = (c + 1) % 3, c2 = (c + 2) % 3;
  return det2(m.at(r1, c1), m.at(r1, c2), m.at(r2, c1), m.at(r2, c2));
}

/// m without row `skipRow` and column `skipCol`.
IntMatrix minorMatrix(const IntMatrix& m, std::size_t skipRow, std::size_t skipCol) {
  IntMatrix out(m.rows() - 1, m.cols() - 1);
  for (std::size_t i = 0, oi = 0; i < m.rows(); ++i) {
    if (i == skipRow) continue;
    for (std::size_t j = 0, oj = 0; j < m.cols(); ++j) {
      if (j == skipCol) continue;
      out.at(oi, oj++) = m.at(i, j);
    }
    ++oi;
  }
  return out;
}

}  // namespace

IntRref fractionFreeRref(const IntMatrix& input) {
  IntRref out;
  out.matrix = input;
  IntMatrix& m = out.matrix;
  const std::size_t rows = m.rows();
  const std::size_t cols = m.cols();
  std::int64_t previous = 1;
  std::size_t pivotRow = 0;
  for (std::size_t c = 0; c < cols && pivotRow < rows; ++c) {
    std::size_t sel = pivotRow;
    while (sel < rows && m.at(sel, c) == 0) ++sel;
    if (sel == rows) continue;
    if (sel != pivotRow) {
      for (std::size_t j = 0; j < cols; ++j) std::swap(m.at(sel, j), m.at(pivotRow, j));
      out.oddSwaps = !out.oddSwaps;
    }
    // Every other row, above and below: row = (p*row - f*pivotRow) / previous.
    // Rows with f == 0 are still rescaled by p/previous, which keeps all
    // pivots equal and every entry a minor of the input (Sylvester's
    // identity), so the division is exact.
    const std::int64_t p = m.at(pivotRow, c);
    for (std::size_t r = 0; r < rows; ++r) {
      if (r == pivotRow) continue;
      const std::int64_t f = m.at(r, c);
      for (std::size_t j = 0; j < cols; ++j) {
        const auto q = exactQuotient(det2(p, f, m.at(pivotRow, j), m.at(r, j)), previous);
        TL_CHECK(q.has_value(), "fraction-free elimination: inexact division");
        m.at(r, j) = *q;
      }
    }
    out.pivots.push_back(c);
    previous = p;
    ++pivotRow;
  }
  out.rank = pivotRow;
  out.scale = previous;
  return out;
}

std::size_t rank(const IntMatrix& m) { return fractionFreeRref(m).rank; }

std::int64_t determinant(const IntMatrix& m) {
  TL_CHECK(m.rows() == m.cols(), "determinant of non-square matrix");
  if (m.rows() == 3) {
    std::int64_t det = 0;
    for (std::size_t c = 0; c < 3; ++c)
      det = checkedAdd(det, checkedMul(m.at(0, c), cofactor3(m, 0, c)));
    return det;
  }
  const IntRref red = fractionFreeRref(m);
  if (red.rank < m.rows()) return 0;
  return red.oddSwaps ? checkedSub(0, red.scale) : red.scale;
}

IntMatrix adjugate(const IntMatrix& m) {
  TL_CHECK(m.rows() == m.cols(), "adjugate of non-square matrix");
  const std::size_t n = m.rows();
  IntMatrix adj(n, n);
  if (n == 3) {
    for (std::size_t i = 0; i < 3; ++i)
      for (std::size_t j = 0; j < 3; ++j) adj.at(i, j) = cofactor3(m, j, i);
  } else {
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) {
        const std::int64_t minor = determinant(minorMatrix(m, j, i));
        adj.at(i, j) = (i + j) % 2 == 0 ? minor : checkedSub(0, minor);
      }
  }
  return adj;
}

IntMatrix nullspaceBasis(const IntMatrix& m) {
  const std::size_t cols = m.cols();
  const IntRref red = fractionFreeRref(m);
  std::vector<bool> isPivot(cols, false);
  for (auto p : red.pivots) isPivot[p] = true;

  // Back-substitution on scale * RREF: free variable = scale, other free
  // variables = 0, pivot variables = -entry. That is the rational RREF
  // vector times scale, so its primitive form is the same direction.
  std::vector<IntVector> basis;
  for (std::size_t freeCol = 0; freeCol < cols; ++freeCol) {
    if (isPivot[freeCol]) continue;
    IntVector v(cols, 0);
    v[freeCol] = red.scale;
    for (std::size_t pr = 0; pr < red.pivots.size(); ++pr)
      v[red.pivots[pr]] = checkedSub(0, red.matrix.at(pr, freeCol));
    basis.push_back(primitive(v));
  }
  IntMatrix out(cols, basis.size());
  for (std::size_t j = 0; j < basis.size(); ++j)
    for (std::size_t i = 0; i < cols; ++i) out.at(i, j) = basis[j][i];
  return out;
}

bool inSpan(const IntMatrix& basis, const IntVector& v) {
  if (basis.cols() == 0) return isZeroVector(v);
  TL_CHECK(basis.rows() == v.size(), "inSpan: dimension mismatch");
  // v in span(basis) iff rank([basis | v]) == rank(basis).
  IntMatrix aug(basis.rows(), basis.cols() + 1);
  for (std::size_t i = 0; i < basis.rows(); ++i) {
    for (std::size_t j = 0; j < basis.cols(); ++j) aug.at(i, j) = basis.at(i, j);
    aug.at(i, basis.cols()) = v[i];
  }
  return rank(aug) == rank(basis);
}

std::vector<IntVector> canonicalRowBasis(const IntMatrix& m) {
  const IntRref red = fractionFreeRref(m);
  std::vector<IntVector> rows;
  rows.reserve(red.rank);
  for (std::size_t i = 0; i < red.rank; ++i) rows.push_back(primitive(red.matrix.row(i)));
  return rows;
}

}  // namespace tensorlib::linalg
