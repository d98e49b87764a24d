// Unit + property tests for the exact kernels: RREF, rank, determinant,
// adjugate/inverse, nullspace, span membership (integer kernels), and the
// Rational oracle's RREF and solver.
#include "linalg/solve.hpp"

#include <gtest/gtest.h>

#include "rational_oracle.hpp"
#include "support/prng.hpp"

namespace tensorlib::linalg {
namespace {

TEST(Rref, IdentityStaysIdentity) {
  const auto r = oracle::rref(toRational(IntMatrix::identity(3)));
  EXPECT_EQ(r.rank, 3u);
  EXPECT_EQ(toInteger(r.matrix), IntMatrix::identity(3));
  const IntRref f = fractionFreeRref(IntMatrix::identity(3));
  EXPECT_EQ(f.rank, 3u);
  EXPECT_EQ(f.scale, 1);
  EXPECT_EQ(f.matrix, IntMatrix::identity(3));
}

TEST(Rref, RankDeficient) {
  IntMatrix m{{1, 2}, {2, 4}};
  EXPECT_EQ(rank(m), 1u);
}

TEST(Determinant, Known) {
  EXPECT_EQ(determinant(IntMatrix{{1, 0, 0}, {0, 1, 0}, {1, 1, 1}}), 1);
  EXPECT_EQ(determinant(IntMatrix{{2, 0}, {0, 3}}), 6);
  EXPECT_EQ(determinant(IntMatrix{{1, 2}, {2, 4}}), 0);
  EXPECT_EQ(determinant(IntMatrix{{0, 1}, {1, 0}}), -1);
}

TEST(Inverse, PaperExample) {
  // T from Fig. 1(b): unimodular, so T^-1 = adj(T) / det(T) is integral.
  IntMatrix t{{1, 0, 0}, {0, 1, 0}, {1, 1, 1}};
  ASSERT_EQ(determinant(t), 1);
  EXPECT_EQ(adjugate(t) * t, IntMatrix::identity(3));
  const auto inv = oracle::inverse(t);
  ASSERT_TRUE(inv.has_value());
  EXPECT_EQ(toInteger(*inv), adjugate(t));
}

TEST(Inverse, SingularHasNoInverse) {
  const IntMatrix m{{1, 2}, {2, 4}};
  EXPECT_EQ(determinant(m), 0);
  EXPECT_EQ(adjugate(m) * m, IntMatrix(2, 2));
  EXPECT_FALSE(oracle::inverse(m).has_value());
}

TEST(Nullspace, FullRankIsTrivial) {
  EXPECT_EQ(nullspaceBasis(IntMatrix::identity(3)).cols(), 0u);
}

TEST(Nullspace, GemmAAccess) {
  // A[m,k] access over loops (m,n,k): nullspace is span{e_n}.
  IntMatrix a{{1, 0, 0}, {0, 0, 1}};
  const IntMatrix basis = nullspaceBasis(a);
  ASSERT_EQ(basis.cols(), 1u);
  EXPECT_EQ(basis.col(0), (IntVector{0, 1, 0}));
}

TEST(Nullspace, ConvInputAccess) {
  // A[c, y+p, x+q] over loops (c,y,x,p,q): rank 3 access => nullity 2,
  // directions (y - p) and (x - q).
  IntMatrix a{{1, 0, 0, 0, 0}, {0, 1, 0, 1, 0}, {0, 0, 1, 0, 1}};
  const IntMatrix basis = nullspaceBasis(a);
  ASSERT_EQ(basis.cols(), 2u);
  for (std::size_t j = 0; j < 2; ++j) {
    const IntVector v = basis.col(j);
    // Check membership in the true nullspace: a * v == 0.
    EXPECT_TRUE(isZeroVector(toRational(a) * RatVector{
                    Rational(v[0]), Rational(v[1]), Rational(v[2]),
                    Rational(v[3]), Rational(v[4])}));
  }
}

TEST(InSpan, Basics) {
  IntMatrix basis(3, 2);
  basis.at(0, 0) = 1;  // (1,0,0)
  basis.at(2, 1) = 1;  // (0,0,1)
  EXPECT_TRUE(inSpan(basis, IntVector{2, 0, -3}));
  EXPECT_FALSE(inSpan(basis, IntVector{0, 1, 0}));
  // Empty basis spans only zero.
  IntMatrix empty(3, 0);
  EXPECT_TRUE(inSpan(empty, IntVector{0, 0, 0}));
  EXPECT_FALSE(inSpan(empty, IntVector{1, 0, 0}));
}

TEST(Solve, ConsistentSystem) {
  RatMatrix m = toRational(IntMatrix{{1, 1}, {1, -1}});
  const auto x = oracle::solve(m, RatVector{Rational(3), Rational(1)});
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ((*x)[0], Rational(2));
  EXPECT_EQ((*x)[1], Rational(1));
}

TEST(Solve, InconsistentReturnsNullopt) {
  RatMatrix m = toRational(IntMatrix{{1, 1}, {2, 2}});
  EXPECT_FALSE(oracle::solve(m, RatVector{Rational(1), Rational(3)}).has_value());
}

// ---------------------------------------------------------------------------
// Property sweep over random small integer matrices: the fundamental
// rank-nullity and inverse identities must hold exactly.
class SolvePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SolvePropertyTest, RankNullityAndInverseRoundTrip) {
  Prng prng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t rows = 1 + prng.next() % 4;
    const std::size_t cols = 1 + prng.next() % 4;
    IntMatrix m(rows, cols);
    for (std::size_t i = 0; i < rows; ++i)
      for (std::size_t j = 0; j < cols; ++j)
        m.at(i, j) = prng.uniformInt(-3, 3);

    const std::size_t r = rank(m);
    const IntMatrix ns = nullspaceBasis(m);
    EXPECT_EQ(r + ns.cols(), cols) << m.str();

    // Every nullspace basis vector satisfies m * v == 0.
    const RatMatrix rm = toRational(m);
    for (std::size_t j = 0; j < ns.cols(); ++j) {
      RatVector v(cols);
      for (std::size_t i = 0; i < cols; ++i) v[i] = Rational(ns.at(i, j));
      EXPECT_TRUE(isZeroVector(rm * v)) << m.str();
    }

    if (rows == cols) {
      // adj(m) * m == m * adj(m) == det(m) * I, singular or not.
      IntMatrix scaled = IntMatrix::identity(rows);
      for (std::size_t i = 0; i < rows; ++i) scaled.at(i, i) = determinant(m);
      EXPECT_EQ(adjugate(m) * m, scaled) << m.str();
      EXPECT_EQ(m * adjugate(m), scaled) << m.str();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolvePropertyTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace tensorlib::linalg
