// Differential test: the fraction-free integer kernels (linalg/solve.hpp)
// against the Rational Gauss-Jordan oracle (rational_oracle.hpp) on seeded
// random integer matrices from 1x1 to 5x5 with entries in [-6, 6], singular
// ones included. Both sides use the same pivot rule, so every answer must
// agree exactly: determinant, adjugate vs inverse, rank, pivots, the scaled
// RREF, nullspace bases, span membership and the canonical reuse-plane rows
// signatures hash. Plus: inputs that overflow int64 throw instead of
// answering.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "linalg/solve.hpp"
#include "rational_oracle.hpp"
#include "stt/transform.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"

namespace tensorlib::linalg {
namespace {

constexpr std::int64_t kEntry = 6;

/// Random rows x cols matrix; about a third are made singular-by-construction
/// (one row, or one column, replaced by a combination of the others).
IntMatrix randomMatrix(Prng& prng, std::size_t rows, std::size_t cols) {
  IntMatrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) m.at(i, j) = prng.uniformInt(-kEntry, kEntry);
  const std::int64_t mode = prng.uniformInt(0, 2);
  if (mode == 1 && rows >= 2) {
    const std::int64_t a = prng.uniformInt(-2, 2), b = prng.uniformInt(-2, 2);
    for (std::size_t j = 0; j < cols; ++j)
      m.at(rows - 1, j) = a * m.at(0, j) + b * m.at(rows > 2 ? 1 : 0, j);
  } else if (mode == 2 && cols >= 2) {
    const std::int64_t a = prng.uniformInt(-2, 2);
    for (std::size_t i = 0; i < rows; ++i) m.at(i, cols - 1) = a * m.at(i, 0);
  }
  return m;
}

IntVector randomVector(Prng& prng, std::size_t n) {
  IntVector v(n);
  for (auto& x : v) x = prng.uniformInt(-kEntry, kEntry);
  return v;
}

class KernelDiffTest : public ::testing::TestWithParam<int> {};

TEST_P(KernelDiffTest, IntegerKernelsMatchRationalOracle) {
  Prng prng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  int singular = 0, nonsingular = 0;
  for (std::size_t rows = 1; rows <= 5; ++rows)
    for (std::size_t cols = 1; cols <= 5; ++cols)
      for (int trial = 0; trial < 12; ++trial) {
        const IntMatrix m = randomMatrix(prng, rows, cols);
        SCOPED_TRACE(m.str());

        // Rank, pivots, and the RREF up to the common scale.
        const oracle::Rref ref = oracle::rref(toRational(m));
        const IntRref red = fractionFreeRref(m);
        ASSERT_EQ(red.rank, ref.rank);
        EXPECT_EQ(rank(m), ref.rank);
        EXPECT_EQ(red.pivots, ref.pivots);
        for (std::size_t i = 0; i < rows; ++i)
          for (std::size_t j = 0; j < cols; ++j)
            EXPECT_EQ(Rational(red.matrix.at(i, j)), ref.matrix.at(i, j) * Rational(red.scale));

        EXPECT_EQ(nullspaceBasis(m), oracle::nullspaceBasis(m));
        EXPECT_EQ(canonicalRowBasis(m), oracle::canonicalRowBasis(m));

        // Span membership: a random vector, and one built inside the span.
        const IntVector outside = randomVector(prng, rows);
        EXPECT_EQ(inSpan(m, outside), oracle::inSpan(m, outside));
        IntVector inside(rows, 0);
        for (std::size_t j = 0; j < cols; ++j) {
          const std::int64_t c = prng.uniformInt(-3, 3);
          for (std::size_t i = 0; i < rows; ++i) inside[i] += c * m.at(i, j);
        }
        EXPECT_TRUE(inSpan(m, inside));
        EXPECT_TRUE(oracle::inSpan(m, inside));

        if (rows != cols) continue;
        const std::int64_t det = determinant(m);
        EXPECT_EQ(det, oracle::determinant(m));
        const IntMatrix adj = adjugate(m);
        IntMatrix scaled(rows, rows);
        for (std::size_t i = 0; i < rows; ++i) scaled.at(i, i) = det;
        EXPECT_EQ(adj * m, scaled);
        EXPECT_EQ(m * adj, scaled);
        const auto inv = oracle::inverse(m);
        if (det == 0) {
          ++singular;
          EXPECT_FALSE(inv.has_value());
        } else {
          ++nonsingular;
          ASSERT_TRUE(inv.has_value());
          for (std::size_t i = 0; i < rows; ++i)
            for (std::size_t j = 0; j < rows; ++j)
              EXPECT_EQ(Rational(adj.at(i, j)), inv->at(i, j) * Rational(det));
        }
      }
  // The sweep must exercise both branches.
  EXPECT_GT(singular, 5);
  EXPECT_GT(nonsingular, 5);
}

TEST_P(KernelDiffTest, TransformInvertMatchesRationalInverse) {
  Prng prng(static_cast<std::uint64_t>(GetParam()) * 15485863 + 3);
  int checked = 0;
  while (checked < 40) {
    const IntMatrix t = randomMatrix(prng, 3, 3);
    if (oracle::determinant(t) == 0) {
      EXPECT_THROW(stt::SpaceTimeTransform{t}, Error);
      continue;
    }
    ++checked;
    const stt::SpaceTimeTransform transform(t);
    const RatMatrix inv = *oracle::inverse(t);
    for (int k = 0; k < 8; ++k) {
      const IntVector st = randomVector(prng, 3);
      RatVector x = inv * RatVector{Rational(st[0]), Rational(st[1]), Rational(st[2])};
      const bool integral = x[0].isInteger() && x[1].isInteger() && x[2].isInteger();
      const auto back = transform.invert(st);
      ASSERT_EQ(back.has_value(), integral) << t.str();
      if (integral)
        EXPECT_EQ(*back, (IntVector{x[0].toInteger(), x[1].toInteger(), x[2].toInteger()}));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelDiffTest, ::testing::Range(0, 6));

TEST(KernelOverflow, EntriesNearTwoToTheSixtyTwoThrow) {
  const std::int64_t big = std::int64_t{1} << 62;
  const IntMatrix m2{{big, 3}, {5, big - 1}};
  EXPECT_THROW(determinant(m2), Error);
  EXPECT_THROW(fractionFreeRref(m2), Error);
  EXPECT_THROW(rank(m2), Error);
  EXPECT_THROW(nullspaceBasis(IntMatrix{{big, 3, 1}, {5, big - 1, 2}}), Error);
  EXPECT_THROW(canonicalRowBasis(m2), Error);
  EXPECT_THROW(inSpan(IntMatrix{{big}, {7}}, IntVector{3, big - 1}), Error);
  const IntMatrix m3{{big, 1, 0}, {1, big, 0}, {0, 0, 1}};
  EXPECT_THROW(determinant(m3), Error);
  EXPECT_THROW(adjugate(m3), Error);
  EXPECT_THROW(stt::SpaceTimeTransform{m3}, Error);
  // A transform that fits, inverted at a point whose adj(T)·(p,t) overflows.
  const stt::SpaceTimeTransform t(IntMatrix{{1, 0, 0}, {0, 1, 0}, {2, 1, 1}});
  EXPECT_THROW(t.invert(IntVector{big, big, 0}), Error);
  EXPECT_THROW(exactQuotient(std::numeric_limits<std::int64_t>::min(), -1), Error);
}

}  // namespace
}  // namespace tensorlib::linalg
