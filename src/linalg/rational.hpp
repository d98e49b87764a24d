// Exact rational arithmetic over int64 numerator/denominator, plus the
// overflow-checked int64 helpers (checkedMul/Add/Sub, exactQuotient) that
// the fraction-free kernels in linalg/solve.hpp are built on.
//
// The STT analysis never touches floating point, so dataflow classification
// cannot be corrupted by rounding. Magnitudes stay tiny (3x3 matrices with
// entries in {-1,0,1} and small loop bounds), but every operation still
// checks for overflow to fail loudly rather than silently mis-classify.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

namespace tensorlib::linalg {

/// Exact rational number, always stored normalized: gcd(num, den) == 1 and
/// den > 0. Zero is 0/1.
class Rational {
 public:
  constexpr Rational() : num_(0), den_(1) {}
  Rational(std::int64_t value) : num_(value), den_(1) {}  // NOLINT implicit
  Rational(std::int64_t num, std::int64_t den);

  std::int64_t num() const { return num_; }
  std::int64_t den() const { return den_; }

  bool isZero() const { return num_ == 0; }
  bool isInteger() const { return den_ == 1; }
  /// Sign of the value: -1, 0 or +1.
  int sign() const { return num_ < 0 ? -1 : (num_ > 0 ? 1 : 0); }

  Rational operator-() const;
  Rational operator+(const Rational& o) const;
  Rational operator-(const Rational& o) const;
  Rational operator*(const Rational& o) const;
  Rational operator/(const Rational& o) const;
  Rational& operator+=(const Rational& o) { return *this = *this + o; }
  Rational& operator-=(const Rational& o) { return *this = *this - o; }
  Rational& operator*=(const Rational& o) { return *this = *this * o; }
  Rational& operator/=(const Rational& o) { return *this = *this / o; }

  bool operator==(const Rational& o) const { return num_ == o.num_ && den_ == o.den_; }
  bool operator!=(const Rational& o) const { return !(*this == o); }
  bool operator<(const Rational& o) const;
  bool operator<=(const Rational& o) const { return *this < o || *this == o; }
  bool operator>(const Rational& o) const { return o < *this; }
  bool operator>=(const Rational& o) const { return o <= *this; }

  Rational abs() const { return num_ < 0 ? -*this : *this; }
  Rational reciprocal() const;

  /// Converts to int64; requires isInteger().
  std::int64_t toInteger() const;
  double toDouble() const { return static_cast<double>(num_) / static_cast<double>(den_); }

  std::string str() const;

 private:
  void normalize();

  std::int64_t num_;
  std::int64_t den_;
};

std::ostream& operator<<(std::ostream& os, const Rational& r);

/// Non-negative gcd; gcd(0,0) == 0.
std::int64_t gcd64(std::int64_t a, std::int64_t b);
/// Least common multiple; lcm(0,x) == 0.
std::int64_t lcm64(std::int64_t a, std::int64_t b);

/// Multiplication with overflow detection (throws tensorlib::Error).
std::int64_t checkedMul(std::int64_t a, std::int64_t b);
/// Addition with overflow detection (throws tensorlib::Error).
std::int64_t checkedAdd(std::int64_t a, std::int64_t b);
/// Subtraction with overflow detection (throws tensorlib::Error).
std::int64_t checkedSub(std::int64_t a, std::int64_t b);
/// a / b when b divides a, nullopt otherwise. Throws tensorlib::Error when
/// b == 0 or the quotient overflows (INT64_MIN / -1).
std::optional<std::int64_t> exactQuotient(std::int64_t a, std::int64_t b);

}  // namespace tensorlib::linalg
