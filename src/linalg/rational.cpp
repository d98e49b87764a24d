#include "linalg/rational.hpp"

#include <ostream>

#include "support/error.hpp"

namespace tensorlib::linalg {

std::int64_t gcd64(std::int64_t a, std::int64_t b) {
  if (a < 0) a = -a;
  if (b < 0) b = -b;
  while (b != 0) {
    const std::int64_t t = a % b;
    a = b;
    b = t;
  }
  return a;
}

std::int64_t lcm64(std::int64_t a, std::int64_t b) {
  if (a == 0 || b == 0) return 0;
  const std::int64_t g = gcd64(a, b);
  return checkedMul(a / g, b);
}

std::int64_t checkedMul(std::int64_t a, std::int64_t b) {
  std::int64_t result = 0;
  TL_CHECK(!__builtin_mul_overflow(a, b, &result), "int64 overflow in multiplication");
  return result;
}

std::int64_t checkedAdd(std::int64_t a, std::int64_t b) {
  std::int64_t result = 0;
  TL_CHECK(!__builtin_add_overflow(a, b, &result), "int64 overflow in addition");
  return result;
}

std::int64_t checkedSub(std::int64_t a, std::int64_t b) {
  std::int64_t result = 0;
  TL_CHECK(!__builtin_sub_overflow(a, b, &result), "int64 overflow in subtraction");
  return result;
}

std::optional<std::int64_t> exactQuotient(std::int64_t a, std::int64_t b) {
  TL_CHECK(b != 0, "int64 division by zero");
  if (b == -1) return checkedSub(0, a);
  if (a % b != 0) return std::nullopt;
  return a / b;
}

Rational::Rational(std::int64_t num, std::int64_t den) : num_(num), den_(den) {
  TL_CHECK(den != 0, "Rational with zero denominator");
  normalize();
}

void Rational::normalize() {
  if (den_ < 0) {
    num_ = -num_;
    den_ = -den_;
  }
  if (num_ == 0) {
    den_ = 1;
    return;
  }
  const std::int64_t g = gcd64(num_, den_);
  num_ /= g;
  den_ /= g;
}

Rational Rational::operator-() const { return Rational(-num_, den_); }

Rational Rational::operator+(const Rational& o) const {
  // a/b + c/d = (a*(l/b) + c*(l/d)) / l with l = lcm(b, d); keeps magnitudes small.
  const std::int64_t l = lcm64(den_, o.den_);
  const std::int64_t n =
      checkedAdd(checkedMul(num_, l / den_), checkedMul(o.num_, l / o.den_));
  return Rational(n, l);
}

Rational Rational::operator-(const Rational& o) const { return *this + (-o); }

Rational Rational::operator*(const Rational& o) const {
  // Cross-reduce before multiplying to limit growth.
  const std::int64_t g1 = gcd64(num_, o.den_);
  const std::int64_t g2 = gcd64(o.num_, den_);
  return Rational(checkedMul(num_ / g1, o.num_ / g2),
                  checkedMul(den_ / g2, o.den_ / g1));
}

Rational Rational::operator/(const Rational& o) const {
  TL_CHECK(!o.isZero(), "Rational division by zero");
  return *this * o.reciprocal();
}

bool Rational::operator<(const Rational& o) const {
  // num_/den_ < o.num_/o.den_  <=>  num_*o.den_ < o.num_*den_  (dens > 0)
  return checkedMul(num_, o.den_) < checkedMul(o.num_, den_);
}

Rational Rational::reciprocal() const {
  TL_CHECK(num_ != 0, "reciprocal of zero");
  return Rational(den_, num_);
}

std::int64_t Rational::toInteger() const {
  TL_CHECK(den_ == 1, "Rational " + str() + " is not an integer");
  return num_;
}

std::string Rational::str() const {
  if (den_ == 1) return std::to_string(num_);
  return std::to_string(num_) + "/" + std::to_string(den_);
}

std::ostream& operator<<(std::ostream& os, const Rational& r) { return os << r.str(); }

}  // namespace tensorlib::linalg
