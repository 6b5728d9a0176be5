// bagdet: exact rational arithmetic on top of BigInt.
//
// All linear algebra in the determinacy pipeline (span tests, nullspaces,
// the cone of the evaluation matrix, the t^z ∘ p perturbation of Lemma 56) is
// carried out over Q exactly; Rational is the scalar type.

#ifndef BAGDET_UTIL_RATIONAL_H_
#define BAGDET_UTIL_RATIONAL_H_

#include <iosfwd>
#include <string>
#include <string_view>

#include "util/bigint.h"

namespace bagdet {

/// Exact rational number.
///
/// Invariants: the denominator is strictly positive and the fraction is in
/// lowest terms; zero is 0/1.
class Rational {
 public:
  /// Constructs zero.
  Rational() : numerator_(0), denominator_(1) {}

  /// Constructs an integer.
  Rational(std::int64_t value)  // NOLINT(google-explicit-constructor)
      : numerator_(value), denominator_(1) {}

  /// Constructs an integer from a BigInt.
  Rational(BigInt value)  // NOLINT(google-explicit-constructor)
      : numerator_(std::move(value)), denominator_(1) {}

  /// Constructs numerator/denominator and normalizes.
  /// Throws std::domain_error when the denominator is zero.
  Rational(BigInt numerator, BigInt denominator);

  /// Parses "a", "-a", or "a/b". Throws std::invalid_argument on bad input.
  static Rational FromString(std::string_view text);

  const BigInt& numerator() const { return numerator_; }
  const BigInt& denominator() const { return denominator_; }

  bool IsZero() const { return numerator_.IsZero(); }
  bool IsNegative() const { return numerator_.IsNegative(); }
  bool IsInteger() const { return denominator_.IsOne(); }
  bool IsOne() const { return numerator_.IsOne() && denominator_.IsOne(); }
  int Sign() const { return numerator_.Sign(); }

  Rational operator-() const;
  Rational Inverse() const;  ///< Throws std::domain_error on zero.
  Rational Abs() const;

  Rational& operator+=(const Rational& other);
  Rational& operator-=(const Rational& other);
  Rational& operator*=(const Rational& other);
  Rational& operator/=(const Rational& other);

  friend Rational operator+(Rational a, const Rational& b) { return a += b; }
  friend Rational operator-(Rational a, const Rational& b) { return a -= b; }
  friend Rational operator*(Rational a, const Rational& b) { return a *= b; }
  friend Rational operator/(Rational a, const Rational& b) { return a /= b; }

  /// Integer power with a possibly negative exponent. Pow(0, 0) == 1, the
  /// paper's convention; Pow(0, negative) throws std::domain_error.
  static Rational Pow(const Rational& base, std::int64_t exponent);

  friend bool operator==(const Rational& a, const Rational& b) {
    return a.numerator_ == b.numerator_ && a.denominator_ == b.denominator_;
  }
  friend bool operator!=(const Rational& a, const Rational& b) {
    return !(a == b);
  }
  friend bool operator<(const Rational& a, const Rational& b);
  friend bool operator>(const Rational& a, const Rational& b) { return b < a; }
  friend bool operator<=(const Rational& a, const Rational& b) {
    return !(b < a);
  }
  friend bool operator>=(const Rational& a, const Rational& b) {
    return !(a < b);
  }

  /// "a" when integral, otherwise "a/b".
  std::string ToString() const;

  friend std::ostream& operator<<(std::ostream& os, const Rational& value);

 private:
  void Normalize();

  BigInt numerator_;
  BigInt denominator_;
};

}  // namespace bagdet

#endif  // BAGDET_UTIL_RATIONAL_H_
