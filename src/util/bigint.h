// bagdet: arbitrary-precision signed integers.
//
// Homomorphism counts manipulated by the determinacy pipeline grow like
// T^m (radix construction, Step 2 of Lemma 40) and like c^(k-1) (structure
// powers, Step 3), so 64-bit arithmetic is not an option anywhere on the
// decision path. BigInt is a plain value type: sign + magnitude.
//
// The magnitude has two representations. Values below 2^64 live inline in
// a single 64-bit word (`small_`) and never touch the heap — the DP join
// engine performs millions of `+=`/`*=` on counts that are usually tiny,
// and those stay allocation-free. Magnitudes of 2^64 and above spill into
// a little-endian base-2^32 limb vector; every operation re-compacts its
// result into the inline form whenever it fits, so the representation is
// canonical and memberwise comparison stays valid.
//
// Spilled arithmetic runs on the span kernels in util/limb_kernels.h:
// operands are viewed in place (`MagnitudeSpan`, no copy for either
// representation), results are computed into per-thread arena scratch and
// committed back through `CommitSpan`, which reuses the value's retained
// limb capacity. In steady state the cone's integer mat-vecs therefore
// perform zero heap allocations; the fused `MulAdd`/`MulSub` cover the
// dominant `x ± a*b` shape of rational arithmetic and of those mat-vecs
// without materializing the product as a temporary.

#ifndef BAGDET_UTIL_BIGINT_H_
#define BAGDET_UTIL_BIGINT_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace bagdet {

namespace limb {
struct LimbSpan;
class ArenaScope;
}  // namespace limb

/// Arbitrary-precision signed integer.
///
/// Invariants: when `limbs_` is empty the magnitude is `small_`; otherwise
/// the magnitude is the little-endian base-2^32 value of `limbs_`, which
/// then has at least three limbs (>= 2^64), no trailing zero limbs, and
/// `small_` is zero. Zero is small with `negative_ == false`.
class BigInt {
 public:
  /// Constructs zero.
  BigInt() = default;

  /// Constructs from a native signed integer.
  BigInt(std::int64_t value)  // NOLINT(google-explicit-constructor)
      : negative_(value < 0),
        small_(value < 0 ? ~static_cast<std::uint64_t>(value) + 1
                         : static_cast<std::uint64_t>(value)) {}

  /// Parses a decimal string with optional leading '-'.
  /// Throws std::invalid_argument on malformed input.
  static BigInt FromString(std::string_view text);

  /// True iff the value is zero.
  bool IsZero() const { return limbs_.empty() && small_ == 0; }
  /// True iff the value is strictly negative.
  bool IsNegative() const { return negative_; }
  /// True iff the value is one.
  bool IsOne() const { return !negative_ && limbs_.empty() && small_ == 1; }

  /// -1, 0, or +1 according to the sign of the value.
  int Sign() const { return IsZero() ? 0 : (negative_ ? -1 : 1); }

  /// Number of bits in the magnitude (0 for zero).
  std::size_t BitLength() const;

  /// Returns the value as int64 if it fits, throws std::overflow_error
  /// otherwise.
  std::int64_t ToInt64() const;

  /// True iff the value fits in an int64.
  bool FitsInt64() const;

  /// Decimal representation.
  std::string ToString() const;

  BigInt operator-() const;
  BigInt Abs() const;

  BigInt& operator+=(const BigInt& other);
  BigInt& operator-=(const BigInt& other);
  BigInt& operator*=(const BigInt& other);
  BigInt& operator/=(const BigInt& other);  ///< Truncated (toward zero).
  BigInt& operator%=(const BigInt& other);  ///< Sign follows the dividend.

  friend BigInt operator+(BigInt a, const BigInt& b) { return a += b; }
  friend BigInt operator-(BigInt a, const BigInt& b) { return a -= b; }
  friend BigInt operator*(BigInt a, const BigInt& b) { return a *= b; }
  friend BigInt operator/(BigInt a, const BigInt& b) { return a /= b; }
  friend BigInt operator%(BigInt a, const BigInt& b) { return a %= b; }

  /// Quotient and remainder in one pass; remainder's sign follows `a`.
  /// Throws std::domain_error when `b` is zero.
  static void DivMod(const BigInt& a, const BigInt& b, BigInt* quotient,
                     BigInt* remainder);

  /// Nonnegative greatest common divisor; Gcd(0, 0) == 0.
  static BigInt Gcd(BigInt a, BigInt b);

  /// Fused multiply-accumulate: `*this += a * b` without materializing the
  /// product as a temporary BigInt. This is the shape of rational addition
  /// and subtraction (MulSub for the latter); the product and sum run
  /// entirely in per-thread arena scratch. `a` or `b`
  /// may alias `*this`.
  BigInt& MulAdd(const BigInt& a, const BigInt& b);

  /// Fused multiply-subtract: `*this -= a * b`. `a` or `b` may alias
  /// `*this`.
  BigInt& MulSub(const BigInt& a, const BigInt& b);

  /// Residue of the value modulo a word-size modulus, always in [0, m):
  /// Mod(-3, 7) == 4. The view-count fingerprint of the Theorem-2 search
  /// takes one residue per count, so this walks the limbs directly
  /// instead of routing through a BigInt division. Requires
  /// 0 < m < 2^63; throws std::domain_error otherwise.
  std::uint64_t Mod(std::uint64_t m) const;

  /// `base` raised to `exponent` (exponent >= 0). Pow(0, 0) == 1, matching
  /// the paper's convention 0^0 = 1.
  static BigInt Pow(const BigInt& base, std::uint64_t exponent);

  /// Floor of the k-th root of a nonnegative value (k >= 1), via Newton
  /// iteration with exact arithmetic. Throws std::domain_error for
  /// negative values or k == 0.
  static BigInt FloorKthRoot(const BigInt& value, std::uint64_t k);

  struct RootResult;
  /// The floor k-th root together with an exactness flag (`exact` is true
  /// iff `value` is a perfect k-th power).
  static RootResult KthRoot(const BigInt& value, std::uint64_t k);

  friend bool operator==(const BigInt& a, const BigInt& b) {
    // Canonical representation: equal values have equal members (small_ is
    // kept at zero in spilled mode).
    return a.negative_ == b.negative_ && a.small_ == b.small_ &&
           a.limbs_ == b.limbs_;
  }
  friend bool operator!=(const BigInt& a, const BigInt& b) { return !(a == b); }
  friend bool operator<(const BigInt& a, const BigInt& b);
  friend bool operator>(const BigInt& a, const BigInt& b) { return b < a; }
  friend bool operator<=(const BigInt& a, const BigInt& b) { return !(b < a); }
  friend bool operator>=(const BigInt& a, const BigInt& b) { return !(a < b); }

  friend std::ostream& operator<<(std::ostream& os, const BigInt& value);

  /// Hash suitable for unordered containers.
  std::size_t Hash() const;

 private:
  // True iff the magnitude lives inline in `small_`.
  bool IsSmall() const { return limbs_.empty(); }
  // Non-copying view of the magnitude in either representation. For the
  // inline form the caller's `inline_buf` backs the (<= 2 limb) span, so
  // the span is valid only while `inline_buf` and `*this` are.
  limb::LimbSpan MagnitudeSpan(std::uint32_t (&inline_buf)[2]) const;
  // Installs a trimmed-or-not span as the magnitude, compacting into
  // `small_` when it fits in 64 bits and otherwise reusing the retained
  // limb capacity. The span must not alias `limbs_`.
  void CommitSpan(limb::LimbSpan magnitude);
  // Re-canonicalizes `limbs_` after an in-place shrink (trim + fold into
  // `small_` when it fits). Never allocates.
  void CompactInPlace();
  // Signed accumulate over arena scratch: *this += sign * magnitude. The
  // magnitude span may alias `limbs_` (it is consumed before the commit).
  void AccumulateSigned(bool addend_negative, limb::LimbSpan magnitude,
                        limb::ArenaScope& scratch);
  // Shared core of MulAdd/MulSub.
  BigInt& MulAccumulate(const BigInt& a, const BigInt& b, bool subtract);
  // Installs a magnitude from an owned vector, compacting into `small_`
  // when it fits in 64 bits (the decimal-parse path).
  void SetMagnitude(std::vector<std::uint32_t> limbs);
  // this = |this| * multiplier + addend (magnitude only); the workhorse of
  // the chunked decimal parse.
  void MulAddSmallMagnitude(std::uint32_t multiplier, std::uint32_t addend);

  // Divides magnitude in place by a small divisor, returns the remainder.
  static std::uint32_t DivSmallInPlace(std::vector<std::uint32_t>* a,
                                       std::uint32_t divisor);

  bool negative_ = false;
  std::uint64_t small_ = 0;
  std::vector<std::uint32_t> limbs_;
};

/// Result of BigInt::KthRoot.
struct BigInt::RootResult {
  BigInt root;  ///< Floor of the k-th root.
  bool exact;   ///< True iff root^k equals the input exactly.
};

}  // namespace bagdet

namespace std {
template <>
struct hash<bagdet::BigInt> {
  std::size_t operator()(const bagdet::BigInt& value) const {
    return value.Hash();
  }
};
}  // namespace std

#endif  // BAGDET_UTIL_BIGINT_H_
