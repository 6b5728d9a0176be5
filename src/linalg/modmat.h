// bagdet: word-size modular arithmetic and dense matrices over Z/p.
//
// The single-prime probes (linalg/modular_solve.h) eliminate over Z/p for a
// 62-bit prime p instead of over Q, where the good-basis evaluation
// matrix's radix-sized hom counts would make every rational step costly.
// Everything here is plain 64-bit word arithmetic: Zp is a
// Montgomery-reduction context for one prime, ModMat is a flat row-major
// residue matrix with cache-friendly row-sweep elimination.

#ifndef BAGDET_LINALG_MODMAT_H_
#define BAGDET_LINALG_MODMAT_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "linalg/matrix.h"

namespace bagdet {

/// Montgomery multiplication context for one odd prime p < 2^62.
///
/// Values are carried in Montgomery form (x·2^64 mod p) between To()/From()
/// conversions; Add/Sub/Mul/Inv all operate on and return Montgomery-form
/// residues, so the elimination inner loop pays one fused multiply +
/// reduction (REDC) per entry and no hardware division.
class Zp {
 public:
  /// `p` must be an odd prime below 2^62 (not checked beyond oddness —
  /// callers draw from the curated prime table in modular_solve.cpp).
  explicit Zp(std::uint64_t p);

  std::uint64_t prime() const { return p_; }
  std::uint64_t zero() const { return 0; }
  std::uint64_t one() const { return one_; }

  /// Plain residue (< p) → Montgomery form.
  std::uint64_t To(std::uint64_t a) const { return Mul(a, r2_); }
  /// Montgomery form → plain residue in [0, p).
  std::uint64_t From(std::uint64_t a) const { return Reduce(a); }

  std::uint64_t Add(std::uint64_t a, std::uint64_t b) const {
    std::uint64_t s = a + b;  // < 2^63, no overflow.
    return s >= p_ ? s - p_ : s;
  }
  std::uint64_t Sub(std::uint64_t a, std::uint64_t b) const {
    return a >= b ? a - b : a + p_ - b;
  }
  std::uint64_t Neg(std::uint64_t a) const { return a == 0 ? 0 : p_ - a; }
  std::uint64_t Mul(std::uint64_t a, std::uint64_t b) const {
    return Reduce(static_cast<unsigned __int128>(a) * b);
  }
  /// a^e by binary exponentiation (a in Montgomery form).
  std::uint64_t Pow(std::uint64_t a, std::uint64_t e) const;
  /// Multiplicative inverse via Fermat (a must be nonzero mod p).
  std::uint64_t Inv(std::uint64_t a) const { return Pow(a, p_ - 2); }

 private:
  /// Montgomery REDC: t·2^-64 mod p for t < p·2^64.
  std::uint64_t Reduce(unsigned __int128 t) const {
    std::uint64_t m = static_cast<std::uint64_t>(t) * neg_p_inv_;
    unsigned __int128 u = t + static_cast<unsigned __int128>(m) * p_;
    std::uint64_t r = static_cast<std::uint64_t>(u >> 64);
    return r >= p_ ? r - p_ : r;
  }

  std::uint64_t p_;
  std::uint64_t neg_p_inv_;  // -p^{-1} mod 2^64.
  std::uint64_t r2_;         // 2^128 mod p (To() multiplier).
  std::uint64_t one_;        // 2^64 mod p (Montgomery 1).
};

/// Dense matrix over Z/p, flat row-major, entries in Montgomery form.
class ModMat {
 public:
  ModMat(const Zp* zp, std::size_t rows, std::size_t cols)
      : zp_(zp), rows_(rows), cols_(cols), entries_(rows * cols) {}

  /// Reduces a rational matrix mod p (entry a/b ↦ a·b^{-1}). Returns
  /// std::nullopt when some denominator vanishes mod p — that prime is
  /// unusable for this matrix and the probe skips it.
  static std::optional<ModMat> FromRationalMat(const Zp* zp, const Mat& m);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::uint64_t& At(std::size_t r, std::size_t c) {
    return entries_[r * cols_ + c];
  }
  std::uint64_t At(std::size_t r, std::size_t c) const {
    return entries_[r * cols_ + c];
  }

  /// Rank only: forward elimination without back-substitution or row
  /// normalization (the cheap probe used by rank lower bounds).
  std::size_t RankDestructive();

  /// Determinant of a square matrix mod p, in Montgomery form.
  std::uint64_t DeterminantDestructive();

 private:
  std::uint64_t* RowPtr(std::size_t r) { return entries_.data() + r * cols_; }

  const Zp* zp_;
  std::size_t rows_;
  std::size_t cols_;
  std::vector<std::uint64_t> entries_;
};

}  // namespace bagdet

#endif  // BAGDET_LINALG_MODMAT_H_
