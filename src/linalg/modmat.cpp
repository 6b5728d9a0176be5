#include "linalg/modmat.h"

#include <algorithm>

namespace bagdet {

Zp::Zp(std::uint64_t p) : p_(p) {
  // p^{-1} mod 2^64 by Newton iteration: each step doubles the number of
  // correct low bits, and x = p is correct to 3 bits for odd p.
  std::uint64_t inv = p;
  for (int i = 0; i < 5; ++i) inv *= 2 - p * inv;
  neg_p_inv_ = ~inv + 1;
  one_ = static_cast<std::uint64_t>((static_cast<unsigned __int128>(1) << 64) %
                                    p);
  r2_ = static_cast<std::uint64_t>(
      static_cast<unsigned __int128>(one_) * one_ % p);
}

std::uint64_t Zp::Pow(std::uint64_t a, std::uint64_t e) const {
  std::uint64_t result = one_;
  while (e != 0) {
    if (e & 1) result = Mul(result, a);
    a = Mul(a, a);
    e >>= 1;
  }
  return result;
}

std::optional<ModMat> ModMat::FromRationalMat(const Zp* zp, const Mat& m) {
  ModMat result(zp, m.rows(), m.cols());
  const std::uint64_t p = zp->prime();
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      const Rational& q = m.At(r, c);
      std::uint64_t num = q.numerator().Mod(p);
      if (q.denominator().IsOne()) {
        result.At(r, c) = zp->To(num);
        continue;
      }
      std::uint64_t den = q.denominator().Mod(p);
      if (den == 0) return std::nullopt;  // Unlucky prime.
      result.At(r, c) = zp->Mul(zp->To(num), zp->Inv(zp->To(den)));
    }
  }
  return result;
}

std::size_t ModMat::RankDestructive() {
  const Zp& zp = *zp_;
  std::size_t pivot_row = 0;
  for (std::size_t col = 0; col < cols_ && pivot_row < rows_; ++col) {
    std::size_t found = rows_;
    for (std::size_t r = pivot_row; r < rows_; ++r) {
      if (At(r, col) != 0) {
        found = r;
        break;
      }
    }
    if (found == rows_) continue;
    if (found != pivot_row) {
      std::swap_ranges(RowPtr(found), RowPtr(found) + cols_,
                       RowPtr(pivot_row));
    }
    std::uint64_t* pivot = RowPtr(pivot_row);
    std::uint64_t inv = zp.Inv(pivot[col]);
    for (std::size_t r = pivot_row + 1; r < rows_; ++r) {
      std::uint64_t* row = RowPtr(r);
      std::uint64_t factor = row[col];
      if (factor == 0) continue;
      factor = zp.Mul(factor, inv);
      row[col] = 0;
      for (std::size_t c = col + 1; c < cols_; ++c) {
        row[c] = zp.Sub(row[c], zp.Mul(factor, pivot[c]));
      }
    }
    ++pivot_row;
  }
  return pivot_row;
}

std::uint64_t ModMat::DeterminantDestructive() {
  const Zp& zp = *zp_;
  std::uint64_t det = zp.one();
  bool negate = false;
  for (std::size_t col = 0; col < cols_; ++col) {
    std::size_t found = rows_;
    for (std::size_t r = col; r < rows_; ++r) {
      if (At(r, col) != 0) {
        found = r;
        break;
      }
    }
    if (found == rows_) return 0;
    if (found != col) {
      std::swap_ranges(RowPtr(found), RowPtr(found) + cols_, RowPtr(col));
      negate = !negate;
    }
    std::uint64_t* pivot = RowPtr(col);
    det = zp.Mul(det, pivot[col]);
    std::uint64_t inv = zp.Inv(pivot[col]);
    for (std::size_t r = col + 1; r < rows_; ++r) {
      std::uint64_t* row = RowPtr(r);
      std::uint64_t factor = row[col];
      if (factor == 0) continue;
      factor = zp.Mul(factor, inv);
      for (std::size_t c = col; c < cols_; ++c) {
        row[c] = zp.Sub(row[c], zp.Mul(factor, pivot[c]));
      }
    }
  }
  return negate ? zp.Neg(det) : det;
}

}  // namespace bagdet
