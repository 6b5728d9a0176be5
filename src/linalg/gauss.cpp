#include "linalg/gauss.h"

#include <algorithm>
#include <stdexcept>

#include "linalg/modular_solve.h"
#include "util/exec_context.h"

namespace bagdet {

namespace {

/// Size proxy for pivot selection: total bit length of the entry. Dividing
/// the pivot row by a short rational keeps the coefficients that the
/// eliminations below spread across the matrix small.
std::size_t RationalBitLength(const Rational& value) {
  return value.numerator().BitLength() + value.denominator().BitLength();
}

}  // namespace

Rref ReduceToRref(Mat m) {
  Rref result;
  const std::size_t rows = m.rows();
  const std::size_t cols = m.cols();
  std::size_t pivot_row = 0;
  for (std::size_t col = 0; col < cols && pivot_row < rows; ++col) {
    // Pick the nonzero entry with the shortest numerator/denominator at or
    // below pivot_row, which curbs rational coefficient blowup compared to
    // taking the first nonzero entry.
    std::size_t found = rows;
    std::size_t found_bits = 0;
    for (std::size_t r = pivot_row; r < rows; ++r) {
      if (m.At(r, col).IsZero()) continue;
      std::size_t bits = RationalBitLength(m.At(r, col));
      if (found == rows || bits < found_bits) {
        found = r;
        found_bits = bits;
      }
    }
    if (found == rows) continue;
    // One forced clock read per eliminated row: the row's rational
    // normalizations dwarf it, and a sampled checkpoint would rarely read
    // the clock across the few dozen rows a governed caller eliminates.
    if (ExecContext* ctx = CurrentExecContext()) ctx->CheckNow("linalg.exact");
    m.SwapRows(found, pivot_row);
    Rational inv = m.At(pivot_row, col).Inverse();
    for (std::size_t c = col; c < cols; ++c) m.At(pivot_row, c) *= inv;
    for (std::size_t r = 0; r < rows; ++r) {
      if (r == pivot_row) continue;
      Rational factor = m.At(r, col);
      if (factor.IsZero()) continue;
      for (std::size_t c = col; c < cols; ++c) {
        m.At(r, c) -= factor * m.At(pivot_row, c);
      }
    }
    result.pivots.push_back(col);
    ++pivot_row;
  }
  result.rank = pivot_row;
  result.matrix = std::move(m);
  return result;
}

std::size_t Rank(const Mat& m) {
  // A single-prime elimination gives a certified lower bound; when it
  // saturates min(rows, cols) the exact rank is known with no exact
  // arithmetic at all.
  std::optional<std::size_t> probe = ModularRankLowerBound(m);
  if (probe.has_value() && *probe == std::min(m.rows(), m.cols())) {
    return *probe;
  }
  return ReduceToRref(m).rank;
}

bool IsNonsingular(const Mat& m) {
  if (m.rows() != m.cols()) return false;
  // det(A) mod p != 0 certifies nonsingularity outright.
  std::optional<bool> probe = ModularNonsingularProbe(m);
  if (probe.has_value()) return *probe;
  return Rank(m) == m.rows();
}

Rational Determinant(Mat m) {
  if (m.rows() != m.cols()) {
    throw std::invalid_argument("Determinant: matrix not square");
  }
  const std::size_t n = m.rows();
  // Dense-integer case: fraction-free Bareiss keeps every intermediate a
  // minor-bounded integer instead of a churning rational.
  if (n >= 2) {
    bool integral = true;
    for (std::size_t r = 0; r < n && integral; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        if (!m.At(r, c).IsInteger()) {
          integral = false;
          break;
        }
      }
    }
    if (integral) return DeterminantBareiss(m);
  }
  Rational det(1);
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t found = n;
    for (std::size_t r = col; r < n; ++r) {
      if (!m.At(r, col).IsZero()) {
        found = r;
        break;
      }
    }
    if (found == n) return Rational(0);
    if (found != col) {
      m.SwapRows(found, col);
      det = -det;
    }
    det *= m.At(col, col);
    Rational inv = m.At(col, col).Inverse();
    for (std::size_t r = col + 1; r < n; ++r) {
      Rational factor = m.At(r, col) * inv;
      if (factor.IsZero()) continue;
      for (std::size_t c = col; c < n; ++c) {
        m.At(r, c) -= factor * m.At(col, c);
      }
    }
  }
  return det;
}

std::optional<ScaledInverse> InverseFractionFree(const Mat& m) {
  if (m.rows() != m.cols()) return std::nullopt;
  const std::size_t n = m.rows();
  const std::size_t width = 2 * n;
  ScaledInverse out;
  out.n = n;
  // [N | I] with N = D·M: row r scaled by the lcm of its denominators.
  std::vector<BigInt> a(n * width);
  for (std::size_t r = 0; r < n; ++r) {
    BigInt lcm = m.Row(r).CommonDenominator();
    for (std::size_t c = 0; c < n; ++c) {
      const Rational& q = m.At(r, c);
      a[r * width + c] = q.numerator() * (lcm / q.denominator());
    }
    a[r * width + n + r] = BigInt(1);
    out.row_scales.push_back(std::move(lcm));
  }

  // Fraction-free Gauss–Jordan: at step k every other row i becomes
  // (a_kk·a_i − a_ik·a_k) / p, p the previous pivot, and every division is
  // exact (the entries are minors of [N | I]). Columns ≤ k of the other
  // rows are never read again: they hold zeros and the pivot, so the left
  // block ends as d·I and the right block as R.
  BigInt prev(1);
  for (std::size_t k = 0; k < n; ++k) {
    // One forced clock read per pivot row, like ReduceToRref.
    if (ExecContext* ctx = CurrentExecContext()) ctx->CheckNow("linalg.exact");
    std::size_t found = n;
    std::size_t found_bits = 0;
    for (std::size_t r = k; r < n; ++r) {
      const BigInt& entry = a[r * width + k];
      if (entry.IsZero()) continue;
      if (found == n || entry.BitLength() < found_bits) {
        found = r;
        found_bits = entry.BitLength();
      }
    }
    if (found == n) return std::nullopt;
    if (found != k) {
      std::swap_ranges(a.begin() + found * width,
                       a.begin() + (found + 1) * width, a.begin() + k * width);
    }
    const BigInt& pivot = a[k * width + k];
    for (std::size_t i = 0; i < n; ++i) {
      if (i == k) continue;
      const BigInt& lead = a[i * width + k];
      for (std::size_t j = k + 1; j < width; ++j) {
        BigInt& x = a[i * width + j];
        const BigInt& above = a[k * width + j];
        // Most of the right block is still zero early on.
        if (x.IsZero() && above.IsZero()) continue;
        x *= pivot;
        x.MulSub(lead, above);
        if (!prev.IsOne()) BigInt::DivMod(x, prev, &x, nullptr);
      }
    }
    prev = pivot;
  }

  // Normalize to d > 0 so callers test signs against zero.
  const bool negate = prev.IsNegative();
  out.d = negate ? -prev : std::move(prev);
  out.r.reserve(n * n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      BigInt& x = a[r * width + n + c];
      out.r.push_back(negate ? -x : std::move(x));
    }
  }
  return out;
}

std::optional<Mat> Inverse(const Mat& m) {
  std::optional<ScaledInverse> scaled = InverseFractionFree(m);
  if (!scaled.has_value()) return std::nullopt;
  const std::size_t n = scaled->n;
  Mat inverse(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      inverse.At(r, c) =
          Rational(scaled->R(r, c) * scaled->row_scales[c], scaled->d);
    }
  }
  return inverse;
}

std::optional<Vec> SolveLinearSystem(const Mat& a, const Vec& b) {
  if (b.size() != a.rows()) {
    throw std::invalid_argument("SolveLinearSystem: size mismatch");
  }
  const std::size_t rows = a.rows();
  const std::size_t cols = a.cols();
  Mat aug(rows, cols + 1);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) aug.At(r, c) = a.At(r, c);
    aug.At(r, cols) = b[r];
  }
  Rref rref = ReduceToRref(std::move(aug));
  // Inconsistent iff some pivot lands in the augmented column.
  if (!rref.pivots.empty() && rref.pivots.back() == cols) return std::nullopt;
  Vec x(cols);
  for (std::size_t i = 0; i < rref.pivots.size(); ++i) {
    x[rref.pivots[i]] = rref.matrix.At(i, cols);
  }
  return x;
}

std::vector<Vec> NullspaceBasis(const Mat& a) {
  const std::size_t cols = a.cols();
  Rref rref = ReduceToRref(a);
  std::vector<bool> is_pivot(cols, false);
  for (std::size_t p : rref.pivots) is_pivot[p] = true;
  std::vector<Vec> basis;
  for (std::size_t free_col = 0; free_col < cols; ++free_col) {
    if (is_pivot[free_col]) continue;
    Vec v(cols);
    v[free_col] = Rational(1);
    for (std::size_t i = 0; i < rref.pivots.size(); ++i) {
      v[rref.pivots[i]] = -rref.matrix.At(i, free_col);
    }
    basis.push_back(std::move(v));
  }
  return basis;
}

SpanMembership TestSpanMembership(const std::vector<Vec>& basis,
                                  const Vec& target) {
  SpanMembership result;
  if (target.IsZero()) {
    result.in_span = true;
    result.coefficients = Vec(basis.size());
    return result;
  }
  if (basis.empty()) return result;
  Mat columns = Mat::FromColumns(basis);
  std::optional<Vec> solution = SolveLinearSystem(columns, target);
  if (solution.has_value()) {
    result.in_span = true;
    result.coefficients = std::move(*solution);
  }
  return result;
}

std::optional<Vec> OrthogonalWitness(const std::vector<Vec>& basis,
                                     const Vec& target) {
  // The space of vectors orthogonal to every basis vector is the nullspace
  // of the matrix whose rows are the basis vectors. A witness exists iff
  // target ∉ span(basis), in which case some nullspace basis vector has a
  // nonzero dot product with target.
  std::vector<Vec> candidates;
  if (basis.empty()) {
    // Every vector is orthogonal to the empty set; pick a unit vector
    // aligned with a nonzero coordinate of target.
    for (std::size_t i = 0; i < target.size(); ++i) {
      if (!target[i].IsZero()) {
        Vec z(target.size());
        z[i] = Rational(1);
        return z;
      }
    }
    return std::nullopt;
  }
  candidates = NullspaceBasis(Mat::FromRows(basis));
  for (Vec& z : candidates) {
    if (!Vec::Dot(z, target).IsZero()) {
      // Scale to integers (the proof of Lemma 56 needs z ∈ Z^k so that
      // t^z(i) stays rational).
      Rational scale{z.CommonDenominator()};
      z *= scale;
      return z;
    }
  }
  return std::nullopt;
}

Mat Vandermonde(const std::vector<Rational>& nodes) {
  const std::size_t n = nodes.size();
  Mat m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    Rational power(1);
    for (std::size_t j = 0; j < n; ++j) {
      m.At(i, j) = power;
      power *= nodes[i];
    }
  }
  return m;
}

}  // namespace bagdet
