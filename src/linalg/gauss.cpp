#include "linalg/gauss.h"

#include <stdexcept>

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

std::size_t Rank(const Mat& m) { return ReduceToRref(m).rank; }

bool IsNonsingular(const Mat& m) {
  return m.rows() == m.cols() && Rank(m) == m.rows();
}

Rational Determinant(Mat m) {
  if (m.rows() != m.cols()) {
    throw std::invalid_argument("Determinant: matrix not square");
  }
  const std::size_t n = m.rows();
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
