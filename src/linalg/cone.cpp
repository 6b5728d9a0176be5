#include "linalg/cone.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/exec_context.h"

namespace bagdet {

namespace {

void CheckRow() {
  if (ExecContext* ctx = CurrentExecContext()) ctx->CheckNow("linalg.cone");
}

[[noreturn]] void Reject(const char* why) {
  throw std::invalid_argument(std::string("SimplicialCone: ") + why);
}

}  // namespace

SimplicialCone::SimplicialCone(Mat m) : matrix_(std::move(m)) {
  const std::size_t n = matrix_.rows();
  if (matrix_.cols() != n) Reject("matrix is not square");

  // Structure check: M(i,j) = q_i·b_i^j. A 1 × 1 matrix has no node; any
  // b_1 works, and 0 is used.
  std::vector<BigInt> row_factors(n);
  std::vector<BigInt> nodes(n);
  for (std::size_t i = 0; i < n; ++i) {
    // One forced clock read per row: the row's k big-integer products
    // dwarf it.
    CheckRow();
    for (std::size_t j = 0; j < n; ++j) {
      if (!matrix_.At(i, j).IsInteger()) Reject("entry is not an integer");
    }
    row_factors[i] = matrix_.At(i, 0).numerator();
    if (row_factors[i].IsZero()) Reject("row factor q_i is zero");
    if (n >= 2) {
      BigInt remainder;
      BigInt::DivMod(matrix_.At(i, 1).numerator(), row_factors[i], &nodes[i],
                     &remainder);
      if (!remainder.IsZero()) Reject("node b_i is not an integer");
    }
    BigInt power = row_factors[i];
    for (std::size_t j = 1; j < n; ++j) {
      power *= nodes[i];
      if (matrix_.At(i, j).numerator() != power) {
        Reject("matrix is not diag(q)·V(b)");
      }
    }
  }
  std::vector<BigInt> sorted = nodes;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    Reject("nodes are not pairwise distinct (matrix is singular)");
  }

  // P(X) = Π_m (X − b_m), coefficients from X^0 up to X^n.
  std::vector<BigInt> p(n + 1);
  p[0] = BigInt(1);
  for (std::size_t m = 0; m < n; ++m) {
    // Multiply by (X − b_m): p_j ← p_{j−1} − b_m·p_j, from the top down.
    for (std::size_t j = m + 1; j > 0; --j) {
      BigInt next = p[j - 1];
      next.MulSub(nodes[m], p[j]);
      p[j] = std::move(next);
    }
    p[0] = -(nodes[m] * p[0]);
  }

  lagrange_.assign(n * n, BigInt(0));
  column_scales_.resize(n);
  std::vector<BigInt> denominators(n);  // s_i.
  for (std::size_t i = 0; i < n; ++i) {
    CheckRow();
    // Q_i = P / (X − b_i): coefficients from the top down, c_{n−1} = 1 and
    // c_{j−1} = p_j + b_i·c_j.
    BigInt c(1);
    for (std::size_t j = n; j-- > 0;) {
      lagrange_[j * n + i] = c;
      if (j > 0) {
        BigInt next = p[j];
        next.MulAdd(nodes[i], c);
        c = std::move(next);
      }
    }
    denominators[i] = row_factors[i];
    for (std::size_t m = 0; m < n; ++m) {
      if (m != i) denominators[i] *= nodes[i] - nodes[m];
    }
    const BigInt magnitude = denominators[i].Abs();
    lcm_ = lcm_ / BigInt::Gcd(lcm_, magnitude) * magnitude;
  }
  for (std::size_t i = 0; i < n; ++i) {
    column_scales_[i] = lcm_ / denominators[i];
  }
}

SimplicialCone::GroupedPoint SimplicialCone::Group(
    const std::vector<BigInt>& point, const std::vector<std::size_t>& group_of,
    std::size_t groups) const {
  const std::size_t n = Dimension();
  if (point.size() != n || group_of.size() != n) {
    throw std::invalid_argument("SimplicialCone: point size mismatch");
  }
  std::vector<BigInt> scaled(n);
  for (std::size_t i = 0; i < n; ++i) scaled[i] = column_scales_[i] * point[i];
  GroupedPoint out;
  out.groups = groups;
  out.columns.assign(n * groups, BigInt(0));
  for (std::size_t j = 0; j < n; ++j) {
    CheckRow();
    for (std::size_t i = 0; i < n; ++i) {
      out.columns[j * groups + group_of[i]].MulAdd(Lagrange(j, i), scaled[i]);
    }
  }
  return out;
}

std::optional<Vec> SimplicialCone::NonNegativeCombination(
    const GroupedPoint& point, const std::vector<BigInt>& weights,
    const Rational& scale) const {
  const std::size_t n = Dimension();
  const std::size_t groups = point.groups;
  if (weights.size() != groups) {
    throw std::invalid_argument("SimplicialCone: weight count mismatch");
  }
  std::vector<BigInt> numerators(n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t g = 0; g < groups; ++g) {
      numerators[j].MulAdd(point.columns[j * groups + g], weights[g]);
    }
    if (numerators[j].IsNegative()) return std::nullopt;
  }
  const BigInt divisor = lcm_ * scale.denominator();
  Vec coords(n);
  for (std::size_t j = 0; j < n; ++j) {
    coords[j] = Rational(numerators[j] * scale.numerator(), divisor);
  }
  return coords;
}

Vec SimplicialCone::Coordinates(const Vec& point) const {
  // p = u / D with u integral: M⁻¹p = (L·M⁻¹u) / (L·D).
  const BigInt scale = point.CommonDenominator();
  std::vector<BigInt> cleared;
  for (std::size_t i = 0; i < point.size(); ++i) {
    cleared.push_back(point[i].numerator() *
                      (scale / point[i].denominator()));
  }
  GroupedPoint whole =
      Group(cleared, std::vector<std::size_t>(cleared.size(), 0), 1);
  const BigInt divisor = lcm_ * scale;
  Vec coords(whole.columns.size());
  for (std::size_t j = 0; j < coords.size(); ++j) {
    coords[j] = Rational(std::move(whole.columns[j]), divisor);
  }
  return coords;
}

bool SimplicialCone::StrictlyContains(const Vec& point) const {
  Vec coords = Coordinates(point);
  for (std::size_t i = 0; i < coords.size(); ++i) {
    if (coords[i].Sign() <= 0) return false;
  }
  return true;
}

Vec SimplicialCone::InteriorPoint() const {
  Vec ones(Dimension());
  for (std::size_t i = 0; i < ones.size(); ++i) ones[i] = Rational(1);
  return matrix_.Apply(ones);
}

std::optional<BigInt> SimplicialCone::ScaleIntoLattice(
    const Vec& point) const {
  Vec coords = Coordinates(point);
  if (!coords.IsNonNegative()) return std::nullopt;
  return coords.CommonDenominator();
}

}  // namespace bagdet
