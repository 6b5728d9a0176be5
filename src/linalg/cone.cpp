#include "linalg/cone.h"

#include <stdexcept>

namespace bagdet {

SimplicialCone::SimplicialCone(Mat m) : matrix_(std::move(m)) {
  std::optional<ScaledInverse> inverse = InverseFractionFree(matrix_);
  if (!inverse.has_value()) {
    throw std::invalid_argument("SimplicialCone: matrix is singular");
  }
  inverse_ = std::move(*inverse);
}

std::optional<std::vector<BigInt>> SimplicialCone::ScaledCoordinates(
    const std::vector<BigInt>& point, bool nonnegative_only) const {
  const std::size_t n = inverse_.n;
  if (point.size() != n) {
    throw std::invalid_argument("SimplicialCone: point size mismatch");
  }
  std::vector<BigInt> scaled(n);
  for (std::size_t j = 0; j < n; ++j) {
    scaled[j] = inverse_.row_scales[j] * point[j];
  }
  std::vector<BigInt> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      out[i].MulAdd(inverse_.R(i, j), scaled[j]);
    }
    if (nonnegative_only && out[i].IsNegative()) return std::nullopt;
  }
  return out;
}

Vec SimplicialCone::Coordinates(const Vec& point) const {
  // p = u / L with u integral.
  const BigInt scale = point.CommonDenominator();
  std::vector<BigInt> cleared;
  for (std::size_t i = 0; i < point.size(); ++i) {
    cleared.push_back(point[i].numerator() *
                      (scale / point[i].denominator()));
  }
  const std::vector<BigInt> numerators = *ScaledCoordinates(cleared, false);
  const BigInt divisor = inverse_.d * scale;
  Vec coords(numerators.size());
  for (std::size_t i = 0; i < numerators.size(); ++i) {
    coords[i] = Rational(numerators[i], divisor);
  }
  return coords;
}

std::optional<Vec> SimplicialCone::NonNegativeCoordinates(
    const std::vector<BigInt>& point) const {
  std::optional<std::vector<BigInt>> numerators =
      ScaledCoordinates(point, true);
  if (!numerators.has_value()) return std::nullopt;
  Vec coords(numerators->size());
  for (std::size_t i = 0; i < numerators->size(); ++i) {
    coords[i] = Rational((*numerators)[i], inverse_.d);
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
