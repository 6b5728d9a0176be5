#include "core/counterexample.h"

#include <algorithm>
#include <stdexcept>

#include "linalg/gauss.h"

namespace bagdet {

PerturbationWalk WalkIntoCone(const SimplicialCone& cone, const Vec& p,
                              const Vec& z) {
  if (z.size() != p.size()) {
    throw std::invalid_argument("WalkIntoCone: size mismatch");
  }
  const std::size_t n = p.size();
  // Integer exponents, as the proof of Lemma 56 needs for rationality.
  std::vector<std::int64_t> exponents;
  for (std::size_t i = 0; i < n; ++i) {
    if (!z[i].IsInteger()) {
      throw std::logic_error("WalkIntoCone: non-integer exponent");
    }
    exponents.push_back(z[i].numerator().ToInt64());
  }
  // p = y / L with y integral.
  const BigInt denominator = p.CommonDenominator();
  std::vector<BigInt> y;
  for (std::size_t i = 0; i < n; ++i) {
    y.push_back(p[i].numerator() * (denominator / p[i].denominator()));
  }

  // Exponent classes: the distinct values e of z, ascending. Every entry
  // of a class gets the same factor a^(e − lo)·b^(hi − e) at each step, so
  // the cone splits y by class once and a step costs k products per class.
  std::vector<std::int64_t> classes = exponents;
  std::sort(classes.begin(), classes.end());
  classes.erase(std::unique(classes.begin(), classes.end()), classes.end());
  std::vector<std::size_t> class_of(n);
  for (std::size_t i = 0; i < n; ++i) {
    class_of[i] = static_cast<std::size_t>(
        std::lower_bound(classes.begin(), classes.end(), exponents[i]) -
        classes.begin());
  }
  const std::int64_t lo = n == 0 ? 0 : classes.front();
  const std::int64_t hi = n == 0 ? 0 : classes.back();
  // One forced deadline check per step, and one before the split: each
  // multiplies ever-longer integers, far costlier than a clock read.
  if (ExecContext* ctx = CurrentExecContext()) ctx->CheckNow("core.walk");
  const SimplicialCone::GroupedPoint grouped =
      cone.Group(y, class_of, classes.size());

  PerturbationWalk walk;
  std::vector<BigInt> weights(classes.size());
  for (std::int64_t j = 1; j <= PerturbationWalk::kMaxWalkSteps; ++j) {
    if (ExecContext* ctx = CurrentExecContext()) ctx->CheckNow("core.walk");
    const BigInt b = BigInt::Pow(BigInt(2), static_cast<std::uint64_t>(j));
    const BigInt a = b + BigInt(1);
    // P′_i = a^(z_i − lo) · b^(hi − z_i) · y_i = t^z_i · p_i · L · b^hi / a^lo,
    // so P′ is a positive multiple of t^z ∘ p.
    for (std::size_t g = 0; g < classes.size(); ++g) {
      weights[g] =
          BigInt::Pow(a, static_cast<std::uint64_t>(classes[g] - lo)) *
          BigInt::Pow(b, static_cast<std::uint64_t>(hi - classes[g]));
    }
    // M⁻¹p′ = M⁻¹P′ · a^lo / (b^hi · L).
    std::optional<Vec> coordinates = cone.NonNegativeCombination(
        grouped, weights,
        Rational::Pow(Rational(a), lo) * Rational::Pow(Rational(b), -hi) /
            Rational(denominator));
    if (coordinates.has_value()) {
      walk.t = Rational(a, b);
      walk.coordinates = std::move(*coordinates);
      return walk;
    }
  }
  walk.status.code = ExecCode::kResourceExhausted;
  walk.status.kernel = "core.walk";
  return walk;
}

CounterexampleOutcome TrySynthesizeCounterexample(
    const InstanceAnalysis& analysis, const GoodBasis& basis) {
  const std::size_t k = analysis.basis_queries.size();
  BagCounterexample result;
  result.basis_structures = basis.structures;
  result.evaluation_matrix = basis.evaluation;

  // Fact 5: integer z with ⟨z, v⃗⟩ = 0 for all v ∈ V and ⟨z, q⃗⟩ ≠ 0.
  std::optional<Vec> z =
      OrthogonalWitness(analysis.view_vectors, analysis.query_vector);
  if (!z.has_value()) {
    throw std::logic_error(
        "SynthesizeCounterexample: query vector lies in the view span");
  }
  result.z = std::move(*z);

  // The cone C = M(R^k_{>=0}) of Definition 52; nonsingularity of the good
  // basis makes it simplicial with nonempty interior (Corollary 8).
  SimplicialCone cone(basis.evaluation);

  // Lemma 57: walk t toward 1 until p′ = t^z ∘ p falls back inside C,
  // starting from the interior point p = M·𝟙. Continuity at t = 1
  // (coordinates (𝟙) are strictly positive) guarantees termination.
  PerturbationWalk walk = WalkIntoCone(cone, cone.InteriorPoint(), result.z);
  if (!walk.status.ok()) return {std::nullopt, std::move(walk.status)};
  result.t = std::move(walk.t);

  // Lemma 55: clear denominators so both coordinate vectors are natural.
  Vec ones(k);
  for (std::size_t i = 0; i < k; ++i) ones[i] = Rational(1);
  Rational c_prime{walk.coordinates.CommonDenominator()};
  result.coeffs_d = ones * c_prime;
  result.coeffs_d_prime = walk.coordinates * c_prime;

  auto build = [&](const Vec& coeffs) {
    std::vector<StructureExpr> terms;
    for (std::size_t i = 0; i < k; ++i) {
      terms.push_back(
          StructureExpr::Scalar(coeffs[i].numerator(), basis.structures[i]));
    }
    return StructureExpr::Sum(std::move(terms),
                              analysis.query.schema_ptr());
  };
  result.d = build(result.coeffs_d);
  result.d_prime = build(result.coeffs_d_prime);
  return {std::move(result), ExecStatus{}};
}

BagCounterexample SynthesizeCounterexample(const InstanceAnalysis& analysis,
                                           const GoodBasis& basis) {
  CounterexampleOutcome outcome =
      TrySynthesizeCounterexample(analysis, basis);
  if (!outcome.counterexample.has_value()) {
    throw std::logic_error("SynthesizeCounterexample: " +
                           outcome.status.ToString());
  }
  return std::move(*outcome.counterexample);
}

}  // namespace bagdet
