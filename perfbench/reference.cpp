#include "reference.h"

#include <stdexcept>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

using Int = __int128;

Int Abs(Int x) { return x < 0 ? -x : x; }

Int Gcd(Int a, Int b) {
  a = Abs(a);
  b = Abs(b);
  while (b != 0) {
    Int t = a % b;
    a = b;
    b = t;
  }
  return a;
}

Int Mul(Int a, Int b) {
  Int r = 0;
  if (__builtin_mul_overflow(a, b, &r)) {
    throw std::overflow_error("reference arithmetic overflow");
  }
  return r;
}

Int Add(Int a, Int b) {
  Int r = 0;
  if (__builtin_add_overflow(a, b, &r)) {
    throw std::overflow_error("reference arithmetic overflow");
  }
  return r;
}

/// Rank by fraction-free elimination, each row kept primitive (divided by
/// the gcd of its entries) so entries stay small.
std::size_t Rank(std::vector<std::vector<Int>> rows) {
  std::size_t rank = 0;
  const std::size_t cols = rows.empty() ? 0 : rows[0].size();
  for (std::size_t c = 0; c < cols && rank < rows.size(); ++c) {
    std::size_t pivot = rank;
    while (pivot < rows.size() && rows[pivot][c] == 0) ++pivot;
    if (pivot == rows.size()) continue;
    std::swap(rows[rank], rows[pivot]);
    for (std::size_t r = rank + 1; r < rows.size(); ++r) {
      if (rows[r][c] == 0) continue;
      const Int a = rows[rank][c];
      const Int b = rows[r][c];
      Int g = 0;
      for (std::size_t j = 0; j < cols; ++j) {
        rows[r][j] = Add(Mul(rows[r][j], a), -Mul(rows[rank][j], b));
        g = Gcd(g, rows[r][j]);
      }
      if (g > 1) {
        for (Int& x : rows[r]) x /= g;
      }
    }
    ++rank;
  }
  return rank;
}

/// Parses "a" or "a/b" (Rational::ToString) into an exact fraction.
std::pair<Int, Int> ParseFraction(const std::string& text) {
  auto parse = [](const std::string& s) {
    if (s.empty()) throw std::invalid_argument("empty number");
    Int v = 0;
    std::size_t i = s[0] == '-' ? 1 : 0;
    if (i == s.size()) throw std::invalid_argument("bad number " + s);
    for (; i < s.size(); ++i) {
      if (s[i] < '0' || s[i] > '9') throw std::invalid_argument("bad number " + s);
      v = Add(Mul(v, 10), s[i] - '0');
    }
    return s[0] == '-' ? -v : v;
  };
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos) return {parse(text), 1};
  return {parse(text.substr(0, slash)), parse(text.substr(slash + 1))};
}

/// Σ_j α_j · m(view_j) = m(q), with the denominators cleared.
std::string WitnessMismatch(const Instance& instance,
                            const bagdet::DeterminacyWitness& witness) {
  if (witness.view_indices.size() != witness.exponents.size()) {
    return "witness arity mismatch";
  }
  std::vector<std::pair<Int, Int>> alpha;
  Int lcm = 1;
  for (std::size_t j = 0; j < witness.exponents.size(); ++j) {
    alpha.push_back(ParseFraction(witness.exponents[j].ToString()));
    const Int den = alpha.back().second;
    if (den <= 0) return "witness denominator not positive";
    lcm = Mul(lcm / Gcd(lcm, den), den);
  }
  const std::size_t k = instance.query_mult.size();
  for (std::size_t c = 0; c < k; ++c) {
    Int sum = 0;
    for (std::size_t j = 0; j < alpha.size(); ++j) {
      const std::size_t v = witness.view_indices[j];
      if (v >= instance.relevant.size() || !instance.relevant[v]) {
        return "witness uses irrelevant view " + std::to_string(v);
      }
      const Int scaled = Mul(alpha[j].first, lcm / alpha[j].second);
      sum = Add(sum, Mul(scaled, instance.view_mults[v][c]));
    }
    if (sum != Mul(instance.query_mult[c], lcm)) {
      return "witness exponents do not reproduce q on component " +
             std::to_string(c);
    }
  }
  return "";
}

std::uint64_t Mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h * 0xff51afd7ed558ccdull;
}

std::uint64_t Mix(std::uint64_t h, const bagdet::Rational& r) {
  return Mix(Mix(h, r.numerator().Hash()), r.denominator().Hash());
}

std::uint64_t Mix(std::uint64_t h, const bagdet::Vec& v) {
  h = Mix(h, v.size());
  for (std::size_t i = 0; i < v.size(); ++i) h = Mix(h, v[i]);
  return h;
}

}  // namespace

bool ReferenceDetermined(const Instance& instance) {
  std::vector<std::vector<Int>> rows;
  for (std::size_t v = 0; v < instance.relevant.size(); ++v) {
    if (!instance.relevant[v]) continue;
    rows.emplace_back(instance.view_mults[v].begin(),
                      instance.view_mults[v].end());
  }
  const std::size_t rank_v = Rank(rows);
  rows.emplace_back(instance.query_mult.begin(), instance.query_mult.end());
  return Rank(rows) == rank_v;
}

std::uint64_t AnswerDigest(const bagdet::DeterminacyResult& result) {
  // Hashes the exact values (no decimal conversion: evaluation-matrix
  // entries run to thousands of digits).
  std::uint64_t h = Mix(0xcbf29ce484222325ull, result.determined ? 1 : 2);
  if (result.witness.has_value()) {
    for (std::size_t v : result.witness->view_indices) h = Mix(h, v);
    h = Mix(h, result.witness->exponents);
  }
  if (result.counterexample.has_value()) {
    const bagdet::BagCounterexample& cx = *result.counterexample;
    h = Mix(Mix(Mix(Mix(h, cx.z), cx.t), cx.coeffs_d), cx.coeffs_d_prime);
    const bagdet::Mat& m = cx.evaluation_matrix;
    h = Mix(Mix(h, m.rows()), m.cols());
    for (std::size_t r = 0; r < m.rows(); ++r) {
      for (std::size_t c = 0; c < m.cols(); ++c) h = Mix(h, m.At(r, c));
    }
  }
  return h;
}

std::string VerifyCertificate(const bagdet::InstanceAnalysis& analysis,
                              const bagdet::BagCounterexample& cx) {
  const std::size_t k = cx.basis_structures.size();
  if (cx.coeffs_d.size() != k || cx.coeffs_d_prime.size() != k) {
    return "certificate coefficient vectors have the wrong size";
  }
  auto build = [&](const bagdet::Vec& coeffs, std::string* why) {
    std::vector<bagdet::StructureExpr> terms;
    for (std::size_t i = 0; i < k; ++i) {
      if (!coeffs[i].IsInteger() || coeffs[i].Sign() < 0) {
        *why = "certificate coefficient " + std::to_string(i) +
               " is not a natural number";
        return bagdet::StructureExpr();
      }
      terms.push_back(bagdet::StructureExpr::Scalar(coeffs[i].numerator(),
                                                    cx.basis_structures[i]));
    }
    return bagdet::StructureExpr::Sum(std::move(terms),
                                      analysis.query.schema_ptr());
  };
  std::string why;
  bagdet::BagCounterexample rebuilt = cx;
  rebuilt.d = build(cx.coeffs_d, &why);
  if (why.empty()) rebuilt.d_prime = build(cx.coeffs_d_prime, &why);
  if (!why.empty()) return why;
  if (rebuilt.d.DomainSize() != cx.d.DomainSize() ||
      rebuilt.d_prime.DomainSize() != cx.d_prime.DomainSize()) {
    return "certificate terms disagree with their coefficients";
  }
  std::optional<std::string> failure =
      bagdet::VerifyCounterexample(analysis, rebuilt);
  return failure.has_value() ? "certificate rejected: " + *failure : "";
}

std::string Checker::Check(const Instance& instance, std::size_t instance_id,
                           bool expected_determined,
                           const bagdet::DeterminacyResult& result,
                           bool want_counterexample) {
  try {
    if (result.determined != expected_determined) {
      return std::string("wrong verdict: expected ") +
             (expected_determined ? "determined" : "not determined");
    }
    std::vector<std::size_t> relevant;
    for (std::size_t v = 0; v < instance.relevant.size(); ++v) {
      if (instance.relevant[v]) relevant.push_back(v);
    }
    if (result.analysis.relevant_views != relevant) {
      return "relevant views differ from the generator's";
    }
    if (result.determined) {
      if (!result.witness.has_value()) return "determined without a witness";
      if (result.witness->view_indices != relevant) {
        return "witness does not use exactly the relevant views";
      }
      return WitnessMismatch(instance, *result.witness);
    }
    if (!want_counterexample) return "";
    if (!result.counterexample.has_value()) {
      return "missing certificate: " + result.exec_status.ToString();
    }
    const auto key = std::make_pair(instance_id, AnswerDigest(result));
    auto it = verified_.find(key);
    if (it != verified_.end()) {
      return it->second ? "" : "certificate previously rejected";
    }
    if (defer_) {
      verified_.emplace(key, true);
      queued_.push_back(Queued{instance_id, key.second, *result.counterexample});
      return "";
    }
    std::string why = Verify(instance_id, *result.counterexample);
    verified_.emplace(key, why.empty());
    return why;
  } catch (const std::exception& e) {
    return std::string("checker exception: ") + e.what();
  }
}

std::string Checker::Verify(std::size_t instance_id,
                            const bagdet::BagCounterexample& cx) {
  try {
    return VerifyCertificate(analyze_(instance_id), cx);
  } catch (const std::exception& e) {
    return std::string("checker exception: ") + e.what();
  }
}

std::vector<std::pair<std::size_t, std::string>> Checker::VerifyQueued() {
  std::vector<std::pair<std::size_t, std::string>> failures;
  for (const Queued& q : queued_) {
    const std::string why = Verify(q.instance_id, q.cx);
    verified_[{q.instance_id, q.digest}] = why.empty();
    if (!why.empty()) failures.emplace_back(q.instance_id, why);
  }
  queued_.clear();
  return failures;
}

}  // namespace perfbench
