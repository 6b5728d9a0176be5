// Randomized cross-validation of the Theorem-3 decision procedure:
//  * determined   => the witness identity holds on random structures AND no
//                    counterexample pair exists among all small structures;
//  * not determined => the synthesized counterexample verifies exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/determinacy.h"
#include "hom/hom.h"
#include "linalg/gauss.h"
#include "query/cq.h"
#include "structs/canonical.h"
#include "structs/generator.h"
#include "test_instances.h"
#include "test_matrices.h"
#include "util/rng.h"

namespace bagdet {
namespace {

using testinst::RandomQueryBody;

class DeterminacyPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  std::shared_ptr<Schema> schema_ = [] {
    auto schema = std::make_shared<Schema>();
    schema->AddRelation("E", 2);
    return schema;
  }();

  /// All structures over `schema_` with domain size <= 2.
  std::vector<Structure> SmallStructures() {
    std::vector<Structure> all;
    for (std::size_t n = 0; n <= 2; ++n) {
      EnumerateStructures(schema_, n, [&](const Structure& s) {
        all.push_back(s);
        return true;
      });
    }
    return all;
  }
};

TEST_P(DeterminacyPropertyTest, DecisionConsistentWithGroundTruth) {
  Rng rng(GetParam());
  std::vector<Structure> small = SmallStructures();
  for (int iter = 0; iter < 6; ++iter) {
    ConjunctiveQuery q =
        BooleanQueryFromStructure("q", RandomQueryBody(schema_, &rng));
    std::vector<ConjunctiveQuery> views;
    std::size_t num_views = 1 + rng.Below(3);
    for (std::size_t i = 0; i < num_views; ++i) {
      views.push_back(BooleanQueryFromStructure(
          "v" + std::to_string(i), RandomQueryBody(schema_, &rng)));
    }
    DeterminacyResult result = DecideBagDeterminacy(views, q);

    // Ground truth over all pairs of small structures: a pair with equal
    // view answers but different q answers refutes determinacy.
    bool found_refutation = false;
    std::vector<BigInt> q_counts;
    std::vector<std::vector<BigInt>> view_counts;
    q_counts.reserve(small.size());
    for (const Structure& d : small) {
      q_counts.push_back(q.CountHomomorphisms(d));
      std::vector<BigInt> per_view;
      for (const ConjunctiveQuery& v : views) {
        per_view.push_back(v.CountHomomorphisms(d));
      }
      view_counts.push_back(std::move(per_view));
    }
    for (std::size_t a = 0; a < small.size() && !found_refutation; ++a) {
      for (std::size_t b = a + 1; b < small.size(); ++b) {
        if (view_counts[a] == view_counts[b] && q_counts[a] != q_counts[b]) {
          found_refutation = true;
          break;
        }
      }
    }

    if (result.determined) {
      EXPECT_FALSE(found_refutation)
          << "decision says determined but small structures refute it; q="
          << q.ToString();
      // The witness identity holds on every small structure.
      for (const Structure& d : small) {
        EXPECT_TRUE(CheckWitnessOnStructure(result.analysis, *result.witness, d))
            << "witness fails on " << d.ToString() << " for q=" << q.ToString();
      }
    } else {
      ASSERT_TRUE(result.counterexample.has_value());
      EXPECT_EQ(VerifyCounterexample(result.analysis, *result.counterexample),
                std::nullopt)
          << "q=" << q.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminacyPropertyTest,
                         ::testing::Values(1001, 1002, 1003, 1004, 1005, 1006,
                                           1007, 1008));

// End-to-end invariance: for seeded random instances, the full verdict —
// determined bit, witness exponents, counterexample coordinates — must be
// bit-identical under hom-cache eviction pressure. This is the property
// the whole concurrent serving core promises (each decision runs on its
// calling thread, and counts are pure functions of interned classes); a
// cache-dependent verdict is a soundness bug, not a flake.
TEST(DeterminacyInvarianceTest, VerdictInvariantUnderCacheBudgets) {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("E", 2);
  Rng rng(77001);

  // 0 = unbounded library default; a one-entry cache evicts on every
  // insert.
  const std::size_t cache_budgets[] = {0, 16, 1};

  for (int iter = 0; iter < 5; ++iter) {
    ConjunctiveQuery q =
        BooleanQueryFromStructure("q", RandomQueryBody(schema, &rng));
    std::vector<ConjunctiveQuery> views;
    const std::size_t num_views = 1 + rng.Below(3);
    for (std::size_t i = 0; i < num_views; ++i) {
      views.push_back(BooleanQueryFromStructure(
          "v" + std::to_string(i), RandomQueryBody(schema, &rng)));
    }

    std::vector<DeterminacyResult> results;
    for (std::size_t budget : cache_budgets) {
      DeterminacyOptions options;
      if (budget != 0) {
        options.shared_hom_cache = std::make_shared<HomCache>();
        options.shared_hom_cache->set_max_entries(budget);
      }
      results.push_back(DecideBagDeterminacy(views, q, options));
    }

    const DeterminacyResult& base = results[0];
    for (std::size_t i = 1; i < results.size(); ++i) {
      const DeterminacyResult& other = results[i];
      ASSERT_EQ(base.determined, other.determined)
          << "iter " << iter << " config " << i << " q=" << q.ToString();
      ASSERT_EQ(base.witness.has_value(), other.witness.has_value());
      if (base.witness.has_value()) {
        EXPECT_EQ(base.witness->view_indices, other.witness->view_indices)
            << "iter " << iter << " config " << i;
        EXPECT_EQ(base.witness->exponents, other.witness->exponents)
            << "iter " << iter << " config " << i;
      }
      ASSERT_EQ(base.counterexample.has_value(),
                other.counterexample.has_value());
      if (base.counterexample.has_value()) {
        const BagCounterexample& a = *base.counterexample;
        const BagCounterexample& b = *other.counterexample;
        EXPECT_EQ(a.coeffs_d, b.coeffs_d) << "iter " << iter << " cfg " << i;
        EXPECT_EQ(a.coeffs_d_prime, b.coeffs_d_prime)
            << "iter " << iter << " cfg " << i;
        EXPECT_EQ(a.evaluation_matrix, b.evaluation_matrix)
            << "iter " << iter << " cfg " << i;
        EXPECT_EQ(a.z, b.z) << "iter " << iter << " cfg " << i;
        EXPECT_EQ(a.t, b.t) << "iter " << iter << " cfg " << i;
      }
    }
  }
}

// A targeted stress case: many views, mixed relevance, fractional witness.
TEST(DeterminacyStressTest, MixedRelevanceInstance) {
  auto schema = std::make_shared<Schema>();
  RelationId e = schema->AddRelation("E", 2);
  RelationId f = schema->AddRelation("F", 2);
  Structure loop(schema);
  loop.AddFact(e, {0, 0});
  Structure edge(schema);
  edge.AddFact(e, {0, 1});
  Structure f_edge(schema);
  f_edge.AddFact(f, {0, 1});
  auto combine = [&](int a, int b, int c) {
    Structure s(schema);
    for (int i = 0; i < a; ++i) s = DisjointUnion(s, loop);
    for (int i = 0; i < b; ++i) s = DisjointUnion(s, edge);
    for (int i = 0; i < c; ++i) s = DisjointUnion(s, f_edge);
    return s;
  };
  ConjunctiveQuery q = BooleanQueryFromStructure("q", combine(1, 1, 0));
  std::vector<ConjunctiveQuery> views = {
      BooleanQueryFromStructure("v1", combine(2, 1, 0)),
      BooleanQueryFromStructure("v2", combine(1, 2, 0)),
      // Irrelevant: uses F which q does not touch, so q ⊄set v3.
      BooleanQueryFromStructure("v3", combine(1, 1, 1)),
  };
  DeterminacyResult result = DecideBagDeterminacy(views, q);
  ASSERT_TRUE(result.determined);
  EXPECT_EQ(result.analysis.relevant_views.size(), 2u);
  Rng rng(2024);
  for (int iter = 0; iter < 6; ++iter) {
    Structure d = RandomStructure(schema, 1 + rng.Below(3), &rng);
    EXPECT_TRUE(CheckWitnessOnStructure(result.analysis, *result.witness, d));
  }
}

// --- Relevance per component class vs the per-view oracle ------------------
//
// AnalyzeInstance decides Definition 25 once per component class (Lemma
// 4(5)): q's classes map by inclusion and each foreign class gets one
// memoized ExistsHom. The per-view IsContainedSetSemantics filter is the
// oracle it must match.

Structure DirectedCycle(const std::shared_ptr<Schema>& schema, RelationId e,
                        Element n) {
  Structure s(schema);
  for (Element i = 0; i < n; ++i) s.AddFact(e, {i, (i + 1) % n});
  return s;
}

Structure DirectedPath(const std::shared_ptr<Schema>& schema, RelationId e,
                       Element edges) {
  Structure s(schema);
  for (Element i = 0; i < edges; ++i) s.AddFact(e, {i, i + 1});
  return s;
}

/// A random connected digraph over `e` on n elements: a random spanning tree
/// with random edge directions, plus every other pair (loops included) with
/// probability 1/3.
Structure RandomDigraphComponent(const std::shared_ptr<Schema>& schema,
                                 RelationId e, Element n, Rng* rng) {
  Structure s(schema);
  for (Element i = 1; i < n; ++i) {
    const Element parent = static_cast<Element>(rng->Below(i));
    if (rng->Chance(1, 2)) {
      s.AddFact(e, {parent, i});
    } else {
      s.AddFact(e, {i, parent});
    }
  }
  for (Element a = 0; a < n; ++a) {
    for (Element b = 0; b < n; ++b) {
      if (rng->Chance(1, 3)) s.AddFact(e, {a, b});
    }
  }
  if (n == 1 && s.NumFacts() == 0) s.AddFact(e, {0, 0});
  return s;
}

TEST(RelevancePropertyTest, PerClassFilterMatchesPerViewContainment) {
  auto schema = std::make_shared<Schema>();
  const RelationId e = schema->AddRelation("E", 2);
  const RelationId f = schema->AddRelation("F", 2);
  Structure f_edge(schema);  // Never maps: q has no F facts.
  f_edge.AddFact(f, {0, 1});
  // One shared cache across every instance, as a serving pool would be.
  auto shared = std::make_shared<HomCache>();

  std::size_t foreign_classes_that_map = 0;
  std::size_t foreign_classes_that_fail = 0;
  std::size_t relevant_with_foreign = 0;
  std::size_t irrelevant_with_q_classes = 0;
  for (std::uint64_t seed : {31, 32, 33, 34}) {
    Rng rng(seed);
    for (int iter = 0; iter < 6; ++iter) {
      // q = C3 plus one or two random components on 1–3 elements. C6 and
      // directed paths map into C3 without being isomorphic to a class of q.
      std::vector<Structure> q_classes = {DirectedCycle(schema, e, 3)};
      const std::size_t extra = 1 + rng.Below(2);
      for (std::size_t c = 0; c < extra; ++c) {
        q_classes.push_back(RandomDigraphComponent(
            schema, e, static_cast<Element>(1 + rng.Below(3)), &rng));
      }
      std::vector<Structure> foreign = {
          DirectedCycle(schema, e, 6),
          DirectedPath(schema, e, static_cast<Element>(1 + rng.Below(4))),
          f_edge,
          RandomDigraphComponent(schema, e,
                                 static_cast<Element>(1 + rng.Below(4)), &rng),
      };
      Structure q_body(schema);
      for (const Structure& c : q_classes) q_body = DisjointUnion(q_body, c);
      const ConjunctiveQuery q = BooleanQueryFromStructure("q", q_body);

      // One foreign class repeats across about half of the views; some
      // views add the failing F-edge to q's classes, others a random
      // foreign class.
      const Structure& repeated = foreign[rng.Below(foreign.size())];
      std::vector<ConjunctiveQuery> views;
      const std::size_t num_views = 8 + rng.Below(8);
      for (std::size_t v = 0; v < num_views; ++v) {
        Structure body(schema);
        for (const Structure& c : q_classes) {
          for (std::uint64_t k = rng.Below(3); k > 0; --k) {
            body = DisjointUnion(body, c);
          }
        }
        if (rng.Chance(1, 2)) body = DisjointUnion(body, repeated);
        switch (rng.Below(3)) {
          case 0:
            body = DisjointUnion(body, f_edge);
            break;
          case 1:
            body = DisjointUnion(body, foreign[rng.Below(foreign.size())]);
            break;
          default:
            break;
        }
        if (body.NumFacts() == 0) body = q_classes[0];
        views.push_back(
            BooleanQueryFromStructure("v" + std::to_string(v), body));
      }

      std::vector<std::size_t> expected;
      for (std::size_t i = 0; i < views.size(); ++i) {
        if (IsContainedSetSemantics(q, views[i])) expected.push_back(i);
      }
      const InstanceAnalysis private_cache = AnalyzeInstance(views, q);
      const InstanceAnalysis shared_cache = AnalyzeInstance(views, q, shared);
      EXPECT_EQ(private_cache.relevant_views, expected)
          << "seed " << seed << " iter " << iter << " q=" << q.ToString();
      EXPECT_EQ(shared_cache.relevant_views, expected)
          << "seed " << seed << " iter " << iter << " q=" << q.ToString();
      EXPECT_EQ(private_cache.relevance_searches,
                shared_cache.relevance_searches);

      // Coverage of the generator, classified independently of the filter.
      std::set<CanonicalKey> q_keys;
      for (const Structure& c : ConnectedComponents(q.FrozenBody())) {
        q_keys.insert(CanonicalKeyOf(c));
      }
      std::set<CanonicalKey> foreign_keys;
      for (std::size_t i = 0; i < views.size(); ++i) {
        bool has_foreign = false;
        bool has_q_class = false;
        for (const Structure& c : ConnectedComponents(views[i].FrozenBody())) {
          const CanonicalKey key = CanonicalKeyOf(c);
          if (q_keys.count(key) != 0) {
            has_q_class = true;
            continue;
          }
          has_foreign = true;
          if (!foreign_keys.insert(key).second) continue;
          if (ExistsHom(c, q.FrozenBody())) {
            ++foreign_classes_that_map;
          } else {
            ++foreign_classes_that_fail;
          }
        }
        const bool relevant =
            std::find(expected.begin(), expected.end(), i) != expected.end();
        if (relevant && has_foreign) ++relevant_with_foreign;
        if (!relevant && has_q_class) ++irrelevant_with_q_classes;
      }
      EXPECT_LE(private_cache.relevance_searches, foreign_keys.size());
    }
  }
  EXPECT_GT(foreign_classes_that_map, 0u);
  EXPECT_GT(foreign_classes_that_fail, 0u);
  EXPECT_GT(relevant_with_foreign, 0u);
  EXPECT_GT(irrelevant_with_q_classes, 0u);
}

// --- Certificates vs the rational Lemma-57 walk -----------------------------
//
// The integer walk must pick the same first j as the rational walk it
// replaced, so (z, t, coeffs_d, coeffs_d_prime) are bit-identical.

struct RationalCertificate {
  Vec z;
  Rational t;
  Vec coeffs_d;
  Vec coeffs_d_prime;
};

/// The walk as it ran on rationals: z from Fact 5, p = M·𝟙, then for
/// j = 1, 2, … the rational t^z ∘ p under the rational Gauss–Jordan
/// inverse until M⁻¹p′ ≥ 0, and Lemma 55's denominator clearing.
RationalCertificate RationalWalk(const InstanceAnalysis& analysis,
                                 const Mat& m) {
  RationalCertificate out;
  out.z = *OrthogonalWitness(analysis.view_vectors, analysis.query_vector);
  const std::optional<Mat> inverse = testmat::GaussJordanInverse(m);
  const std::size_t k = m.rows();
  Vec ones(k);
  for (std::size_t i = 0; i < k; ++i) ones[i] = Rational(1);
  const Vec p = m.Apply(ones);
  for (std::uint64_t j = 1; j <= 4097; ++j) {
    const Rational t =
        Rational(1) + Rational(BigInt(1), BigInt::Pow(BigInt(2), j));
    Vec p_prime(k);
    for (std::size_t i = 0; i < k; ++i) {
      p_prime[i] = Rational::Pow(t, out.z[i].numerator().ToInt64()) * p[i];
    }
    const Vec alpha = inverse->Apply(p_prime);
    if (!alpha.IsNonNegative()) continue;
    const Rational c{alpha.CommonDenominator()};
    out.t = t;
    out.coeffs_d = ones * c;
    out.coeffs_d_prime = alpha * c;
    return out;
  }
  ADD_FAILURE() << "rational walk did not converge";
  return out;
}

void ExpectCertificateMatchesRationalWalk(const DeterminacyResult& result) {
  ASSERT_FALSE(result.determined);
  ASSERT_TRUE(result.counterexample.has_value());
  const BagCounterexample& cx = *result.counterexample;
  const RationalCertificate want =
      RationalWalk(result.analysis, cx.evaluation_matrix);
  EXPECT_EQ(cx.z, want.z);
  EXPECT_EQ(cx.t, want.t);
  EXPECT_EQ(cx.coeffs_d, want.coeffs_d);
  EXPECT_EQ(cx.coeffs_d_prime, want.coeffs_d_prime);
  EXPECT_EQ(VerifyCounterexample(result.analysis, cx), std::nullopt);
}

TEST(CertificateDifferentialTest, CycleRampsMatchRationalWalk) {
  // q = Σ_{i≤k} C_i, one view Σ i·C_i: the pipeline's cycle ramps.
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("E", 2);
  for (std::size_t k = 2; k <= 8; ++k) {
    SCOPED_TRACE("k=" + std::to_string(k));
    Structure q_body(schema);
    Structure v_body(schema);
    for (std::size_t len = 1; len <= k; ++len) {
      Structure cycle(schema);
      for (Element i = 0; i < len; ++i) {
        cycle.AddFact(0, {i, static_cast<Element>((i + 1) % len)});
      }
      q_body = DisjointUnion(q_body, cycle);
      for (std::size_t copies = 0; copies < len; ++copies) {
        v_body = DisjointUnion(v_body, cycle);
      }
    }
    const DeterminacyResult result =
        DecideBagDeterminacy({BooleanQueryFromStructure("v", v_body)},
                             BooleanQueryFromStructure("q", q_body));
    ExpectCertificateMatchesRationalWalk(result);
  }
}

TEST(CertificateDifferentialTest, RandomInstancesMatchRationalWalk) {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("E", 2);
  Rng rng(55001);
  int undetermined = 0;
  for (int iter = 0; iter < 60 && undetermined < 16; ++iter) {
    ConjunctiveQuery q =
        BooleanQueryFromStructure("q", RandomQueryBody(schema, &rng));
    std::vector<ConjunctiveQuery> views;
    const std::size_t num_views = 1 + rng.Below(3);
    for (std::size_t i = 0; i < num_views; ++i) {
      views.push_back(BooleanQueryFromStructure(
          "v" + std::to_string(i), RandomQueryBody(schema, &rng)));
    }
    const DeterminacyResult result = DecideBagDeterminacy(views, q);
    if (result.determined) continue;
    ++undetermined;
    SCOPED_TRACE("iter " + std::to_string(iter) + " q=" + q.ToString());
    ExpectCertificateMatchesRationalWalk(result);
  }
  EXPECT_GE(undetermined, 8);
}

}  // namespace
}  // namespace bagdet
