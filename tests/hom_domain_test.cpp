// Unit and differential coverage of the domain layer of the hom core:
// SVOBitset (inline/spill boundary, intersection/count/scan kernels, copy
// and move hygiene), DomainSet propagation (seeding, arc-consistency
// fixpoint, binding cascades), and the DpOptions ablation matrix with the
// domain layer forced on.

#include <gtest/gtest.h>

#include <vector>

#include "hom/domain.h"
#include "hom/hom.h"
#include "structs/generator.h"
#include "util/bitset.h"
#include "util/rng.h"
#include "test_matrices.h"

namespace bagdet {
namespace {

std::shared_ptr<Schema> GraphSchema() {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("E", 2);
  return schema;
}

// --- SVOBitset --------------------------------------------------------------

TEST(SVOBitsetTest, InlineSpillBoundary) {
  // kInlineWords * 64 = 256 bits is the last inline size; 257 spills.
  SVOBitset at_boundary(256);
  SVOBitset past_boundary(257);
  EXPECT_FALSE(at_boundary.spilled());
  EXPECT_TRUE(past_boundary.spilled());
  for (std::size_t bits : {std::size_t{0}, std::size_t{1}, std::size_t{63},
                           std::size_t{64}, std::size_t{65}, std::size_t{255},
                           std::size_t{256}, std::size_t{257},
                           std::size_t{1000}}) {
    SVOBitset b(bits);
    EXPECT_EQ(b.size(), bits);
    EXPECT_EQ(b.Count(), 0u);
    EXPECT_TRUE(b.None());
    EXPECT_EQ(b.FindFirst(), SVOBitset::npos);
    if (bits == 0) continue;
    b.Set(bits - 1);
    EXPECT_TRUE(b.Test(bits - 1));
    EXPECT_EQ(b.Count(), 1u) << bits;
    EXPECT_EQ(b.FindFirst(), bits - 1);
  }
}

TEST(SVOBitsetTest, SetAllKeepsTailBitsClear) {
  // Sizes straddling word boundaries: SetAll must never set phantom bits
  // past size(), or Count/FindNext would report members outside the
  // target domain.
  for (std::size_t bits : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                           std::size_t{65}, std::size_t{200},
                           std::size_t{256}, std::size_t{300}}) {
    SVOBitset b(bits, /*all_set=*/true);
    EXPECT_EQ(b.Count(), bits);
    EXPECT_EQ(b.FindNext(bits), SVOBitset::npos) << bits;
    std::size_t seen = 0;
    for (std::size_t i = b.FindFirst(); i != SVOBitset::npos;
         i = b.FindNext(i + 1)) {
      EXPECT_EQ(i, seen);
      ++seen;
    }
    EXPECT_EQ(seen, bits);
  }
}

TEST(SVOBitsetTest, IntersectWithReportsSurvivors) {
  for (std::size_t bits : {std::size_t{100}, std::size_t{300}}) {
    SVOBitset evens(bits), threes(bits);
    for (std::size_t i = 0; i < bits; i += 2) evens.Set(i);
    for (std::size_t i = 0; i < bits; i += 3) threes.Set(i);
    SVOBitset both = evens;
    EXPECT_TRUE(both.IntersectWith(threes));
    for (std::size_t i = 0; i < bits; ++i) {
      EXPECT_EQ(both.Test(i), i % 6 == 0) << i;
    }
    EXPECT_EQ(both.Count(), (bits + 5) / 6);
    // Disjoint sets: the fused empty check fires.
    SVOBitset odds(bits);
    for (std::size_t i = 1; i < bits; i += 2) odds.Set(i);
    SVOBitset dead = evens;
    EXPECT_FALSE(dead.IntersectWith(odds));
    EXPECT_TRUE(dead.None());
  }
}

TEST(SVOBitsetTest, FindNextScansAcrossWords) {
  SVOBitset b(320, /*all_set=*/false);
  b.Set(0);
  b.Set(63);
  b.Set(64);
  b.Set(191);
  b.Set(319);
  std::vector<std::size_t> hits;
  for (std::size_t i = b.FindFirst(); i != SVOBitset::npos;
       i = b.FindNext(i + 1)) {
    hits.push_back(i);
  }
  EXPECT_EQ(hits, (std::vector<std::size_t>{0, 63, 64, 191, 319}));
  EXPECT_EQ(b.FindNext(65), 191u);
  b.Reset(191);
  EXPECT_EQ(b.FindNext(65), 319u);
}

TEST(SVOBitsetTest, CopyAndMoveHygiene) {
  for (std::size_t bits : {std::size_t{128}, std::size_t{512}}) {
    SVOBitset original(bits);
    original.Set(7);
    original.Set(bits - 1);
    SVOBitset copy(original);
    EXPECT_EQ(copy, original);
    copy.Set(11);
    EXPECT_NE(copy, original);  // Deep copy: no shared storage.
    EXPECT_FALSE(original.Test(11));
    SVOBitset moved(std::move(copy));
    EXPECT_TRUE(moved.Test(11));
    EXPECT_TRUE(moved.Test(bits - 1));
    // Assignment across different footprints reallocates correctly.
    SVOBitset assigned(3);
    assigned = original;
    EXPECT_EQ(assigned, original);
    assigned = SVOBitset(bits);  // Move-assign over a live value.
    EXPECT_EQ(assigned.Count(), 0u);
    EXPECT_EQ(assigned.size(), bits);
  }
}

// --- DomainSet / DomainModel ------------------------------------------------

TEST(HomDomainTest, SeedingRestrictsToOccupiedPositions) {
  // from: x -> y.  to: path 0 -> 1 -> 2.  Arc consistency gives exactly
  // D(x) = {0, 1} (sources) and D(y) = {1, 2} (sinks).
  auto schema = GraphSchema();
  Structure from(schema, 2);
  from.AddFact(0, {0, 1});
  Structure to(schema, 3);
  to.AddFact(0, {0, 1});
  to.AddFact(0, {1, 2});
  DomainModel model(from, to);
  DomainSet doms;
  ASSERT_TRUE(model.InitialDomains(&doms));
  EXPECT_TRUE(doms.domain(0).Test(0));
  EXPECT_TRUE(doms.domain(0).Test(1));
  EXPECT_FALSE(doms.domain(0).Test(2));
  EXPECT_FALSE(doms.domain(1).Test(0));
  EXPECT_TRUE(doms.domain(1).Test(1));
  EXPECT_TRUE(doms.domain(1).Test(2));
}

TEST(HomDomainTest, FixpointDetectsInfeasibilityBeforeSearch) {
  // from: x -> y -> z needs a target vertex with both an in- and an
  // out-edge; a single disconnected edge has none, so the propagation
  // fixpoint empties D(y) with no search at all.
  auto schema = GraphSchema();
  Structure from(schema, 3);
  from.AddFact(0, {0, 1});
  from.AddFact(0, {1, 2});
  Structure to(schema, 2);
  to.AddFact(0, {0, 1});
  DomainModel model(from, to);
  DomainSet doms;
  EXPECT_FALSE(model.InitialDomains(&doms));
  EXPECT_EQ(CountHoms(from, to), BigInt(0));
  EXPECT_FALSE(ExistsHom(from, to));
}

TEST(HomDomainTest, BindCascadesThroughSharedAtoms) {
  // from: x -> y over to: path 0 -> 1 -> 2. Binding x to 0 re-supports the
  // edge atom, collapsing D(y) to {1}; binding x outside its domain fails.
  auto schema = GraphSchema();
  Structure from(schema, 2);
  from.AddFact(0, {0, 1});
  Structure to(schema, 3);
  to.AddFact(0, {0, 1});
  to.AddFact(0, {1, 2});
  DomainModel model(from, to);
  DomainSet doms;
  ASSERT_TRUE(model.InitialDomains(&doms));
  DomainSet bound = doms;
  ASSERT_TRUE(model.Bind(&bound, 0, 0));
  EXPECT_EQ(bound.domain(1).Count(), 1u);
  EXPECT_TRUE(bound.domain(1).Test(1));
  DomainSet rejected = doms;
  EXPECT_FALSE(model.Bind(&rejected, 0, 2));  // 2 has no outgoing edge.
}

TEST(HomDomainTest, RepeatedVariableAtomsNeedDiagonalSupport) {
  // E(x, x) is only supported by loop facts: without one, domains empty.
  auto schema = GraphSchema();
  Structure from(schema, 1);
  from.AddFact(0, {0, 0});
  Structure to(schema, 3);
  to.AddFact(0, {0, 1});
  to.AddFact(0, {1, 2});
  DomainModel model(from, to);
  DomainSet doms;
  EXPECT_FALSE(model.InitialDomains(&doms));
  Structure with_loop = to;
  with_loop.AddFact(0, {2, 2});
  DomainModel loop_model(from, with_loop);
  ASSERT_TRUE(loop_model.InitialDomains(&doms));
  EXPECT_EQ(doms.domain(0).Count(), 1u);
  EXPECT_TRUE(doms.domain(0).Test(2));
}

// --- DpOptions ablation matrix ---------------------------------------------

DpOptions Pr1Options() {
  DpOptions options;
  options.use_domains = false;
  options.order_search_max_atoms = 0;
  return options;
}

TEST(HomDomainTest, OptionsMatrixAgreesOnRandomPairs) {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("H", 0);
  schema->AddRelation("P", 1);
  schema->AddRelation("E", 2);
  schema->AddRelation("T", 3);
  Rng rng(0xd0a1u);
  const int iters = 40 * testmat::DiffIterScale();
  for (int iter = 0; iter < iters; ++iter) {
    Structure from = RandomStructure(schema, rng.Below(4), &rng, 1, 2);
    Structure to = RandomStructure(schema, rng.Below(4), &rng, 1, 2);
    const BigInt expected = CountHomsNaive(from, to);
    for (bool domains : {false, true}) {
      for (std::size_t search : {std::size_t{0}, std::size_t{12}}) {
        DpOptions options;
        options.use_domains = domains;
        options.domain_min_work = 0;  // Engage domains on any size.
        options.order_search_max_atoms = search;
        EXPECT_EQ(CountHoms(from, to, options), expected)
            << "domains=" << domains << " search=" << search
            << " from=" << from.ToString() << " to=" << to.ToString();
      }
    }
  }
}

TEST(HomDomainTest, ClosedFormsSurviveEveryEngine) {
  // hom(C4, K_n) = trace(A_{K_n}^4) = (n-1)^4 + (n-1); pin both engines
  // and the domain-forced DP to the formula.
  auto schema = GraphSchema();
  Structure cycle(schema, 4);
  for (Element i = 0; i < 4; ++i) {
    cycle.AddFact(0, {i, static_cast<Element>((i + 1) % 4)});
  }
  for (std::size_t n : {std::size_t{2}, std::size_t{5}, std::size_t{9}}) {
    Structure clique(schema, n);
    for (Element a = 0; a < n; ++a) {
      for (Element b = 0; b < n; ++b) {
        if (a != b) clique.AddFact(0, {a, b});
      }
    }
    const std::int64_t k = static_cast<std::int64_t>(n) - 1;
    const BigInt expected = BigInt(k * k * k * k + k);
    EXPECT_EQ(CountHoms(cycle, clique), expected) << n;
    EXPECT_EQ(CountHoms(cycle, clique, Pr1Options()), expected) << n;
    DpOptions domains_forced;
    domains_forced.domain_min_work = 0;
    EXPECT_EQ(CountHoms(cycle, clique, domains_forced), expected) << n;
  }
}

TEST(HomDomainTest, MatcherBucketIntersectionOnWideBuckets) {
  // Clique(20) buckets hold 19 fact ids — past the Matcher's
  // intersection threshold, so the runner-up-bucket bitset drives the
  // candidate scan. The injective path count into a clique has a closed
  // form (every vertex sequence of distinct elements is a path) to pin
  // the scan against.
  auto schema = GraphSchema();
  Structure path(schema, 4);
  for (Element i = 0; i < 3; ++i) {
    path.AddFact(0, {i, static_cast<Element>(i + 1)});
  }
  Structure clique(schema, 20);
  for (Element a = 0; a < 20; ++a) {
    for (Element b = 0; b < 20; ++b) {
      if (a != b) clique.AddFact(0, {a, b});
    }
  }
  EXPECT_EQ(CountInjectiveHoms(path, clique),
            BigInt(std::int64_t{20} * 19 * 18 * 17));
  EXPECT_TRUE(ExistsHom(path, clique));
}

}  // namespace
}  // namespace bagdet
