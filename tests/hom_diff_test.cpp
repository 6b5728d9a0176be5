// Randomized differential test pinning the optimized variable-elimination
// engine (CountHoms) to the reference semantics: backtracking enumeration
// (CountHomsByEnumeration) and brute-force assignment checking
// (CountHomsNaive) must agree on every generated pair — including
// disconnected sources, isolated elements, empty domains, and nullary
// relations.

#include <gtest/gtest.h>

#include "hom/hom.h"
#include "structs/generator.h"
#include "util/rng.h"
#include "test_matrices.h"

namespace bagdet {
namespace {

void ExpectAllEnginesAgree(const Structure& from, const Structure& to) {
  const BigInt dp = CountHoms(from, to);
  const BigInt enumerated = CountHomsByEnumeration(from, to);
  const BigInt naive = CountHomsNaive(from, to);
  EXPECT_EQ(dp, enumerated) << "from=" << from.ToString()
                            << " to=" << to.ToString();
  EXPECT_EQ(dp, naive) << "from=" << from.ToString()
                       << " to=" << to.ToString();
  EXPECT_EQ(ExistsHom(from, to), !dp.IsZero())
      << "from=" << from.ToString() << " to=" << to.ToString();
}

TEST(HomDiffTest, MixedAritySchemaWithNullaryRelations) {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("H", 0);  // Nullary: pure presence constraint.
  schema->AddRelation("P", 1);
  schema->AddRelation("E", 2);
  Rng rng(20260729);
  int disconnected_sources = 0;
  for (int iter = 0; iter < 160; ++iter) {
    // Domain sizes 0..4 keep the naive m^n cross-check instant while still
    // hitting empty domains and isolated elements.
    const std::size_t from_size = rng.Below(5);
    const std::size_t to_size = rng.Below(5);
    // Sweep sparse to dense fact densities.
    const std::uint64_t numer = 1 + rng.Below(3);
    Structure from = RandomStructure(schema, from_size, &rng, numer, 4);
    Structure to = RandomStructure(schema, to_size, &rng, numer, 4);
    if (!from.IsConnected()) ++disconnected_sources;
    ExpectAllEnginesAgree(from, to);
  }
  // The sweep must actually exercise the component-decomposition path.
  EXPECT_GT(disconnected_sources, 20);
}

TEST(HomDiffTest, HigherArityRelations) {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("E", 2);
  schema->AddRelation("T", 3);
  Rng rng(77002);
  for (int iter = 0; iter < 80; ++iter) {
    const std::size_t from_size = rng.Below(4);
    const std::size_t to_size = 1 + rng.Below(3);
    Structure from = RandomStructure(schema, from_size, &rng, 1, 3);
    Structure to = RandomStructure(schema, to_size, &rng, 1, 2);
    ExpectAllEnginesAgree(from, to);
  }
}

TEST(HomDiffTest, ConnectedSourcesIntoLargerTargets) {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("P", 1);
  schema->AddRelation("E", 2);
  Rng rng(5150);
  for (int iter = 0; iter < 40; ++iter) {
    const std::size_t from_size = 1 + rng.Below(3);
    const std::size_t to_size = 1 + rng.Below(6);
    Structure from = RandomConnectedStructure(schema, from_size, &rng, 1, 2);
    Structure to = RandomStructure(schema, to_size, &rng, 1, 2);
    ExpectAllEnginesAgree(from, to);
  }
}

TEST(HomDiffTest, DenseNearRegularDigraphs) {
  // Dense digraphs: big uniform buckets defeat single-bucket selection.
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("E", 2);
  Rng rng(0xdeca1);
  const int iters = 30 * testmat::DiffIterScale();
  for (int iter = 0; iter < iters; ++iter) {
    Structure from =
        RandomConnectedStructure(schema, 2 + rng.Below(3), &rng, 3, 4);
    Structure to = RandomStructure(schema, 2 + rng.Below(4), &rng, 3, 4);
    ExpectAllEnginesAgree(from, to);
  }
}

TEST(HomDiffTest, HighAritySparseSchemas) {
  // High-arity sparse relations stress repeated variables within an atom
  // and positions with mostly empty buckets.
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("T", 3);
  schema->AddRelation("Q", 4);
  Rng rng(0x9a7e5);
  const int iters = 25 * testmat::DiffIterScale();
  for (int iter = 0; iter < iters; ++iter) {
    Structure from = RandomStructure(schema, 1 + rng.Below(3), &rng, 1, 6);
    Structure to = RandomStructure(schema, 1 + rng.Below(3), &rng, 1, 3);
    ExpectAllEnginesAgree(from, to);
  }
}

TEST(HomDiffTest, DisconnectedSourcesWithNullaries) {
  // Component decomposition × nullary presence constraints: the
  // product-of-components fold must stay exact.
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("H", 0);
  schema->AddRelation("P", 1);
  schema->AddRelation("E", 2);
  Rng rng(0xd15c0);
  const int iters = 30 * testmat::DiffIterScale();
  int disconnected = 0;
  for (int iter = 0; iter < iters; ++iter) {
    Structure from = RandomStructure(schema, rng.Below(5), &rng, 1, 3);
    Structure to = RandomStructure(schema, rng.Below(4), &rng, 1, 2);
    if (!from.IsConnected()) ++disconnected;
    ExpectAllEnginesAgree(from, to);
  }
  EXPECT_GT(disconnected, iters / 4);
}

TEST(HomDiffTest, EnumerationVisitCountMatchesCount) {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("E", 2);
  Rng rng(31337);
  for (int iter = 0; iter < 20; ++iter) {
    Structure from = RandomStructure(schema, 1 + rng.Below(3), &rng, 1, 2);
    Structure to = RandomStructure(schema, 1 + rng.Below(3), &rng, 1, 2);
    std::int64_t visits = 0;
    EnumerateHoms(from, to, [&visits](const std::vector<Element>&) {
      ++visits;
      return true;
    });
    EXPECT_EQ(BigInt(visits), CountHoms(from, to))
        << "from=" << from.ToString() << " to=" << to.ToString();
  }
}

}  // namespace
}  // namespace bagdet
