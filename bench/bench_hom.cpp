// Benchmarks for the homomorphism-counting engine — the workhorse behind
// every quantity in the paper (query answers, evaluation matrices,
// containment). No paper table corresponds to these numbers (the paper has
// no machine evaluation); they document the substrate's scaling.

#include <benchmark/benchmark.h>

#include "hom/hom.h"
#include "query/cq.h"
#include "structs/generator.h"
#include "util/rng.h"

namespace bagdet {
namespace {

std::shared_ptr<Schema> GraphSchema() {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("E", 2);
  return schema;
}

Structure PathGraph(const std::shared_ptr<Schema>& schema, Element edges) {
  Structure s(schema);
  for (Element i = 0; i < edges; ++i) {
    s.AddFact(0, {i, static_cast<Element>(i + 1)});
  }
  return s;
}

Structure Clique(const std::shared_ptr<Schema>& schema, Element n) {
  Structure s(schema, n);
  for (Element i = 0; i < n; ++i) {
    for (Element j = 0; j < n; ++j) {
      if (i != j) s.AddFact(0, {i, j});
    }
  }
  return s;
}

void BM_PathIntoClique(benchmark::State& state) {
  auto schema = GraphSchema();
  Structure path = PathGraph(schema, static_cast<Element>(state.range(0)));
  Structure clique = Clique(schema, static_cast<Element>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountHoms(path, clique));
  }
  state.SetLabel("path_edges=" + std::to_string(state.range(0)) +
                 " clique=" + std::to_string(state.range(1)));
}
BENCHMARK(BM_PathIntoClique)
    ->Args({4, 8})
    ->Args({8, 8})
    ->Args({16, 8})
    ->Args({32, 8})
    ->Args({16, 16})
    ->Args({16, 32});

void BM_RandomIntoRandom(benchmark::State& state) {
  auto schema = GraphSchema();
  Rng rng(42);
  Structure from =
      RandomConnectedStructure(schema, static_cast<std::size_t>(state.range(0)),
                               &rng, 1, 3);
  Structure to = RandomStructure(schema, static_cast<std::size_t>(state.range(1)),
                                 &rng, 1, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountHoms(from, to));
  }
}
BENCHMARK(BM_RandomIntoRandom)->Args({3, 8})->Args({4, 8})->Args({5, 8})
    ->Args({4, 16})->Args({4, 32});

void BM_ExistsHomEarlyExit(benchmark::State& state) {
  auto schema = GraphSchema();
  Structure path = PathGraph(schema, static_cast<Element>(state.range(0)));
  Structure clique = Clique(schema, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExistsHom(path, clique));
  }
}
BENCHMARK(BM_ExistsHomEarlyExit)->Arg(8)->Arg(32)->Arg(128);

void BM_InjectiveHoms(benchmark::State& state) {
  auto schema = GraphSchema();
  Structure path = PathGraph(schema, static_cast<Element>(state.range(0)));
  Structure clique = Clique(schema, static_cast<Element>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountInjectiveHoms(path, clique));
  }
}
BENCHMARK(BM_InjectiveHoms)->Args({3, 6})->Args({4, 7})->Args({5, 8});

// --- Data-side evaluation ----------------------------------------------------

/// Non-boolean CQs evaluated into a random digraph: the answer-bag
/// workload (ConjunctiveQuery::Evaluate) that drives the Matcher. Where
/// |D| × density is about 19 or more (every row but 32/30), most in- and
/// out-buckets exceed 16 ids, so atoms closing a triangle go through the
/// bucket intersection.
/// state.range(0) = |D|, state.range(1) = edge density in percent.
void BM_EvaluateIntoDenseDigraph(benchmark::State& state) {
  auto schema = GraphSchema();
  Rng rng(0xe7a1);
  Structure data = RandomStructure(
      schema, static_cast<std::size_t>(state.range(0)), &rng,
      static_cast<std::uint64_t>(state.range(1)), 100);
  const std::vector<ConjunctiveQuery> queries = {
      // q1(x,y) :- E(x,z), E(z,y)
      ConjunctiveQuery("q1", schema, {"x", "y", "z"}, 2,
                       {{0, {0, 2}}, {0, {2, 1}}}),
      // q2(x,y) :- E(x,y), E(y,z), E(x,z)
      ConjunctiveQuery("q2", schema, {"x", "y", "z"}, 2,
                       {{0, {0, 1}}, {0, {1, 2}}, {0, {0, 2}}}),
      // q3(x) :- E(x,y), E(y,z), E(z,x)
      ConjunctiveQuery("q3", schema, {"x", "y", "z"}, 1,
                       {{0, {0, 1}}, {0, {1, 2}}, {0, {2, 0}}}),
      // q4(x,y,z) :- E(x,y), E(y,z), E(z,x), E(x,z)
      ConjunctiveQuery("q4", schema, {"x", "y", "z"}, 3,
                       {{0, {0, 1}}, {0, {1, 2}}, {0, {2, 0}}, {0, {0, 2}}}),
  };
  for (auto _ : state) {
    for (const ConjunctiveQuery& q : queries) {
      benchmark::DoNotOptimize(q.Evaluate(data));
    }
  }
  state.SetLabel("domain=" + std::to_string(state.range(0)) +
                 " density=" + std::to_string(state.range(1)) + "%");
}
BENCHMARK(BM_EvaluateIntoDenseDigraph)
    ->Args({32, 30})
    ->Args({64, 30})
    ->Args({100, 30})
    ->Args({32, 60})
    ->Args({64, 60})
    ->Args({100, 60})
    ->Unit(benchmark::kMillisecond);

void BM_MultiComponentDecomposition(benchmark::State& state) {
  // Lemma 4(5) decomposition: many small components multiply.
  auto schema = GraphSchema();
  Structure from(schema);
  for (int c = 0; c < state.range(0); ++c) {
    from = DisjointUnion(from, PathGraph(schema, 2));
  }
  Structure to = Clique(schema, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountHoms(from, to));
  }
}
BENCHMARK(BM_MultiComponentDecomposition)->Arg(2)->Arg(8)->Arg(32);

}  // namespace
}  // namespace bagdet

BENCHMARK_MAIN();
