// Benchmarks for the homomorphism-counting engine — the workhorse behind
// every quantity in the paper (query answers, evaluation matrices,
// containment). No paper table corresponds to these numbers (the paper has
// no machine evaluation); they document the substrate's scaling.

#include <benchmark/benchmark.h>

#include "hom/hom.h"
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

// --- Domain core (PR-7) ablations -------------------------------------------
//
// The `domain_core` section of BENCH_hom.json comes from these: the PR-1
// baseline is the engine with domains and order search both off, measured
// against the default engine.

DpOptions Pr1Options() {
  DpOptions options;
  options.use_domains = false;
  options.order_search_max_atoms = 0;
  return options;
}

/// Dense near-regular digraph: every bucket is big and uniform, so
/// single-bucket selection alone barely narrows — the regime the domain
/// layer targets. state.range(0) toggles the PR-1 baseline (0) against the
/// domain core (1).
void BM_DenseDigraphDomainCore(benchmark::State& state) {
  auto schema = GraphSchema();
  Rng rng(0xbe7c);
  Structure from = RandomConnectedStructure(schema, 5, &rng, 3, 4);
  Structure to = RandomStructure(schema, 24, &rng, 3, 4);
  const DpOptions options =
      state.range(0) == 0 ? Pr1Options() : DpOptions();
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountHoms(from, to, options));
  }
  state.SetLabel(state.range(0) == 0 ? "pr1_baseline" : "domain_core");
}
BENCHMARK(BM_DenseDigraphDomainCore)->Arg(0)->Arg(1);

/// High-arity overlap instance: T-facts live on the low elements of the
/// target and Q-facts on the high ones, so a variable shared between a
/// T-atom and a Q-atom only has support on the 4-element overlap. The
/// arc-consistency fixpoint shrinks every domain to that overlap before
/// the DP runs, so most candidate T-facts are rejected before table
/// insertion; the PR-1 engine inserts them all and discovers the dead
/// entries only at the final Q-join.
void BM_HighArityDomainCore(benchmark::State& state) {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("T", 3);
  schema->AddRelation("Q", 4);
  Rng rng(0xa417);
  Structure to(schema, 20);
  for (int i = 0; i < 800; ++i) {
    to.AddFact(0, {static_cast<Element>(rng.Below(14)),
                   static_cast<Element>(rng.Below(14)),
                   static_cast<Element>(rng.Below(14))});
  }
  for (int i = 0; i < 300; ++i) {
    to.AddFact(1, {static_cast<Element>(10 + rng.Below(10)),
                   static_cast<Element>(10 + rng.Below(10)),
                   static_cast<Element>(10 + rng.Below(10)),
                   static_cast<Element>(10 + rng.Below(10))});
  }
  Structure from(schema, 5);
  from.AddFact(0, {0, 1, 2});
  from.AddFact(0, {2, 3, 4});
  from.AddFact(1, {1, 3, 4, 0});
  const DpOptions options =
      state.range(0) == 0 ? Pr1Options() : DpOptions();
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountHoms(from, to, options));
  }
  state.SetLabel(state.range(0) == 0 ? "pr1_baseline" : "domain_core");
}
BENCHMARK(BM_HighArityDomainCore)->Arg(0)->Arg(1);

/// Small-structure fast path: tiny pairs where the domain layer must not
/// cost anything measurable (the no-regression guard in BENCH_hom.json).
void BM_SmallStructureFastPath(benchmark::State& state) {
  auto schema = GraphSchema();
  Structure path = PathGraph(schema, 3);
  Structure clique = Clique(schema, 4);
  const DpOptions options =
      state.range(0) == 0 ? Pr1Options() : DpOptions();
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountHoms(path, clique, options));
  }
  state.SetLabel(state.range(0) == 0 ? "pr1_baseline" : "domain_core");
}
BENCHMARK(BM_SmallStructureFastPath)->Arg(0)->Arg(1);

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
