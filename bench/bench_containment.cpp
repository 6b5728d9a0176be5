// Benchmarks for set-semantics containment (hom-existence), the test behind
// V = { v ∈ V0 : q ⊆set v } (Definition 25) — the Σ^P_2-flavored part of
// the decision procedure the paper points out. AnalyzeInstance runs it once
// per foreign component class (Lemma 4(5)); BM_RelevantViewFilter times that.

#include <benchmark/benchmark.h>

#include "core/determinacy.h"
#include "query/cq.h"
#include "query/parser.h"
#include "structs/generator.h"
#include "tests/test_instances.h"
#include "util/rng.h"

namespace bagdet {
namespace {

ConjunctiveQuery ChainQuery(const std::shared_ptr<Schema>& schema,
                            std::string name, Element length) {
  Structure body(schema);
  RelationId e = *schema->Find("E");
  for (Element i = 0; i < length; ++i) {
    body.AddFact(e, {i, static_cast<Element>(i + 1)});
  }
  return BooleanQueryFromStructure(std::move(name), body);
}

void BM_ChainIntoChain(benchmark::State& state) {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("E", 2);
  ConjunctiveQuery q =
      ChainQuery(schema, "q", static_cast<Element>(state.range(0)));
  ConjunctiveQuery v =
      ChainQuery(schema, "v", static_cast<Element>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsContainedSetSemantics(q, v));
  }
  state.SetLabel("|q|=" + std::to_string(state.range(0)) +
                 " |v|=" + std::to_string(state.range(1)));
}
BENCHMARK(BM_ChainIntoChain)
    ->Args({8, 4})
    ->Args({16, 8})
    ->Args({32, 16})
    ->Args({64, 32});

void BM_RandomContainment(benchmark::State& state) {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("E", 2);
  Rng rng(3);
  ConjunctiveQuery q = BooleanQueryFromStructure(
      "q", RandomConnectedStructure(
               schema, static_cast<std::size_t>(state.range(0)), &rng, 2, 3));
  ConjunctiveQuery v = BooleanQueryFromStructure(
      "v", RandomConnectedStructure(
               schema, static_cast<std::size_t>(state.range(1)), &rng, 2, 3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsContainedSetSemantics(q, v));
  }
}
BENCHMARK(BM_RandomContainment)->Args({6, 4})->Args({8, 5})->Args({10, 6});

void BM_RelevantViewFilter(benchmark::State& state) {
  // The Definition-25 filter as the pipeline runs it, inside AnalyzeInstance:
  // views are disjoint unions of q's three component classes, and a quarter
  // of them also carry one of two foreign marker classes, so the filter
  // makes two ExistsHom searches however many views there are.
  testinst::ViewsShapedInstance inst = testinst::MakeViewsShaped(
      static_cast<std::size_t>(state.range(0)), /*num_markers=*/2,
      /*seed=*/9);
  for (auto _ : state) {
    InstanceAnalysis analysis = AnalyzeInstance(inst.views, inst.query);
    benchmark::DoNotOptimize(analysis.relevant_views.data());
  }
  state.SetLabel("|V0|=" + std::to_string(state.range(0)) +
                 " |V|=" + std::to_string(inst.relevant.size()));
}
BENCHMARK(BM_RelevantViewFilter)->Arg(16)->Arg(64)->Arg(256);

}  // namespace
}  // namespace bagdet

BENCHMARK_MAIN();
