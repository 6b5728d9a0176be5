// Benchmarks for the negative-certificate pipeline (Sections 5–7): good
// basis construction (Lemma 40, including the distinguisher search), the
// perturbation synthesis (Lemmas 55–57), and exact verification.

#include <benchmark/benchmark.h>

#include "core/basis.h"
#include "core/counterexample.h"
#include "core/determinacy.h"
#include "query/cq.h"
#include "structs/structure.h"

namespace bagdet {
namespace {

struct Instance {
  ConjunctiveQuery q;
  std::vector<ConjunctiveQuery> views;
};

/// q = Σ_{i<=k} C_i (cycles), one aggregate view v = Σ i·C_i. For k >= 2
/// the vectors (1,..,1) and (1,2,..,k) are not parallel, so q is not
/// determined and a size-k good basis is required.
Instance UndeterminedInstance(std::size_t k) {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("E", 2);
  Structure q_body(schema);
  Structure v_body(schema);
  for (std::size_t len = 1; len <= k; ++len) {
    Structure c(schema);
    for (Element i = 0; i < len; ++i) {
      c.AddFact(0, {i, static_cast<Element>((i + 1) % len)});
    }
    q_body = DisjointUnion(q_body, c);
    for (std::size_t copies = 0; copies < len; ++copies) {
      v_body = DisjointUnion(v_body, c);
    }
  }
  return Instance{BooleanQueryFromStructure("q", q_body),
                  {BooleanQueryFromStructure("v", v_body)}};
}

void BM_BuildGoodBasis(benchmark::State& state) {
  Instance inst = UndeterminedInstance(static_cast<std::size_t>(state.range(0)));
  InstanceAnalysis analysis = AnalyzeInstance(inst.views, inst.q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildGoodBasis(analysis, DistinguisherOptions()));
  }
  state.SetLabel("k=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_BuildGoodBasis)->Arg(2)->Arg(3)->Arg(4)->Arg(5)->Arg(6)->Arg(7);

void BM_SynthesizeCounterexample(benchmark::State& state) {
  Instance inst = UndeterminedInstance(static_cast<std::size_t>(state.range(0)));
  InstanceAnalysis analysis = AnalyzeInstance(inst.views, inst.q);
  GoodBasis basis = BuildGoodBasis(analysis, DistinguisherOptions());
  for (auto _ : state) {
    benchmark::DoNotOptimize(SynthesizeCounterexample(analysis, basis));
  }
  state.SetLabel("k=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_SynthesizeCounterexample)->DenseRange(2, 8)->Unit(benchmark::kMicrosecond);

void BM_VerifyCounterexampleExact(benchmark::State& state) {
  Instance inst = UndeterminedInstance(static_cast<std::size_t>(state.range(0)));
  InstanceAnalysis analysis = AnalyzeInstance(inst.views, inst.q);
  GoodBasis basis = BuildGoodBasis(analysis, DistinguisherOptions());
  BagCounterexample counterexample =
      SynthesizeCounterexample(analysis, basis);
  for (auto _ : state) {
    benchmark::DoNotOptimize(VerifyCounterexample(analysis, counterexample));
  }
  state.SetLabel("k=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_VerifyCounterexampleExact)->Arg(2)->Arg(3)->Arg(4);

void BM_DistinguisherPair(benchmark::State& state) {
  // Distinguishing two cycles of lengths n and n+1.
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("E", 2);
  auto cycle = [&](Element n) {
    Structure s(schema);
    for (Element i = 0; i < n; ++i) {
      s.AddFact(0, {i, static_cast<Element>((i + 1) % n)});
    }
    return s;
  };
  Structure a = cycle(static_cast<Element>(state.range(0)));
  Structure b = cycle(static_cast<Element>(state.range(0) + 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(FindDistinguisher(a, b));
  }
  state.SetLabel("cycles " + std::to_string(state.range(0)) + "/" +
                 std::to_string(state.range(0) + 1));
}
BENCHMARK(BM_DistinguisherPair)->Arg(2)->Arg(4)->Arg(6)->Arg(8);

}  // namespace
}  // namespace bagdet

BENCHMARK_MAIN();
