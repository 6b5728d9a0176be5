// Shared instances shaped like perfbench's `decide_views` workload, for the
// view-relevance tests and the containment bench. q is a disjoint union of
// three connected components over R, S and ternary T. Every view is a
// disjoint union of copies of q's classes, and a quarter of the views also
// carry one marker component that uses U, a relation q never mentions, so
// exactly those views are irrelevant (Definition 25). Header-only, no gtest
// dependency, so bench/ can include it too.

#ifndef BAGDET_TESTS_TEST_INSTANCES_H_
#define BAGDET_TESTS_TEST_INSTANCES_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "query/cq.h"
#include "structs/structure.h"
#include "util/rng.h"

namespace bagdet {
namespace testinst {

struct ViewsShapedInstance {
  ConjunctiveQuery query;
  std::vector<ConjunctiveQuery> views;  ///< V0; every fourth view is marked.
  std::vector<std::size_t> relevant;    ///< Indices of the unmarked views.
  std::size_t marker_classes = 0;       ///< Distinct marker classes in V0.
};

/// `num_views` views; view v carries marker (v / 4) % num_markers when
/// v % 4 == 3. Marker m is a U-edge followed by an R-path of m edges, so
/// the markers are pairwise non-isomorphic. Requires num_markers >= 1.
inline ViewsShapedInstance MakeViewsShaped(std::size_t num_views,
                                           std::size_t num_markers,
                                           std::uint64_t seed) {
  auto schema = std::make_shared<Schema>();
  const RelationId r = schema->AddRelation("R", 2);
  const RelationId s = schema->AddRelation("S", 2);
  const RelationId t = schema->AddRelation("T", 3);
  const RelationId u = schema->AddRelation("U", 2);
  auto component = [&](const std::vector<std::pair<RelationId, Tuple>>& facts) {
    Structure c(schema);
    for (const auto& [relation, tuple] : facts) c.AddFact(relation, tuple);
    return c;
  };
  const std::vector<Structure> classes = {
      component({{t, {0, 1, 2}}, {r, {2, 0}}}),
      component({{r, {0, 1}}, {s, {1, 2}}, {s, {2, 0}}}),
      component({{s, {0, 1}}, {r, {1, 1}}, {t, {1, 2, 3}}, {r, {3, 0}}}),
  };
  std::vector<Structure> markers;
  for (std::size_t m = 0; m < num_markers; ++m) {
    std::vector<std::pair<RelationId, Tuple>> facts = {{u, {0, 1}}};
    for (Element i = 1; i <= m; ++i) facts.push_back({r, {i, i + 1}});
    markers.push_back(component(facts));
  }
  auto body = [&](const std::vector<std::uint64_t>& mults,
                  const Structure* marker) {
    Structure b(schema);
    for (std::size_t c = 0; c < classes.size(); ++c) {
      for (std::uint64_t k = 0; k < mults[c]; ++k) {
        b = DisjointUnion(b, classes[c]);
      }
    }
    if (marker != nullptr) b = DisjointUnion(b, *marker);
    return b;
  };

  ViewsShapedInstance inst;
  inst.query = BooleanQueryFromStructure("q", body({1, 2, 1}, nullptr));
  Rng rng(seed);
  std::set<std::size_t> markers_used;
  for (std::size_t v = 0; v < num_views; ++v) {
    const bool marked = v % 4 == 3;
    std::vector<std::uint64_t> mults(classes.size());
    do {
      for (std::uint64_t& m : mults) m = rng.Below(marked ? 2 : 3);
    } while (!marked && mults == std::vector<std::uint64_t>(classes.size()));
    const Structure* marker = nullptr;
    if (marked) {
      const std::size_t m = (v / 4) % num_markers;
      markers_used.insert(m);
      marker = &markers[m];
    } else {
      inst.relevant.push_back(v);
    }
    inst.views.push_back(
        BooleanQueryFromStructure("v" + std::to_string(v), body(mults, marker)));
  }
  inst.marker_classes = markers_used.size();
  return inst;
}

}  // namespace testinst
}  // namespace bagdet

#endif  // BAGDET_TESTS_TEST_INSTANCES_H_
