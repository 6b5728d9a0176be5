// Seeded instance generators for the pipeline benchmark.
//
// Every instance is a boolean query q = Σ_c m_q[c] · w_c over pairwise
// non-isomorphic connected components w_c (distinct fact counts), plus views
// built from the same components. The generator keeps the multiplicity
// vectors it used, so the benchmark can compute the expected verdict itself
// (reference.h) without calling into the library. The library only ever
// sees the datalog text of `Instance::text`.
//
// Relevance is fixed by construction: a view made only of copies of q's
// components maps into q (relevant, Definition 25); a view that also holds a
// component with relation U, which no q uses, cannot (irrelevant).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "query/cq.h"

namespace perfbench {

/// splitmix64: the benchmark's own generator, so its inputs do not move
/// when the library's utilities change.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  /// Uniform integer in [lo, hi].
  std::int64_t Range(std::int64_t lo, std::int64_t hi);
  /// Uniform double in [0, 1).
  double Uniform();

 private:
  std::uint64_t state_;
};

/// A connected component as atoms over local variables 0..num_vars-1.
struct Atom {
  char relation = 'R';  ///< One of E, R, S (binary), T (ternary), U.
  std::vector<int> args;
};
struct Component {
  std::vector<Atom> atoms;
  int num_vars = 0;
};

/// One generated decision instance.
struct Instance {
  std::string name;
  std::string family;  ///< "ramp", "random", "views" or "cold".
  bool want_counterexample = true;
  std::string text;    ///< One rule per view, q last.
  std::vector<bool> relevant;  ///< Per view, by construction.
  /// Per view, multiplicities over q's components (relevant views only;
  /// irrelevant rows are left empty).
  std::vector<std::vector<std::int64_t>> view_mults;
  std::vector<std::int64_t> query_mult;
};

/// The parsed form handed to the library.
struct ParsedInstance {
  std::vector<bagdet::ConjunctiveQuery> views;
  bagdet::ConjunctiveQuery query;
};

/// Parses `instance.text` with query/parser over the benchmark's fixed
/// relation order (E/2, R/2, S/2, T/3, U/2), so equal components intern to
/// equal canonical keys across instances.
ParsedInstance Parse(const Instance& instance);

/// Cycle ramp: q = Σ_{i=1..k} C_i (directed i-cycles), one view Σ i·C_i.
Instance RampInstance(int k, SplitMix& rng);

/// Random instances in the `certify` set: 16 passes of 16 each, so a cycle
/// through them is short and a run holds many identical windows.
constexpr int kCertifyRandom = 256;

/// `certify`: the cycle ramps k = 5..8, then kCertifyRandom random
/// undetermined instances (4 components, 1–4 views that satisfy a linear
/// constraint q⃗ breaks).
std::vector<Instance> CertifySet(std::uint64_t seed);

/// `decide_views`: verdict-only instances, 3–6 components over R, S and
/// ternary T, |V0| = 16..62 with a quarter irrelevant, about half of them
/// determined.
std::vector<Instance> DecideViewsSet(std::uint64_t seed);

/// Keys in the serving catalog.
constexpr int kServeCatalog = 64;

/// The serving section of the traced `decide_views` run: a catalog of small
/// certify-style and decide_views-style instances drawn from one shared
/// component library, in zipf rank order (certify-style keys: 4 components,
/// 1–4 views; verdict-only keys: 3–5 components, 48–104 views).
std::vector<Instance> ServeCatalog(std::uint64_t seed);

/// A never-repeated instance for the serving section's cold tail; `index`
/// alternates certify-style and verdict-only shapes.
Instance ColdInstance(std::uint64_t seed, std::uint64_t index);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
