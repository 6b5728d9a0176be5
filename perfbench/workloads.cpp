#include "workloads.h"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <utility>

#include "query/parser.h"

namespace perfbench {

std::uint64_t SplitMix::Next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::int64_t SplitMix::Range(std::int64_t lo, std::int64_t hi) {
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(Next() % span);
}

double SplitMix::Uniform() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

namespace {

using Mults = std::vector<std::int64_t>;

template <typename T>
void Shuffle(std::vector<T>& items, SplitMix& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.Range(0, i - 1));
    T tmp = items[i - 1];  // Element-wise, so std::vector<bool> works too.
    items[i - 1] = items[j];
    items[j] = tmp;
  }
}

/// A random connected component with exactly `facts` distinct facts. Every
/// atom reuses at least one existing variable, which keeps it connected.
/// `first` (if nonzero) fixes the relation of the first atom.
Component RandomComponent(SplitMix& rng, int facts, const std::string& rels,
                          char first = 0) {
  Component c;
  c.num_vars = 1;
  std::set<std::pair<char, std::vector<int>>> seen;
  while (static_cast<int>(c.atoms.size()) < facts) {
    const char rel = c.atoms.empty() && first != 0
                         ? first
                         : rels[static_cast<std::size_t>(
                               rng.Range(0, rels.size() - 1))];
    const int arity = rel == 'T' ? 3 : 2;
    const int anchor = static_cast<int>(rng.Range(0, arity - 1));
    int vars = c.num_vars;
    std::vector<int> args(arity);
    for (int a = 0; a < arity; ++a) {
      if (a == anchor || rng.Range(0, 1) == 0) {
        args[a] = static_cast<int>(rng.Range(0, c.num_vars - 1));
      } else {
        args[a] = vars++;
      }
    }
    if (!seen.insert({rel, args}).second) continue;
    c.num_vars = vars;
    c.atoms.push_back(Atom{rel, std::move(args)});
  }
  return c;
}

Component Cycle(int length) {
  Component c;
  c.num_vars = length;
  for (int i = 0; i < length; ++i) c.atoms.push_back(Atom{'E', {i, (i + 1) % length}});
  return c;
}

/// `count` distinct fact counts from [lo, hi], so the components built from
/// them are pairwise non-isomorphic.
std::vector<int> DistinctSizes(SplitMix& rng, int count, int lo, int hi) {
  std::vector<int> sizes;
  for (int s = lo; s <= hi; ++s) sizes.push_back(s);
  Shuffle(sizes, rng);
  sizes.resize(static_cast<std::size_t>(count));
  return sizes;
}

/// Appends one rule: `name() :- ` the disjoint union of mult[c] copies of
/// comps[c] (plus `extra` once, when given), copies in shuffled order, or in
/// component order when `rng` is null.
void AppendRule(std::string& text, const std::string& name,
                const std::vector<Component>& comps, const Mults& mult,
                const Component* extra, SplitMix* rng) {
  std::vector<const Component*> copies;
  for (std::size_t c = 0; c < comps.size(); ++c) {
    for (std::int64_t m = 0; m < mult[c]; ++m) copies.push_back(&comps[c]);
  }
  if (extra != nullptr) copies.push_back(extra);
  if (rng != nullptr) Shuffle(copies, *rng);
  text += name + "() :- ";
  bool first_atom = true;
  for (std::size_t copy = 0; copy < copies.size(); ++copy) {
    for (const Atom& atom : copies[copy]->atoms) {
      if (!first_atom) text += ", ";
      first_atom = false;
      text += atom.relation;
      text += '(';
      for (std::size_t a = 0; a < atom.args.size(); ++a) {
        if (a != 0) text += ',';
        text += 'x' + std::to_string(copy) + '_' + std::to_string(atom.args[a]);
      }
      text += ')';
    }
  }
  text += '\n';
}

std::int64_t Dot(const Mults& a, const Mults& b) {
  std::int64_t s = 0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

bool IsZero(const Mults& m) {
  return std::all_of(m.begin(), m.end(), [](std::int64_t x) { return x == 0; });
}

Mults RandomMults(SplitMix& rng, std::size_t k, int lo, int hi) {
  Mults m(k);
  for (std::int64_t& x : m) x = rng.Range(lo, hi);
  return m;
}

/// A constraint vector with entries in [-2, 2] that has a positive and a
/// negative entry, so nonzero natural vectors satisfying ⟨c, m⟩ = 0 exist.
Mults RandomConstraint(SplitMix& rng, std::size_t k) {
  for (;;) {
    Mults c = RandomMults(rng, k, -2, 2);
    const bool pos = std::any_of(c.begin(), c.end(), [](auto x) { return x > 0; });
    const bool neg = std::any_of(c.begin(), c.end(), [](auto x) { return x < 0; });
    if (pos && neg) return c;
  }
}

/// A nonzero natural vector in [0, 3]^k with ⟨c, m⟩ = 0.
Mults ConstrainedMults(SplitMix& rng, const Mults& c) {
  for (;;) {
    Mults m = RandomMults(rng, c.size(), 0, 3);
    if (!IsZero(m) && Dot(c, m) == 0) return m;
  }
}

struct Shape {
  std::string name;
  std::string family;
  std::vector<Component> comps;
  Mults query_mult;
  int relevant_views = 0;
  int irrelevant_views = 0;
  /// Relevant views satisfy ⟨constraint, m⟩ = 0 while q⃗ breaks it
  /// (undetermined); an empty constraint draws them freely.
  Mults constraint;
  /// When nonempty, exactly these relevant views (no draws).
  std::vector<Mults> fixed_views;
  /// Write component copies in a seeded order; false keeps component order
  /// (the basis order, and with it the certificate, follows the text).
  bool shuffle_copies = true;
  bool want_counterexample = true;
};

/// Draws the view multiplicities for `shape` and writes the instance text.
Instance Materialize(Shape shape, SplitMix& rng) {
  const std::size_t k = shape.comps.size();
  Instance inst;
  inst.name = shape.name;
  inst.family = shape.family;
  inst.want_counterexample = shape.want_counterexample;
  inst.query_mult = shape.query_mult;

  const int total = shape.relevant_views + shape.irrelevant_views;
  std::vector<bool> relevant(static_cast<std::size_t>(total), false);
  for (int i = 0; i < shape.relevant_views; ++i) relevant[i] = true;
  Shuffle(relevant, rng);

  const Component marker = RandomComponent(rng, 2, "RU", 'U');
  SplitMix* order = shape.shuffle_copies ? &rng : nullptr;
  std::size_t next_fixed = 0;
  for (int v = 0; v < total; ++v) {
    const std::string name = "v" + std::to_string(v);
    if (!relevant[v]) {
      AppendRule(inst.text, name, shape.comps, RandomMults(rng, k, 0, 1),
                 &marker, order);
      inst.view_mults.emplace_back();
    } else {
      Mults m;
      if (!shape.fixed_views.empty()) {
        m = shape.fixed_views[next_fixed++];
      } else if (!shape.constraint.empty()) {
        m = ConstrainedMults(rng, shape.constraint);
      } else {
        do {
          m = RandomMults(rng, k, 0, 2);
        } while (IsZero(m));
      }
      AppendRule(inst.text, name, shape.comps, m, nullptr, order);
      inst.view_mults.push_back(std::move(m));
    }
    inst.relevant.push_back(relevant[v]);
  }
  AppendRule(inst.text, "q", shape.comps, shape.query_mult, nullptr, order);
  return inst;
}

/// An undetermined shape: a constraint on the views that q⃗ breaks.
void MakeUndetermined(Shape& shape, SplitMix& rng) {
  const std::size_t k = shape.comps.size();
  shape.constraint = RandomConstraint(rng, k);
  do {
    shape.query_mult = RandomMults(rng, k, 1, 2);
  } while (Dot(shape.constraint, shape.query_mult) == 0);
}

std::vector<Component> Components(SplitMix& rng, const std::vector<int>& sizes,
                                  const std::string& rels) {
  std::vector<Component> comps;
  for (int facts : sizes) comps.push_back(RandomComponent(rng, facts, rels));
  return comps;
}

/// Verdict-only shape with `views` views, a quarter of them irrelevant,
/// determined-by-design or constrained (undetermined).
Shape ViewsShape(SplitMix& rng, std::vector<Component> comps, int views,
                 bool determined) {
  Shape shape;
  shape.family = "views";
  shape.comps = std::move(comps);
  shape.irrelevant_views = views / 4;
  shape.relevant_views = views - shape.irrelevant_views;
  shape.want_counterexample = false;
  if (determined) {
    shape.query_mult = RandomMults(rng, shape.comps.size(), 1, 2);
  } else {
    MakeUndetermined(shape, rng);
  }
  return shape;
}

/// Certify shape: `views` constrained views, certificate requested.
Shape CertifyShape(SplitMix& rng, std::vector<Component> comps, int views) {
  Shape shape;
  shape.family = "random";
  shape.comps = std::move(comps);
  shape.relevant_views = views;
  MakeUndetermined(shape, rng);
  return shape;
}

}  // namespace

ParsedInstance Parse(const Instance& instance) {
  bagdet::QueryParser parser;
  parser.schema()->AddRelation("E", 2);
  parser.schema()->AddRelation("R", 2);
  parser.schema()->AddRelation("S", 2);
  parser.schema()->AddRelation("T", 3);
  parser.schema()->AddRelation("U", 2);
  std::vector<bagdet::ConjunctiveQuery> rules =
      parser.ParseProgram(instance.text);
  if (rules.size() != instance.relevant.size() + 1) {
    throw std::runtime_error("perfbench: rule count mismatch in " +
                             instance.name);
  }
  ParsedInstance parsed;
  parsed.query = std::move(rules.back());
  rules.pop_back();
  parsed.views = std::move(rules);
  return parsed;
}

Instance RampInstance(int k, SplitMix& rng) {
  Shape shape;
  shape.name = "ramp-k" + std::to_string(k);
  shape.family = "ramp";
  for (int len = 1; len <= k; ++len) shape.comps.push_back(Cycle(len));
  shape.query_mult.assign(static_cast<std::size_t>(k), 1);
  Mults ramp;
  for (int i = 1; i <= k; ++i) ramp.push_back(i);
  shape.fixed_views = {ramp};
  shape.shuffle_copies = false;  // The same text, and certificate, every seed.
  shape.relevant_views = 1;
  return Materialize(std::move(shape), rng);
}

std::vector<Instance> CertifySet(std::uint64_t seed) {
  SplitMix rng(seed * 0x2545f4914f6cdd1dull + 1);
  std::vector<Instance> set;
  for (int k = 5; k <= 8; ++k) set.push_back(RampInstance(k, rng));
  for (int i = 0; i < kCertifyRandom; ++i) {
    constexpr int k = 4;
    const int views = 1 + i % 4;
    Shape shape = CertifyShape(
        rng, Components(rng, DistinctSizes(rng, k, 1, k + 1), "RS"), views);
    shape.name = "random-" + std::to_string(i);
    set.push_back(Materialize(std::move(shape), rng));
  }
  return set;
}

std::vector<Instance> DecideViewsSet(std::uint64_t seed) {
  SplitMix rng(seed * 0x9e3779b97f4a7c15ull + 2);
  // 384 instances, so a seed's draw of components moves the mean work and
  // the tail (the 11th-largest time of a cycle) by little; |V0| runs over
  // 16..62 sixteen times.
  constexpr int kCount = 384;
  std::vector<int> view_counts;
  for (int i = 0; i < kCount; ++i) view_counts.push_back(16 + 2 * (i % 24));
  Shuffle(view_counts, rng);
  std::vector<Instance> set;
  for (int i = 0; i < kCount; ++i) {
    const int k = 3 + i % 4;
    const bool determined = (i / 4) % 2 == 0;
    std::vector<int> sizes = DistinctSizes(rng, k, 1, 8);
    std::vector<Component> comps;
    for (int c = 0; c < k; ++c) {
      // Component 0 carries the ternary relation, component 1 a binary one.
      const char first = c == 0 ? 'T' : c == 1 ? 'R' : 0;
      comps.push_back(RandomComponent(rng, sizes[c], "RST", first));
    }
    Shape shape = ViewsShape(rng, std::move(comps), view_counts[i], determined);
    shape.name = "views-" + std::to_string(i) + "-k" + std::to_string(k) +
                 "-v" + std::to_string(view_counts[i]);
    set.push_back(Materialize(std::move(shape), rng));
  }
  return set;
}

std::vector<Instance> ServeCatalog(std::uint64_t seed) {
  SplitMix rng(seed * 0xd1b54a32d192ed03ull + 3);
  // The shared component library: fact counts 1..8 are pairwise distinct.
  std::vector<Component> library =
      Components(rng, DistinctSizes(rng, 8, 1, 8), "RST");
  auto pick = [&](int k) {
    std::vector<std::size_t> idx(library.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    Shuffle(idx, rng);
    std::vector<Component> comps;
    for (int c = 0; c < k; ++c) comps.push_back(library[idx[c]]);
    return comps;
  };
  std::vector<Instance> catalog;
  for (int i = 0; i < kServeCatalog; ++i) {
    // Zipf rank i: the two styles alternate and sizes cycle with the rank.
    Shape shape;
    if (i % 2 == 0) {
      shape = CertifyShape(rng, pick(4), 1 + (i / 2) % 4);
      shape.name = "serve-cert-" + std::to_string(i);
    } else {
      shape = ViewsShape(rng, pick(3 + (i / 2) % 3), 48 + 8 * ((i / 2) % 8),
                         (i / 2) % 2 == 0);
      shape.name = "serve-views-" + std::to_string(i);
    }
    catalog.push_back(Materialize(std::move(shape), rng));
  }
  return catalog;
}

Instance ColdInstance(std::uint64_t seed, std::uint64_t index) {
  SplitMix rng((seed * 0x94d049bb133111ebull) ^ (index * 0xbf58476d1ce4e5b9ull) ^
               0x5bd1e995ull);
  const int k = 3 + static_cast<int>(index / 2 % 2);
  std::vector<Component> comps = Components(rng, DistinctSizes(rng, k, 2, 9), "RS");
  Shape shape = index % 2 == 0
                    ? CertifyShape(rng, std::move(comps), 1)
                    : ViewsShape(rng, std::move(comps), 16, index / 2 % 2 == 0);
  shape.family = "cold";
  shape.name = "cold-" + std::to_string(index);
  return Materialize(std::move(shape), rng);
}

}  // namespace perfbench
