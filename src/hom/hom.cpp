#include "hom/hom.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>

#include "hom/domain.h"
#include "structs/index.h"
#include "util/exec_context.h"
#include "util/failpoint.h"

namespace bagdet {

namespace {

constexpr Element kUnassigned = static_cast<Element>(-1);

/// A unit of backtracking work: match one atom of `from` against the facts
/// of `to`, or choose the image of one isolated element.
struct Task {
  bool is_atom = true;
  RelationId relation = 0;
  Tuple atom;          // Elements of `from` (is_atom).
  Element element = 0; // Isolated element (!is_atom).
};

/// log2 of a variable's candidate count (+1 so empty and singleton stay
/// ordered) — the per-variable term of the domain-product table bound.
double VarLogWeight(Element v, const DomainSet* doms,
                    std::size_t target_size) {
  const std::size_t count =
      doms != nullptr ? doms->domain(v).Count() : target_size;
  return std::log2(static_cast<double>(count) + 1.0);
}

/// Orders the atoms by a min-new-live-vars greedy rule: each round picks
/// the atom introducing the fewest not-yet-seen elements (tie-break: most
/// already-seen positions). Kept as the fallback for bodies too large for
/// the exact order search.
void GreedyOrder(std::vector<Task>* atoms, std::size_t num_vars) {
  std::vector<bool> seen_element(num_vars, false);
  std::vector<bool> done(atoms->size(), false);
  std::vector<Element> distinct_new;
  std::vector<Task> plan;
  plan.reserve(atoms->size());
  for (std::size_t round = 0; round < atoms->size(); ++round) {
    std::size_t best = atoms->size();
    std::size_t best_new = static_cast<std::size_t>(-1);
    int best_seen = -1;
    for (std::size_t i = 0; i < atoms->size(); ++i) {
      if (done[i]) continue;
      distinct_new.clear();
      int seen = 0;
      for (Element e : (*atoms)[i].atom) {
        if (seen_element[e]) {
          ++seen;
        } else if (std::find(distinct_new.begin(), distinct_new.end(), e) ==
                   distinct_new.end()) {
          distinct_new.push_back(e);
        }
      }
      const std::size_t new_vars = distinct_new.size();
      if (new_vars < best_new ||
          (new_vars == best_new && seen > best_seen)) {
        best_new = new_vars;
        best_seen = seen;
        best = i;
      }
    }
    done[best] = true;
    for (Element e : (*atoms)[best].atom) seen_element[e] = true;
    plan.push_back(std::move((*atoms)[best]));
  }
  *atoms = std::move(plan);
}

/// Exact elimination-order search: Held–Karp-style DP over atom subsets
/// minimizing the peak per-step table bound Σ_{v live} log2(|D(v)|+1)
/// (induced width weighted by domain size), tie-broken by the sum of step
/// bounds and then by the deterministic ascending (subset, atom) relax
/// order. Returns false (leaving `atoms` untouched) when the component is
/// outside the searchable range.
bool OrderSearch(std::vector<Task>* atoms, std::size_t num_vars,
                 const DomainSet* doms, std::size_t target_size,
                 std::size_t max_atoms) {
  // 2^n subset tables: the hard cap keeps the search a few MB / few
  // hundred µs even if callers raise the knob past the default.
  constexpr std::size_t kHardMaxAtoms = 16;
  // With two atoms either order peaks at max(w(A), w(B)) — the carried
  // variables are A∩B both ways — so search only pays off from 3 atoms.
  const std::size_t n = atoms->size();
  if (n < 3 || n > max_atoms || n > kHardMaxAtoms || num_vars > 64) {
    return false;
  }
  std::vector<std::uint64_t> avars(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (Element v : (*atoms)[i].atom) avars[i] |= 1ull << v;
  }
  double vlog[64] = {};
  for (Element v = 0; v < num_vars; ++v) {
    vlog[v] = VarLogWeight(v, doms, target_size);
  }
  const std::size_t full = (std::size_t{1} << n) - 1;
  // vars_in[S] = variables of the atoms in S; rest[S] = variables of the
  // atoms outside S. live(S) = vars_in[S] & rest[S].
  std::vector<std::uint64_t> vars_in(full + 1, 0), rest(full + 1, 0);
  for (std::size_t s = 0; s <= full; ++s) {
    for (std::size_t i = 0; i < n; ++i) {
      if (s & (std::size_t{1} << i)) {
        vars_in[s] |= avars[i];
      } else {
        rest[s] |= avars[i];
      }
    }
  }
  auto mask_weight = [&](std::uint64_t mask) {
    double w = 0.0;
    while (mask != 0) {
      const int v = __builtin_ctzll(mask);
      w += vlog[v];
      mask &= mask - 1;
    }
    return w;
  };
  constexpr double kInf = 1e300;
  constexpr double kEps = 1e-9;
  std::vector<double> cost_max(full + 1, kInf), cost_sum(full + 1, kInf);
  std::vector<std::uint8_t> parent(full + 1, 0);
  cost_max[0] = 0.0;
  cost_sum[0] = 0.0;
  for (std::size_t s = 0; s <= full; ++s) {
    if (cost_max[s] >= kInf) continue;
    const std::uint64_t live = vars_in[s] & rest[s];
    for (std::size_t a = 0; a < n; ++a) {
      if (s & (std::size_t{1} << a)) continue;
      const std::size_t next = s | (std::size_t{1} << a);
      const double w = mask_weight(live | avars[a]);
      const double cand_max = std::max(cost_max[s], w);
      const double cand_sum = cost_sum[s] + w;
      if (cand_max < cost_max[next] - kEps ||
          (cand_max < cost_max[next] + kEps &&
           cand_sum < cost_sum[next] - kEps)) {
        cost_max[next] = cand_max;
        cost_sum[next] = cand_sum;
        parent[next] = static_cast<std::uint8_t>(a);
      }
    }
  }
  std::vector<std::size_t> order;
  order.reserve(n);
  for (std::size_t s = full; s != 0; s ^= std::size_t{1} << parent[s]) {
    order.push_back(parent[s]);
  }
  std::reverse(order.begin(), order.end());
  std::vector<Task> plan;
  plan.reserve(n);
  for (std::size_t i : order) plan.push_back(std::move((*atoms)[i]));
  *atoms = std::move(plan);
  return true;
}

double EstimateDpWork(const std::vector<Task>& plan, std::size_t num_vars,
                      const DomainSet* doms, const Structure& to);

/// Elimination plan over the atoms of `from`: greedy order, upgraded to
/// the exact subset-DP order during the pruned-domain re-plan when the
/// body is small enough AND the plan's estimated work dwarfs the
/// search's own ~2^n·n cost — the search must never cost more than it
/// can save. Without pruned domains the score degenerates to induced
/// width under uniform weights, where greedy min-new-live-vars is
/// already near-optimal and the domain-product estimate overshoots
/// selective-bucket instances by orders of magnitude, so the search
/// only runs when `doms` is present. Isolated elements come last either
/// way.
std::vector<Task> PlanTasks(const Structure& from, const DpOptions& options,
                            const DomainSet* doms, const Structure& to) {
  const std::size_t target_size = to.DomainSize();
  std::vector<Task> atoms;
  for (RelationId r = 0; r < from.schema().NumRelations(); ++r) {
    for (const Tuple& t : from.Facts(r)) {
      Task task;
      task.relation = r;
      task.atom = t;
      atoms.push_back(std::move(task));
    }
  }
  GreedyOrder(&atoms, from.DomainSize());
  if (doms != nullptr && options.order_search_max_atoms != 0 &&
      atoms.size() >= 3 && atoms.size() <= options.order_search_max_atoms &&
      from.DomainSize() <= 64) {
    // One subset-DP relaxation and one DP table entry cost the same few
    // tens of ns, so demand an 8× margin before spending 2^n·n
    // relaxations on order search.
    const double search_cost =
        std::exp2(static_cast<double>(atoms.size())) *
        static_cast<double>(atoms.size());
    if (EstimateDpWork(atoms, from.DomainSize(), doms, to) >=
        8.0 * search_cost) {
      OrderSearch(&atoms, from.DomainSize(), doms, target_size,
                  options.order_search_max_atoms);
    }
  }
  std::vector<bool> seen_element(from.DomainSize(), false);
  for (const Task& task : atoms) {
    for (Element e : task.atom) seen_element[e] = true;
  }
  for (Element e = 0; e < from.DomainSize(); ++e) {
    if (!seen_element[e]) {
      Task task;
      task.is_atom = false;
      task.element = e;
      atoms.push_back(std::move(task));
    }
  }
  return atoms;
}

/// Upper-bound estimate of the DP's work: for each step, the smaller of
/// two bounds on the joined rows, summed over steps. The first is the
/// domain-product bound (2^Σ log-weights over the step's live vars). The
/// second is a selectivity chain: the number of fact probes at step i is
/// at most (rows reaching step i) × (candidates per row), and with a
/// bound position the index narrows candidates to one bucket, so the
/// per-step extension factor is the average bucket size — |facts| over
/// the positional occupancy — minimized over the step's bound positions
/// (|facts| itself when the atom shares no live variable). The chain
/// catches functional targets (unit buckets) that the uniform product
/// overshoots by orders of magnitude. Drives the domain gate and the order
/// search trigger — never correctness.
double EstimateDpWork(const std::vector<Task>& plan, std::size_t num_vars,
                      const DomainSet* doms, const Structure& to) {
  const std::size_t target_size = to.DomainSize();
  const StructureIndex& to_index = to.Index();
  std::vector<std::size_t> last_use(num_vars, 0);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    for (Element e : plan[i].atom) last_use[e] = i;
  }
  std::vector<bool> live(num_vars, false);
  // Per-var log weights once, live weight maintained incrementally: the
  // walk is O(plan · arity), not O(plan · num_vars) log2 calls.
  std::vector<double> vlog(num_vars);
  for (Element v = 0; v < num_vars; ++v) {
    vlog[v] = VarLogWeight(v, doms, target_size);
  }
  // The chain saturates where the uniform cap takes over anyway.
  constexpr double kCap = 1.125899906842624e15;  // 2^50
  double total = 0.0;
  double chain = 1.0;
  double live_weight = 0.0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (!plan[i].is_atom) continue;
    const Task& task = plan[i];
    const double num_facts =
        static_cast<double>(to.Facts(task.relation).size());
    double factor = num_facts;
    for (std::size_t pos = 0; pos < task.atom.size(); ++pos) {
      const Element v = task.atom[pos];
      if (live[v]) {
        const double occupancy = static_cast<double>(
            to_index.PresentMask(task.relation, pos).Count());
        factor = std::min(
            factor, occupancy > 0.0 ? num_facts / occupancy : 0.0);
      }
    }
    for (Element v : task.atom) {
      if (!live[v]) {
        live[v] = true;
        live_weight += vlog[v];
      }
    }
    chain = std::min(chain * std::max(factor, 1.0), kCap);
    total += std::min(std::exp2(std::min(live_weight, 50.0)), chain);
    for (Element v : task.atom) {
      // live[v] guards double-removal when a variable repeats in the atom.
      if (last_use[v] == i && live[v]) {
        live[v] = false;
        live_weight -= vlog[v];
      }
    }
  }
  return total;
}

/// Cheap conservative upper bound on EstimateDpWork under uniform
/// weights: every step's table bound is at most 2^(num_vars · per-var
/// weight), and there are at most |plan| steps. One log2 + one exp2, so
/// the domain gate can reject tiny instances without walking the plan.
double QuickWorkBound(const std::vector<Task>& plan, std::size_t num_vars,
                      std::size_t target_size) {
  const double per_var = std::log2(static_cast<double>(target_size) + 1.0);
  const double bits =
      std::min(static_cast<double>(num_vars) * per_var, 50.0);
  return static_cast<double>(plan.size()) * std::exp2(bits);
}

/// Cost of one revise round of the atom-support fixpoint: every atom
/// scans its full target bucket once, arity tests per fact. The domain
/// gate demands the DP work estimate dominate this, else the layer
/// cannot pay for itself even when it would prune.
double DomainSetupCost(const std::vector<Task>& plan, const Structure& to) {
  double cost = 0.0;
  for (const Task& task : plan) {
    if (!task.is_atom) continue;
    cost += static_cast<double>(to.Facts(task.relation).size()) *
            static_cast<double>(std::max<std::size_t>(task.atom.size(), 1));
  }
  return cost;
}

/// The domain layer engages when forced (domain_min_work = 0) or when the
/// uniform-weight work bound clears both the absolute floor and 4× the
/// fixpoint's own setup cost. QuickWorkBound short-circuits the estimate
/// walk for tiny instances.
bool DomainGate(const std::vector<Task>& plan, const Structure& from,
                const Structure& to, const DpOptions& options) {
  if (!options.use_domains || from.DomainSize() == 0) return false;
  if (options.domain_min_work <= 0.0) return true;
  if (QuickWorkBound(plan, from.DomainSize(), to.DomainSize()) <
      options.domain_min_work) {
    return false;
  }
  const double est = EstimateDpWork(plan, from.DomainSize(), nullptr, to);
  return est >= options.domain_min_work &&
         est >= 4.0 * DomainSetupCost(plan, to);
}

/// True when the atom-support fixpoint pruned nothing: every variable can
/// still map to every target element. Such domains carry no information —
/// per-candidate tests and per-binding propagation can only re-derive
/// them — so callers drop the model.
bool AllDomainsFull(const DomainSet& doms, std::size_t target_size) {
  for (std::size_t v = 0; v < doms.num_vars(); ++v) {
    if (doms.domain(static_cast<Element>(v)).Count() != target_size) {
      return false;
    }
  }
  return true;
}

}  // namespace

namespace {

/// Shared backtracking engine. `visit` is called at every complete
/// assignment; returning false aborts the search. `used` is non-null for
/// injective matching. Candidate facts are narrowed through the target's
/// positional index — the most selective bound position drives the scan,
/// intersected with the runner-up bucket when the two are within 2× of
/// each other — and per-variable candidate domains are propagated as
/// variables bind, so unsupported subtrees are cut before recursion.
class Matcher {
 public:
  Matcher(const Structure& from, const Structure& to,
          const std::function<bool(const std::vector<Element>&)>& visit,
          std::vector<bool>* used, const DpOptions& options = DpOptions())
      : to_(to), index_(to.Index()), visit_(visit), used_(used),
        assignment_(from.DomainSize(), kUnassigned) {
    plan_ = PlanTasks(from, options, nullptr, to);
    // The domain layer only engages when the uniform-weight bound on the
    // search says its fixed cost can amortize (the domain-product bound
    // also bounds the backtracking tree).
    if (DomainGate(plan_, from, to, options)) {
      model_.emplace(from, to);
      feasible_ = model_->InitialDomains(&root_domains_);
      if (feasible_) {
        if (AllDomainsFull(root_domains_, to.DomainSize())) {
          // Nothing pruned: propagation cannot cut anything the bucket
          // scan would not, so keep the bare backtracking engine.
          model_.reset();
        } else {
          // Re-plan with the pruned per-variable weights.
          plan_ = PlanTasks(from, options, &root_domains_, to);
        }
      }
    }
    bound_stack_.resize(plan_.size());
    if (model_.has_value()) {
      domain_stack_.resize(plan_.size() + 1);
      domain_stack_[0] = root_domains_;
    }
  }

  /// Returns false iff the visitor aborted.
  bool Run() {
    if (!feasible_) return true;  // Pre-pruned to empty: no homomorphisms.
    return RunFrom(0);
  }

 private:
  bool TryFact(std::size_t task_index, const Tuple& fact) {
    const Task& task = plan_[task_index];
    std::vector<Element>& bound = bound_stack_[task_index];
    bound.clear();
    bool ok = true;
    for (std::size_t pos = 0; pos < fact.size() && ok; ++pos) {
      Element var = task.atom[pos];
      if (assignment_[var] == kUnassigned) {
        if (used_ != nullptr && (*used_)[fact[pos]]) {
          ok = false;
          break;
        }
        assignment_[var] = fact[pos];
        if (used_ != nullptr) (*used_)[fact[pos]] = true;
        bound.push_back(var);
      } else if (assignment_[var] != fact[pos]) {
        ok = false;
      }
    }
    // Propagate the new bindings through the candidate domains; an
    // emptied domain means no extension of this fact can complete, so the
    // subtree is skipped without recursing. The child slot must be
    // refreshed even when this fact binds nothing — deeper frames read it
    // as their parent state.
    if (ok && model_.has_value()) {
      DomainSet& child = domain_stack_[task_index + 1];
      child = domain_stack_[task_index];
      for (Element var : bound) {
        if (!model_->Bind(&child, var, assignment_[var])) {
          ok = false;
          break;
        }
      }
    }
    bool keep_going = true;
    if (ok) keep_going = RunFrom(task_index + 1);
    for (auto rit = bound.rbegin(); rit != bound.rend(); ++rit) {
      if (used_ != nullptr) (*used_)[assignment_[*rit]] = false;
      assignment_[*rit] = kUnassigned;
    }
    return keep_going;
  }

  bool RunFrom(std::size_t task_index) {
    // The backtracking tree is the unbounded dimension here (hom(v, q)
    // existence checks can be exponential with no early exit), so every
    // node is a governed checkpoint.
    ExecCheckPoint("hom.matcher");
    BAGDET_FAILPOINT("hom/matcher");
    if (task_index == plan_.size()) return visit_(assignment_);
    const Task& task = plan_[task_index];
    if (!task.is_atom) {
      // Isolated elements never appear before an atom task (both plan
      // orders put them last), so the domain stack is not extended here.
      for (Element image = 0; image < to_.DomainSize(); ++image) {
        if (used_ != nullptr && (*used_)[image]) continue;
        assignment_[task.element] = image;
        if (used_ != nullptr) (*used_)[image] = true;
        bool keep_going = RunFrom(task_index + 1);
        if (used_ != nullptr) (*used_)[image] = false;
        assignment_[task.element] = kUnassigned;
        if (!keep_going) return false;
      }
      return true;
    }
    const std::vector<Tuple>& facts = to_.Facts(task.relation);
    if (task.atom.empty()) {
      // Nullary atom: present or not, no bindings. The domain state is
      // carried through unchanged.
      if (model_.has_value()) {
        domain_stack_[task_index + 1] = domain_stack_[task_index];
      }
      if (facts.empty()) return true;
      return RunFrom(task_index + 1);
    }
    // Most selective bucket among the bound positions, plus the runner-up
    // when it is nearly as selective (within 2×): intersecting the two id
    // sets through a fact-id bitset often cuts the scan by the product of
    // both selectivities for the cost of one linear pass.
    std::size_t best_pos = fact_arity_sentinel();
    std::size_t second_pos = fact_arity_sentinel();
    std::size_t best_size = facts.size();
    std::size_t second_size = facts.size();
    for (std::size_t pos = 0; pos < task.atom.size(); ++pos) {
      Element image = assignment_[task.atom[pos]];
      if (image == kUnassigned) continue;
      std::size_t size = index_.BucketSize(task.relation, pos, image);
      if (size < best_size || best_pos == fact_arity_sentinel()) {
        second_pos = best_pos;
        second_size = best_size;
        best_pos = pos;
        best_size = size;
        if (size == 0) break;
      } else if (size < second_size || second_pos == fact_arity_sentinel()) {
        second_pos = pos;
        second_size = size;
      }
    }
    if (best_pos != fact_arity_sentinel()) {
      Element image = assignment_[task.atom[best_pos]];
      FactIdSpan bucket = index_.Bucket(task.relation, best_pos, image);
      // Tiny buckets are cheaper to scan than to intersect (building the
      // id bitset costs a pass over the runner-up bucket up front).
      if (best_size > 16 && second_pos != fact_arity_sentinel() &&
          second_size <= 2 * best_size) {
        Element second_image = assignment_[task.atom[second_pos]];
        FactIdSpan other =
            index_.Bucket(task.relation, second_pos, second_image);
        SVOBitset in_other(facts.size());
        for (std::uint32_t id : other) in_other.Set(id);
        for (std::uint32_t id : bucket) {
          if (!in_other.Test(id)) continue;
          if (!TryFact(task_index, facts[id])) return false;
        }
        return true;
      }
      for (std::uint32_t id : bucket) {
        if (!TryFact(task_index, facts[id])) return false;
      }
      return true;
    }
    for (const Tuple& fact : facts) {
      if (!TryFact(task_index, fact)) return false;
    }
    return true;
  }

  static constexpr std::size_t fact_arity_sentinel() {
    return static_cast<std::size_t>(-1);
  }

  const Structure& to_;
  const StructureIndex& index_;
  const std::function<bool(const std::vector<Element>&)>& visit_;
  std::vector<bool>* used_;
  std::vector<Element> assignment_;
  std::vector<Task> plan_;
  // Per-depth scratch of vars bound at that frame (avoids a heap
  // allocation per visited fact).
  std::vector<std::vector<Element>> bound_stack_;
  // Candidate-domain layer: the model plus one domain snapshot per depth
  // (copied down and narrowed as each frame binds variables).
  std::optional<DomainModel> model_;
  DomainSet root_domains_;
  std::vector<DomainSet> domain_stack_;
  bool feasible_ = true;
};

/// Open-addressing hash table from packed keys — `width` Elements stored
/// back to back in one arena — to BigInt counts. This is the DP table of
/// the variable-elimination counter: no per-entry node allocations, no
/// tree comparisons, keys contiguous in memory.
class FlatTable {
 public:
  explicit FlatTable(std::size_t width) : width_(width) {
    slots_.assign(16, 0);
  }

  std::size_t size() const { return counts_.size(); }
  bool empty() const { return counts_.empty(); }
  std::size_t width() const { return width_; }

  const Element* Key(std::size_t entry) const {
    return arena_.data() + entry * width_;
  }
  const BigInt& Count(std::size_t entry) const { return counts_[entry]; }

  /// table[key] += delta, inserting the key when absent.
  void Add(const Element* key, const BigInt& delta) {
    if ((counts_.size() + 1) * 4 >= slots_.size() * 3) Grow();
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = HashKey(key) & mask;
    while (slots_[slot] != 0) {
      const std::size_t entry = slots_[slot] - 1;
      if (KeyEquals(entry, key)) {
        counts_[entry] += delta;
        return;
      }
      slot = (slot + 1) & mask;
    }
    slots_[slot] = static_cast<std::uint32_t>(counts_.size() + 1);
    arena_.insert(arena_.end(), key, key + width_);
    counts_.push_back(delta);
  }

  /// Resident footprint (capacities, not sizes — what the allocator holds).
  /// BigInt limb spill is not counted; the budget is an admission-control
  /// estimate, not a malloc ledger.
  std::uint64_t ApproxBytes() const {
    return static_cast<std::uint64_t>(arena_.capacity()) * sizeof(Element) +
           static_cast<std::uint64_t>(counts_.capacity()) * sizeof(BigInt) +
           static_cast<std::uint64_t>(slots_.capacity()) *
               sizeof(std::uint32_t);
  }

 private:
  std::uint64_t HashKey(const Element* key) const {
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (std::size_t i = 0; i < width_; ++i) {
      h ^= key[i];
      h *= 0xbf58476d1ce4e5b9ull;
    }
    return h ^ (h >> 29);
  }

  bool KeyEquals(std::size_t entry, const Element* key) const {
    const Element* stored = arena_.data() + entry * width_;
    for (std::size_t i = 0; i < width_; ++i) {
      if (stored[i] != key[i]) return false;
    }
    return true;
  }

  void Grow() {
    BAGDET_FAILPOINT("hom/dp_table_grow");
    std::vector<std::uint32_t> fresh(slots_.size() * 2, 0);
    const std::size_t mask = fresh.size() - 1;
    for (std::size_t entry = 0; entry < counts_.size(); ++entry) {
      std::size_t slot = HashKey(Key(entry)) & mask;
      while (fresh[slot] != 0) slot = (slot + 1) & mask;
      fresh[slot] = static_cast<std::uint32_t>(entry + 1);
    }
    slots_ = std::move(fresh);
  }

  std::size_t width_;
  std::vector<Element> arena_;   // size() * width_ elements
  std::vector<BigInt> counts_;   // parallel to packed keys
  std::vector<std::uint32_t> slots_;  // entry index + 1; 0 = empty
};

/// Runs the variable-elimination DP over a fixed plan. `doms` (optional)
/// supplies pre-pruned candidate domains: any candidate fact carrying an
/// out-of-domain value at a yet-unbound position is rejected before it can
/// insert a table entry.
BigInt RunDpPlan(const std::vector<Task>& plan, const Structure& component,
                 const Structure& to, const DomainSet* doms) {
  const StructureIndex& to_index = to.Index();
  // Last atom-task index using each element of the component.
  std::vector<std::size_t> last_use(component.DomainSize(), 0);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    for (Element e : plan[i].atom) last_use[e] = i;
  }
  // The table maps assignments of the live variables (kept sorted by
  // variable id in `live`) to the number of extensions producing them.
  std::vector<Element> live;
  FlatTable table(0);
  table.Add(nullptr, BigInt(1));
  // Connected components with facts have no isolated elements, but stay
  // correct if one ever appears in a plan: each contributes a free factor
  // of |dom(to)|.
  BigInt isolated_factor(1);
  // Transient DP memory is accounted against the governing request: the
  // held total tracks the live + under-construction tables and is
  // released on every exit, including a tripped unwind.
  ScopedCharge dp_mem("hom.dp");
  for (std::size_t i = 0; i < plan.size(); ++i) {
    ExecCheckPoint("hom.dp");
    BAGDET_FAILPOINT("hom/dp_step");
    const Task& task = plan[i];
    if (!task.is_atom) {
      isolated_factor *= BigInt(static_cast<std::int64_t>(to.DomainSize()));
      continue;
    }
    const std::vector<Tuple>& facts = to.Facts(task.relation);
    if (task.atom.empty()) {
      // Nullary atom: a presence test, no bindings.
      if (facts.empty()) return BigInt(0);
      continue;
    }
    // New live set: current ∪ atom vars; `kept` drops vars last used here.
    std::vector<Element> next_live = live;
    for (Element var : task.atom) {
      if (std::find(next_live.begin(), next_live.end(), var) ==
          next_live.end()) {
        next_live.push_back(var);
      }
    }
    std::sort(next_live.begin(), next_live.end());
    std::vector<Element> kept;
    for (Element var : next_live) {
      if (last_use[var] > i) kept.push_back(var);
    }
    // Resolve every variable→slot lookup once for the whole step.
    auto slot_in = [](const std::vector<Element>& vars, Element var) {
      return static_cast<std::size_t>(
          std::find(vars.begin(), vars.end(), var) - vars.begin());
    };
    std::vector<std::size_t> live_slot(live.size());
    for (std::size_t v = 0; v < live.size(); ++v) {
      live_slot[v] = slot_in(next_live, live[v]);
    }
    std::vector<std::size_t> atom_slot(task.atom.size());
    // key_slot[pos]: index into the current table key whose value binds
    // atom position `pos`, or npos when the position is free.
    constexpr std::size_t npos = static_cast<std::size_t>(-1);
    std::vector<std::size_t> key_slot(task.atom.size(), npos);
    // domain_of[pos]: candidate domain of the variable at `pos`, consulted
    // for free positions only (bound values passed the test when fresh).
    std::vector<const SVOBitset*> domain_of(task.atom.size(), nullptr);
    for (std::size_t pos = 0; pos < task.atom.size(); ++pos) {
      atom_slot[pos] = slot_in(next_live, task.atom[pos]);
      std::size_t in_live = slot_in(live, task.atom[pos]);
      if (in_live < live.size()) key_slot[pos] = in_live;
      if (doms != nullptr) domain_of[pos] = &doms->domain(task.atom[pos]);
    }
    std::vector<std::size_t> kept_slot(kept.size());
    for (std::size_t k = 0; k < kept.size(); ++k) {
      kept_slot[k] = slot_in(next_live, kept[k]);
    }
    // Slots of next_live not carried over from live: these must read as
    // unassigned at the start of every fact probe.
    std::vector<std::size_t> fresh_slots;
    for (std::size_t s = 0; s < next_live.size(); ++s) {
      bool carried = false;
      for (std::size_t v = 0; v < live.size() && !carried; ++v) {
        carried = live_slot[v] == s;
      }
      if (!carried) fresh_slots.push_back(s);
    }
    FlatTable next_table(kept.size());
    const std::uint64_t prev_table_bytes = table.ApproxBytes();
    std::vector<Element> joined(next_live.size(), kUnassigned);
    std::vector<Element> projected(kept.size());
    for (std::size_t entry = 0; entry < table.size(); ++entry) {
      ExecCheckPoint("hom.dp");
      const Element* key = table.Key(entry);
      const BigInt& count = table.Count(entry);
      // Fill the carried-over slots once per entry; fact probes only touch
      // fresh slots.
      for (std::size_t v = 0; v < live.size(); ++v) {
        joined[live_slot[v]] = key[v];
      }
      // Most selective bucket among the bound positions.
      std::size_t best_pos = npos;
      std::size_t best_size = facts.size();
      for (std::size_t pos = 0; pos < task.atom.size(); ++pos) {
        if (key_slot[pos] == npos) continue;
        std::size_t size =
            to_index.BucketSize(task.relation, pos, key[key_slot[pos]]);
        if (size < best_size || best_pos == npos) {
          best_size = size;
          best_pos = pos;
          if (size == 0) break;
        }
      }
      FactIdSpan bucket;
      if (best_pos != npos) {
        bucket = to_index.Bucket(task.relation, best_pos,
                                 key[key_slot[best_pos]]);
      }
      const std::size_t num_candidates =
          best_pos != npos ? bucket.size() : facts.size();
      for (std::size_t c = 0; c < num_candidates; ++c) {
        ExecCheckPoint("hom.dp");
        const Tuple& fact =
            best_pos != npos ? facts[bucket.first[c]] : facts[c];
        for (std::size_t s : fresh_slots) joined[s] = kUnassigned;
        bool ok = true;
        for (std::size_t pos = 0; pos < fact.size() && ok; ++pos) {
          Element& slot_value = joined[atom_slot[pos]];
          if (slot_value == kUnassigned) {
            // Domain filter: a value no homomorphism can use dies here,
            // before the table ever sees it.
            if (domain_of[pos] != nullptr &&
                !domain_of[pos]->Test(fact[pos])) {
              ok = false;
              break;
            }
            slot_value = fact[pos];
          } else if (slot_value != fact[pos]) {
            ok = false;
          }
        }
        if (!ok) continue;
        for (std::size_t k = 0; k < kept.size(); ++k) {
          projected[k] = joined[kept_slot[k]];
        }
        next_table.Add(projected.data(), count);
      }
      dp_mem.Update(prev_table_bytes + next_table.ApproxBytes());
    }
    live = std::move(kept);
    table = std::move(next_table);
    if (table.empty()) return BigInt(0);
  }
  BigInt total(0);
  for (std::size_t entry = 0; entry < table.size(); ++entry) {
    total += table.Count(entry);
  }
  total *= isolated_factor;
  return total;
}

/// Counts homomorphisms of a single *connected* component by variable
/// elimination: a count-annotated join plan over the atoms, projecting out
/// every variable after its last use. Unlike enumeration this runs in time
/// polynomial in the table sizes, not in the (possibly astronomical)
/// number of homomorphisms. The domain layer pre-prunes candidates and the
/// subset-DP order search picks the plan; the plan then runs once, serially.
BigInt CountComponent(const Structure& component, const Structure& to,
                      const DpOptions& options) {
  if (component.DomainSize() == 0) {
    // A lone nullary fact: one hom when present, none otherwise.
    for (RelationId r = 0; r < component.schema().NumRelations(); ++r) {
      if (!component.Facts(r).empty() && to.Facts(r).empty()) return BigInt(0);
    }
    return BigInt(1);
  }
  if (component.NumFacts() == 0) {
    // Isolated element: any image works.
    return BigInt(static_cast<std::int64_t>(to.DomainSize()));
  }
  std::vector<Task> plan = PlanTasks(component, options, nullptr, to);
  // The domain layer's fixed cost (model wiring + atom-support fixpoint)
  // only amortizes on plans with real work; tiny components keep the
  // bare PR-1 path.
  if (DomainGate(plan, component, to, options)) {
    DomainSet doms;
    if (!DomainModel(component, to).InitialDomains(&doms)) return BigInt(0);
    // When nothing was pruned the domains are dropped: the DP's
    // per-candidate tests could only re-derive them, and uniform weights
    // make a re-plan a no-op.
    if (!AllDomainsFull(doms, to.DomainSize())) {
      // Re-plan with the pruned per-variable weights.
      plan = PlanTasks(component, options, &doms, to);
      return RunDpPlan(plan, component, to, &doms);
    }
  }
  return RunDpPlan(plan, component, to, nullptr);
}

}  // namespace

BigInt CountHoms(const Structure& from, const Structure& to,
                 const DpOptions& options) {
  BigInt product(1);
  for (const Structure& component : ConnectedComponents(from)) {
    BigInt c = CountComponent(component, to, options);
    if (c.IsZero()) return BigInt(0);
    product *= c;
  }
  return product;
}

BigInt CountHoms(const Structure& from, const Structure& to) {
  return CountHoms(from, to, DpOptions());
}

bool ExistsHom(const Structure& from, const Structure& to) {
  for (const Structure& component : ConnectedComponents(from)) {
    if (component.DomainSize() == 0) {
      bool present = true;
      for (RelationId r = 0; r < component.schema().NumRelations(); ++r) {
        if (!component.Facts(r).empty() && to.Facts(r).empty()) present = false;
      }
      if (!present) return false;
      continue;
    }
    if (component.NumFacts() == 0) {
      if (to.DomainSize() == 0) return false;
      continue;
    }
    bool found = false;
    std::function<bool(const std::vector<Element>&)> visit =
        [&found](const std::vector<Element>&) {
          found = true;
          return false;  // Stop at the first hit.
        };
    Matcher matcher(component, to, visit, nullptr);
    matcher.Run();
    if (!found) return false;
  }
  return true;
}

BigInt CountInjectiveHoms(const Structure& from, const Structure& to) {
  if (from.DomainSize() > to.DomainSize()) return BigInt(0);
  // Injectivity couples components, so match the whole structure at once.
  BigInt count(0);
  std::function<bool(const std::vector<Element>&)> visit =
      [&count](const std::vector<Element>&) {
        count += BigInt(1);
        return true;
      };
  // Nullary facts must still be present.
  for (RelationId r = 0; r < from.schema().NumRelations(); ++r) {
    if (from.schema().Arity(r) == 0 && !from.Facts(r).empty() &&
        to.Facts(r).empty()) {
      return BigInt(0);
    }
  }
  std::vector<bool> used(to.DomainSize(), false);
  Matcher matcher(from, to, visit, &used);
  matcher.Run();
  return count;
}

BigInt CountHomsByEnumeration(const Structure& from, const Structure& to) {
  BigInt count(0);
  std::function<bool(const std::vector<Element>&)> visit =
      [&count](const std::vector<Element>&) {
        count += BigInt(1);
        return true;
      };
  for (RelationId r = 0; r < from.schema().NumRelations(); ++r) {
    if (from.schema().Arity(r) == 0 && !from.Facts(r).empty() &&
        to.Facts(r).empty()) {
      return BigInt(0);
    }
  }
  Matcher matcher(from, to, visit, nullptr);
  matcher.Run();
  return count;
}

BigInt CountHomsNaive(const Structure& from, const Structure& to) {
  const std::size_t n = from.DomainSize();
  const std::size_t m = to.DomainSize();
  // Check nullary facts up front.
  for (RelationId r = 0; r < from.schema().NumRelations(); ++r) {
    if (from.schema().Arity(r) == 0 && !from.Facts(r).empty() &&
        to.Facts(r).empty()) {
      return BigInt(0);
    }
  }
  if (n == 0) return BigInt(1);
  if (m == 0) return BigInt(0);
  std::vector<Element> assignment(n, 0);
  BigInt count(0);
  for (;;) {
    bool ok = true;
    for (RelationId r = 0; r < from.schema().NumRelations() && ok; ++r) {
      for (const Tuple& t : from.Facts(r)) {
        Tuple image(t.size());
        for (std::size_t i = 0; i < t.size(); ++i) image[i] = assignment[t[i]];
        if (!to.HasFact(r, image)) {
          ok = false;
          break;
        }
      }
    }
    if (ok) count += BigInt(1);
    // Advance the odometer.
    std::size_t i = 0;
    while (i < n && ++assignment[i] == m) {
      assignment[i] = 0;
      ++i;
    }
    if (i == n) break;
  }
  return count;
}

bool EnumerateHoms(
    const Structure& from, const Structure& to,
    const std::function<bool(const std::vector<Element>&)>& visit) {
  for (RelationId r = 0; r < from.schema().NumRelations(); ++r) {
    if (from.schema().Arity(r) == 0 && !from.Facts(r).empty() &&
        to.Facts(r).empty()) {
      return true;  // No homs; vacuously completed.
    }
  }
  Matcher matcher(from, to, visit, nullptr);
  return matcher.Run();
}

}  // namespace bagdet
