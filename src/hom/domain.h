// bagdet: per-variable candidate domains with propagation-driven pruning.
//
// The PR-1 join core narrows candidates through one most-selective index
// bucket per step; everything it cannot see locally survives until the DP
// table or the backtracker discovers the dead end. This layer gives every
// variable of a source structure an explicit candidate *domain* — an
// SVOBitset over the target's elements (the glasgow-subgraph-solver shape:
// HomomorphismDomain over a small-vector bitset) — pruned before search
// and narrowed by intersection as variables bind:
//
//   * seeding: a variable occurring at position p of relation R can only
//     map to targets that carry some R-fact at p (StructureIndex::
//     PresentMask), intersected over every occurrence;
//   * atom-support fixpoint (arc consistency): a candidate survives only
//     while some target fact matches its atom with every other position
//     drawn from the current domains — iterated over a worklist until
//     nothing shrinks;
//   * binding: fixing v ↦ d re-supports the atoms containing v, shrinking
//     the domains of the variables sharing those atoms, with empty-domain
//     early abort.
//
// Pruning only ever removes images that no homomorphism can use, so every
// consumer (counting, existence, injective, enumeration) stays exact.
//
// DomainModel holds the immutable wiring (atoms, occurrence lists, the
// target index); DomainSet is the mutable value the search copies per
// depth — just the bitsets, a few inline words each for pipeline-sized
// targets.

#ifndef BAGDET_HOM_DOMAIN_H_
#define BAGDET_HOM_DOMAIN_H_

#include <cstdint>
#include <vector>

#include "structs/index.h"
#include "structs/structure.h"
#include "util/bitset.h"

namespace bagdet {

/// Candidate images per source variable: domain(v) is a bitset over the
/// target's domain. Value type with no back-references, so search layers
/// snapshot it by plain copy.
class DomainSet {
 public:
  DomainSet() = default;

  const SVOBitset& domain(Element v) const { return domains_[v]; }
  SVOBitset& mutable_domain(Element v) { return domains_[v]; }
  std::size_t num_vars() const { return domains_.size(); }

 private:
  friend class DomainModel;
  std::vector<SVOBitset> domains_;
};

/// Propagation engine for one (source, target) pair. Both structures must
/// outlive the model; the target's positional index is built on demand.
class DomainModel {
 public:
  DomainModel(const Structure& from, const Structure& to);

  std::size_t num_vars() const { return num_vars_; }
  std::size_t target_size() const { return target_size_; }

  /// Seeds every domain from the occupancy masks and runs the atom-support
  /// fixpoint. Returns false iff some domain empties — no homomorphism
  /// exists and callers should answer 0 without searching.
  bool InitialDomains(DomainSet* doms) const;

  /// Binds v ↦ image: narrows domain(v) to the singleton and re-supports
  /// the atoms containing v (one round, no cascade — the next binding
  /// propagates again). Returns false iff the image is not in domain(v) or
  /// some sharing variable's domain empties.
  bool Bind(DomainSet* doms, Element v, Element image) const;

 private:
  struct Atom {
    RelationId relation = 0;
    Tuple tuple;
    // Distinct variables of the tuple, first-occurrence order, and for
    // each tuple position the index into `vars` of its variable.
    std::vector<Element> vars;
    std::vector<std::uint32_t> var_slot;
  };

  /// Runs the atom-support fixpoint over all atoms. Returns false iff a
  /// domain empties.
  bool Propagate(DomainSet* doms) const;

  /// Recomputes the supported domain of every variable of atom `a` and
  /// intersects it in. Appends shrunk variables to `changed` (when
  /// non-null). Returns false iff a domain empties.
  bool ReviseAtom(std::uint32_t a, DomainSet* doms,
                  std::vector<Element>* changed) const;

  const Structure* to_;
  const StructureIndex* index_;
  std::size_t num_vars_ = 0;
  std::size_t target_size_ = 0;
  std::vector<Atom> atoms_;
  std::vector<std::vector<std::uint32_t>> atoms_of_var_;
};

}  // namespace bagdet

#endif  // BAGDET_HOM_DOMAIN_H_
