// bagdet: conjunctive queries and unions of conjunctive queries under bag
// semantics (Section 2.1 of the paper).

#ifndef BAGDET_QUERY_CQ_H_
#define BAGDET_QUERY_CQ_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "structs/structure.h"
#include "util/bigint.h"

namespace bagdet {

/// Index of a variable within a query.
using VarId = std::uint32_t;

/// One atom R(x̄) of a query body; `args` are variable ids.
struct QueryAtom {
  RelationId relation;
  std::vector<VarId> args;
};

/// The bag of answers of a query over a structure: tuple ↦ multiplicity.
/// A boolean query's answer bag maps the empty tuple to |hom(q, D)|.
using AnswerBag = std::map<Tuple, BigInt>;

/// A conjunctive query Φ = ∃ȳ φ(x̄, ȳ). Variables are indexed 0..n-1;
/// the first `NumFreeVars()` of them are the free (head) variables x̄.
///
/// A query is a handle to one immutable, shared body (name, schema,
/// variable names, atoms and the frozen Structure), so copying a query
/// costs a reference-count bump and copies share FrozenBody() by address.
///
/// Thread safety. A boolean query's canonical form is computed by the
/// constructor, before any copy exists. A determinacy decision reads only
/// the body's facts and that cached form: it counts homomorphisms into
/// interned pool representatives or into decision-local copies, never into
/// the body itself. Copies of one boolean query may therefore be decided
/// concurrently from any number of threads. The body's positional Index()
/// stays lazy and unsynchronized, because warming it for every query costs
/// a CSR table per relation position per query. Anything that counts
/// homomorphisms *into* a shared body (IsContainedSetSemantics(q, ·),
/// CountHoms(·, q.FrozenBody())) from several threads must call
/// FrozenBody().Index() once first. A non-boolean body's canonical form is
/// lazy too. The schema is shared and may keep growing (a parser appends
/// relations across rules); no query writes to it.
class ConjunctiveQuery {
 public:
  /// The empty boolean query over no schema (a placeholder value).
  ConjunctiveQuery();

  /// Builds a query. `var_names` lists all variables (free first); every
  /// atom argument must index into it. Head-only variables are allowed in
  /// the paper's definition, but every variable must appear in `var_names`.
  /// Throws std::invalid_argument when `num_free` exceeds the variable
  /// count, an atom's arity differs from its relation's, or an atom names
  /// an unknown variable.
  ConjunctiveQuery(std::string name, std::shared_ptr<const Schema> schema,
                   std::vector<std::string> var_names, std::size_t num_free,
                   std::vector<QueryAtom> atoms);

  const std::string& name() const { return body_->name; }
  const Schema& schema() const { return *body_->schema; }
  const std::shared_ptr<const Schema>& schema_ptr() const {
    return body_->schema;
  }
  const std::vector<QueryAtom>& atoms() const { return body_->atoms; }
  std::size_t NumVars() const { return body_->var_names.size(); }
  std::size_t NumFreeVars() const { return body_->num_free; }
  const std::string& VarName(VarId v) const { return body_->var_names.at(v); }

  bool IsBoolean() const { return body_->num_free == 0; }

  /// The frozen body (Section 2.1): variables become domain elements
  /// 0..NumVars()-1 in variable order, atoms become facts.
  const Structure& FrozenBody() const { return body_->frozen; }

  /// True iff the frozen body is connected (single component, nonempty).
  bool IsConnected() const { return body_->frozen.IsConnected(); }

  /// Answer bag Φ(D): for each assignment of the free variables, the number
  /// of homomorphisms extending it (Section 2.1). Zero-multiplicity tuples
  /// are omitted.
  AnswerBag Evaluate(const Structure& data) const;

  /// |hom(Φ, D)| — the total number of homomorphisms of the frozen body.
  /// For a boolean query this is the paper's q(D).
  BigInt CountHomomorphisms(const Structure& data) const;

  /// Renders as "name(x,..) :- R(x,y), S(y)".
  std::string ToString() const;

 private:
  struct Body {
    std::string name;
    std::shared_ptr<const Schema> schema;
    std::vector<std::string> var_names;
    std::size_t num_free = 0;
    std::vector<QueryAtom> atoms;
    Structure frozen;
  };
  std::shared_ptr<const Body> body_;
};

/// A union (disjunction) of conjunctive queries. Following the paper, a UCQ
/// is a *multiset* of disjuncts and its boolean value is the SUM of the
/// disjunct counts: Ψ(D) = Σ_{Φ∈Ψ} Φ(D). (The Theorem-2 reduction builds
/// UCQs that repeat a disjunct c(m) times, so duplicates matter.)
class UnionQuery {
 public:
  UnionQuery() = default;
  explicit UnionQuery(std::string name,
                      std::vector<ConjunctiveQuery> disjuncts);

  const std::string& name() const { return name_; }
  const std::vector<ConjunctiveQuery>& disjuncts() const { return disjuncts_; }
  bool IsBoolean() const;

  /// Σ over disjuncts of CountHomomorphisms.
  BigInt Count(const Structure& data) const;

  /// Multiset union of the disjunct answer bags.
  AnswerBag Evaluate(const Structure& data) const;

  std::string ToString() const;

 private:
  std::string name_;
  std::vector<ConjunctiveQuery> disjuncts_;
};

/// Builds the boolean CQ whose frozen body is (a copy of) `body`: one
/// existential variable per domain element, one atom per fact. Inverse of
/// ConjunctiveQuery::FrozenBody (boolean queries are identified with their
/// frozen bodies in the paper).
ConjunctiveQuery BooleanQueryFromStructure(std::string name,
                                           const Structure& body);

/// Set-semantics containment of boolean CQs: q ⊆set q′ iff hom(q′, q) ≠ ∅
/// (Section 2.1). Arguments are the queries, not their bodies.
bool IsContainedSetSemantics(const ConjunctiveQuery& q,
                             const ConjunctiveQuery& q_prime);

/// True iff the two answer bags are equal as multisets.
bool AnswerBagsEqual(const AnswerBag& a, const AnswerBag& b);

}  // namespace bagdet

#endif  // BAGDET_QUERY_CQ_H_
