#include "query/cq.h"

#include <sstream>
#include <stdexcept>

#include "hom/hom.h"
#include "structs/canonical.h"

namespace bagdet {

ConjunctiveQuery::ConjunctiveQuery() {
  static const std::shared_ptr<const Body> kEmpty = [] {
    auto body = std::make_shared<Body>();
    body->frozen.CanonicalData();
    return body;
  }();
  body_ = kEmpty;
}

ConjunctiveQuery::ConjunctiveQuery(std::string name,
                                   std::shared_ptr<const Schema> schema,
                                   std::vector<std::string> var_names,
                                   std::size_t num_free,
                                   std::vector<QueryAtom> atoms) {
  if (num_free > var_names.size()) {
    throw std::invalid_argument("ConjunctiveQuery: more free vars than vars");
  }
  auto body = std::make_shared<Body>();
  body->frozen = Structure(schema, var_names.size());
  for (const QueryAtom& atom : atoms) {
    if (atom.args.size() != schema->Arity(atom.relation)) {
      throw std::invalid_argument("ConjunctiveQuery: atom arity mismatch in " +
                                  schema->Name(atom.relation));
    }
    Tuple tuple(atom.args.size());
    for (std::size_t i = 0; i < atom.args.size(); ++i) {
      if (atom.args[i] >= var_names.size()) {
        throw std::invalid_argument("ConjunctiveQuery: atom uses unknown var");
      }
      tuple[i] = atom.args[i];
    }
    body->frozen.AddFact(atom.relation, std::move(tuple));
  }
  body->name = std::move(name);
  body->schema = std::move(schema);
  body->var_names = std::move(var_names);
  body->num_free = num_free;
  body->atoms = std::move(atoms);
  // Boolean queries are the determinacy pipeline's currency: canonicalize
  // the frozen body once, before any copy can share it, so decisions on
  // any thread only read the cached form (see the contract in cq.h).
  if (num_free == 0) body->frozen.CanonicalData();
  body_ = std::move(body);
}

AnswerBag ConjunctiveQuery::Evaluate(const Structure& data) const {
  const std::size_t num_free = NumFreeVars();
  AnswerBag answers;
  EnumerateHoms(FrozenBody(), data, [&](const std::vector<Element>& a) {
    Tuple head(num_free);
    for (std::size_t i = 0; i < num_free; ++i) head[i] = a[i];
    answers[head] += BigInt(1);
    return true;
  });
  return answers;
}

BigInt ConjunctiveQuery::CountHomomorphisms(const Structure& data) const {
  return CountHoms(FrozenBody(), data);
}

std::string ConjunctiveQuery::ToString() const {
  const Body& b = *body_;
  std::ostringstream os;
  os << b.name << '(';
  for (std::size_t i = 0; i < b.num_free; ++i) {
    if (i != 0) os << ',';
    os << b.var_names[i];
  }
  os << ") :- ";
  for (std::size_t i = 0; i < b.atoms.size(); ++i) {
    if (i != 0) os << ", ";
    os << b.schema->Name(b.atoms[i].relation) << '(';
    for (std::size_t j = 0; j < b.atoms[i].args.size(); ++j) {
      if (j != 0) os << ',';
      os << b.var_names[b.atoms[i].args[j]];
    }
    os << ')';
  }
  if (b.atoms.empty()) os << "true";
  return os.str();
}

UnionQuery::UnionQuery(std::string name,
                       std::vector<ConjunctiveQuery> disjuncts)
    : name_(std::move(name)), disjuncts_(std::move(disjuncts)) {}

bool UnionQuery::IsBoolean() const {
  for (const ConjunctiveQuery& d : disjuncts_) {
    if (!d.IsBoolean()) return false;
  }
  return true;
}

BigInt UnionQuery::Count(const Structure& data) const {
  BigInt total(0);
  for (const ConjunctiveQuery& d : disjuncts_) {
    total += d.CountHomomorphisms(data);
  }
  return total;
}

AnswerBag UnionQuery::Evaluate(const Structure& data) const {
  AnswerBag total;
  for (const ConjunctiveQuery& d : disjuncts_) {
    for (const auto& [tuple, count] : d.Evaluate(data)) {
      total[tuple] += count;
    }
  }
  return total;
}

std::string UnionQuery::ToString() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < disjuncts_.size(); ++i) {
    if (i != 0) os << "  |  ";
    os << disjuncts_[i].ToString();
  }
  return os.str();
}

ConjunctiveQuery BooleanQueryFromStructure(std::string name,
                                           const Structure& body) {
  std::vector<std::string> var_names;
  var_names.reserve(body.DomainSize());
  for (std::size_t e = 0; e < body.DomainSize(); ++e) {
    var_names.push_back("z" + std::to_string(e));
  }
  std::vector<QueryAtom> atoms;
  for (RelationId r = 0; r < body.schema().NumRelations(); ++r) {
    for (const Tuple& t : body.Facts(r)) {
      QueryAtom atom;
      atom.relation = r;
      atom.args.assign(t.begin(), t.end());
      atoms.push_back(std::move(atom));
    }
  }
  return ConjunctiveQuery(std::move(name), body.schema_ptr(),
                          std::move(var_names), 0, std::move(atoms));
}

bool IsContainedSetSemantics(const ConjunctiveQuery& q,
                             const ConjunctiveQuery& q_prime) {
  if (!q.IsBoolean() || !q_prime.IsBoolean()) {
    throw std::invalid_argument(
        "IsContainedSetSemantics: boolean queries expected");
  }
  return ExistsHom(q_prime.FrozenBody(), q.FrozenBody());
}

bool AnswerBagsEqual(const AnswerBag& a, const AnswerBag& b) {
  // AnswerBag omits zero multiplicities, so plain map equality is multiset
  // equality.
  return a == b;
}

}  // namespace bagdet
