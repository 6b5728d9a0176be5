#include "query/cq.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "query/parser.h"

namespace bagdet {
namespace {

TEST(ParserTest, ParsesBooleanRule) {
  QueryParser parser;
  ConjunctiveQuery q = parser.ParseRule("q() :- R(x,y), S(y,z)");
  EXPECT_EQ(q.name(), "q");
  EXPECT_TRUE(q.IsBoolean());
  EXPECT_EQ(q.NumVars(), 3u);
  EXPECT_EQ(q.atoms().size(), 2u);
  EXPECT_EQ(q.schema().NumRelations(), 2u);
  EXPECT_EQ(q.FrozenBody().NumFacts(), 2u);
}

TEST(ParserTest, ParsesFreeVariables) {
  QueryParser parser;
  ConjunctiveQuery q = parser.ParseRule("v(x, y) :- R(x,z), R(z,y)");
  EXPECT_EQ(q.NumFreeVars(), 2u);
  EXPECT_EQ(q.VarName(0), "x");
  EXPECT_EQ(q.VarName(1), "y");
  EXPECT_FALSE(q.IsBoolean());
}

TEST(ParserTest, HeadWithoutParensIsBoolean) {
  QueryParser parser;
  ConjunctiveQuery q = parser.ParseRule("ok :- R(a,b)");
  EXPECT_TRUE(q.IsBoolean());
}

TEST(ParserTest, NullaryAtomsAndTrue) {
  QueryParser parser;
  ConjunctiveQuery h = parser.ParseRule("q() :- H()");
  EXPECT_EQ(h.schema().Arity(*h.schema().Find("H")), 0u);
  EXPECT_EQ(h.FrozenBody().DomainSize(), 0u);
  ConjunctiveQuery t = parser.ParseRule("t() :- true");
  EXPECT_EQ(t.atoms().size(), 0u);
}

TEST(ParserTest, SharedSchemaAccumulates) {
  QueryParser parser;
  parser.ParseRule("a() :- R(x,y)");
  parser.ParseRule("b() :- S(x), R(x,x)");
  EXPECT_EQ(parser.schema()->NumRelations(), 2u);
  EXPECT_THROW(parser.ParseRule("c() :- R(x)"), std::invalid_argument);
}

TEST(ParserTest, RejectsMalformedInput) {
  QueryParser parser;
  EXPECT_THROW(parser.ParseRule("q() R(x,y)"), std::invalid_argument);
  EXPECT_THROW(parser.ParseRule("q() :- R(x,y"), std::invalid_argument);
  EXPECT_THROW(parser.ParseRule(":- R(x,y)"), std::invalid_argument);
  EXPECT_THROW(parser.ParseRule("q() :- R(x,y) garbage"),
               std::invalid_argument);
}

TEST(ParserTest, ProgramSkipsCommentsAndBlankLines) {
  QueryParser parser;
  std::vector<ConjunctiveQuery> rules = parser.ParseProgram(
      "# a comment\n"
      "q() :- R(x,y)\n"
      "\n"
      "v() :- R(x,x)  # trailing comment\n");
  EXPECT_EQ(rules.size(), 2u);
}

TEST(ParserTest, UcqProgramGroupsByName) {
  QueryParser parser;
  std::vector<UnionQuery> ucqs = parser.ParseUcqProgram(
      "v() :- P(x)\n"
      "v() :- R(x)\n"
      "w() :- P(x), R(x)\n");
  ASSERT_EQ(ucqs.size(), 2u);
  EXPECT_EQ(ucqs[0].disjuncts().size(), 2u);
  EXPECT_EQ(ucqs[1].disjuncts().size(), 1u);
}

TEST(CqTest, CopiesShareOneFrozenBody) {
  QueryParser parser;
  ConjunctiveQuery q = parser.ParseRule("q() :- R(x,y), S(y,z)");
  ConjunctiveQuery copy = q;
  EXPECT_EQ(&copy.FrozenBody(), &q.FrozenBody());
  std::vector<ConjunctiveQuery> copies(3, q);
  for (const ConjunctiveQuery& c : copies) {
    EXPECT_EQ(&c.FrozenBody(), &q.FrozenBody());
  }
  ConjunctiveQuery moved = std::move(copy);
  EXPECT_EQ(&moved.FrozenBody(), &q.FrozenBody());
  EXPECT_EQ(moved.ToString(), q.ToString());
}

TEST(CqTest, ConstructorValidatesEveryArgument) {
  auto schema = std::make_shared<Schema>();
  const RelationId r = schema->AddRelation("R", 2);
  // More free variables than variables.
  EXPECT_THROW(ConjunctiveQuery("q", schema, {"x"}, 2, {}),
               std::invalid_argument);
  // Atom arity differs from the relation's.
  EXPECT_THROW(
      ConjunctiveQuery("q", schema, {"x", "y"}, 0, {QueryAtom{r, {0}}}),
      std::invalid_argument);
  // Atom names a variable outside var_names.
  EXPECT_THROW(
      ConjunctiveQuery("q", schema, {"x"}, 0, {QueryAtom{r, {0, 1}}}),
      std::invalid_argument);
  ConjunctiveQuery ok("q", schema, {"x", "y"}, 1, {QueryAtom{r, {0, 1}}});
  EXPECT_EQ(ok.NumFreeVars(), 1u);
  EXPECT_EQ(ok.FrozenBody().NumFacts(), 1u);
}

TEST(CqTest, FrozenBodyIdentifiesRepeatedVars) {
  QueryParser parser;
  ConjunctiveQuery q = parser.ParseRule("q() :- R(x,x)");
  EXPECT_EQ(q.FrozenBody().DomainSize(), 1u);
  EXPECT_TRUE(q.FrozenBody().HasFact(0, {0, 0}));
}

TEST(CqTest, BooleanEvaluationCountsHoms) {
  QueryParser parser;
  ConjunctiveQuery q = parser.ParseRule("q() :- R(x,y)");
  Structure d(parser.schema());
  d.AddFact(0, {0, 1});
  d.AddFact(0, {1, 2});
  d.AddFact(0, {2, 2});
  EXPECT_EQ(q.CountHomomorphisms(d), BigInt(3));
  AnswerBag bag = q.Evaluate(d);
  ASSERT_EQ(bag.size(), 1u);
  EXPECT_EQ(bag.at({}), BigInt(3));
}

TEST(CqTest, NonBooleanEvaluationGroupsByHead) {
  QueryParser parser;
  ConjunctiveQuery q = parser.ParseRule("q(x) :- R(x,y)");
  Structure d(parser.schema());
  d.AddFact(0, {0, 1});
  d.AddFact(0, {0, 2});
  d.AddFact(0, {1, 2});
  AnswerBag bag = q.Evaluate(d);
  ASSERT_EQ(bag.size(), 2u);
  EXPECT_EQ(bag.at({0}), BigInt(2));
  EXPECT_EQ(bag.at({1}), BigInt(1));
}

TEST(CqTest, EmptyBodyCountsOne) {
  QueryParser parser;
  ConjunctiveQuery q = parser.ParseRule("q() :- true");
  Structure d(parser.schema());
  EXPECT_EQ(q.CountHomomorphisms(d), BigInt(1));
}

TEST(CqTest, HeadOnlyVariableRangesOverDomain) {
  QueryParser parser;
  ConjunctiveQuery q = parser.ParseRule("q(w) :- R(x,y)");
  Structure d(parser.schema(), 3);
  d.AddFact(0, {0, 1});
  AnswerBag bag = q.Evaluate(d);
  EXPECT_EQ(bag.size(), 3u);  // w ranges over the whole domain.
  EXPECT_EQ(bag.at({2}), BigInt(1));
}

TEST(ContainmentTest, HomCriterion) {
  QueryParser parser;
  ConjunctiveQuery q = parser.ParseRule("q() :- R(x,y), R(y,z)");
  ConjunctiveQuery v = parser.ParseRule("v() :- R(a,b)");
  // q ⊆set v: a hom from v's body into q's body exists.
  EXPECT_TRUE(IsContainedSetSemantics(q, v));
  // v ⊄set q in general: q's 2-path cannot map into the single edge... it
  // can (collapse not possible: R(x,y),R(y,z) needs y image to be both head
  // and tail). The frozen body of q is a 2-path; the single edge has no
  // such hom, so v is NOT contained in q... but containment asks for a hom
  // from q's body into v's body.
  EXPECT_FALSE(IsContainedSetSemantics(v, q));
}

TEST(ContainmentTest, LoopContainsEverything) {
  QueryParser parser;
  ConjunctiveQuery loop = parser.ParseRule("l() :- R(x,x)");
  ConjunctiveQuery edge = parser.ParseRule("e() :- R(x,y)");
  EXPECT_TRUE(IsContainedSetSemantics(loop, edge));
  EXPECT_FALSE(IsContainedSetSemantics(edge, loop));
}

TEST(ContainmentTest, RequiresBoolean) {
  QueryParser parser;
  ConjunctiveQuery q = parser.ParseRule("q(x) :- R(x,y)");
  ConjunctiveQuery v = parser.ParseRule("v() :- R(x,y)");
  EXPECT_THROW(IsContainedSetSemantics(q, v), std::invalid_argument);
}

TEST(UcqTest, CountIsSumIncludingDuplicates) {
  QueryParser parser;
  ConjunctiveQuery p = parser.ParseRule("u() :- P(x)");
  // The paper's UCQs are multisets of disjuncts: duplicates add up.
  UnionQuery u("u", {p, p});
  Structure d(parser.schema());
  d.AddFact(0, {0});
  d.AddFact(0, {1});
  EXPECT_EQ(u.Count(d), BigInt(4));  // 2 + 2.
}

TEST(UcqTest, Example3BagDeterminacyIdentity) {
  // Example 3 of the paper: q = ∃x R(x); v1 = ∃x P(x);
  // v2 = ∃x P(x) ∨ ∃x R(x). Under bag semantics q(D) = v2(D) − v1(D).
  QueryParser parser;
  ConjunctiveQuery q = parser.ParseRule("q() :- R(x)");
  ConjunctiveQuery v1 = parser.ParseRule("v1() :- P(x)");
  UnionQuery v2("v2", {parser.ParseRule("v2a() :- P(x)"),
                       parser.ParseRule("v2b() :- R(x)")});
  RelationId r = *parser.schema()->Find("R");
  RelationId p = *parser.schema()->Find("P");
  for (int np = 0; np < 4; ++np) {
    for (int nr = 0; nr < 4; ++nr) {
      Structure d(parser.schema());
      for (int i = 0; i < np; ++i) d.AddFact(p, {d.AddElement()});
      for (int i = 0; i < nr; ++i) d.AddFact(r, {d.AddElement()});
      EXPECT_EQ(q.CountHomomorphisms(d),
                v2.Count(d) - v1.CountHomomorphisms(d));
    }
  }
}

TEST(UcqTest, AnswerBagsMergeAcrossDisjuncts) {
  QueryParser parser;
  ConjunctiveQuery a = parser.ParseRule("u(x) :- P(x)");
  ConjunctiveQuery b = parser.ParseRule("u(x) :- Q(x)");
  UnionQuery u("u", {a, b});
  Structure d(parser.schema());
  d.AddFact(*parser.schema()->Find("P"), {0});
  d.AddFact(*parser.schema()->Find("Q"), {0});
  d.EnsureDomain(1);
  AnswerBag bag = u.Evaluate(d);
  EXPECT_EQ(bag.at({0}), BigInt(2));
}

TEST(AnswerBagTest, EqualityIsMultisetEquality) {
  AnswerBag a;
  AnswerBag b;
  a[{0}] = BigInt(2);
  b[{0}] = BigInt(2);
  EXPECT_TRUE(AnswerBagsEqual(a, b));
  b[{0}] = BigInt(3);
  EXPECT_FALSE(AnswerBagsEqual(a, b));
  b[{0}] = BigInt(2);
  b[{1}] = BigInt(1);
  EXPECT_FALSE(AnswerBagsEqual(a, b));
}

}  // namespace
}  // namespace bagdet
