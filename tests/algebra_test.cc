#include <gtest/gtest.h>

#include <map>
#include <set>

#include "algebra/nest_unnest.h"
#include "algebra/operators.h"
#include "tests/test_util.h"

namespace nf2 {
namespace {

FlatRelation Sample() {
  return MakeStringRelation({"A", "B"}, {{"a1", "b1"},
                                         {"a1", "b2"},
                                         {"a2", "b1"},
                                         {"a3", "b3"}});
}

TEST(PredicateTest, FlatComparisons) {
  FlatTuple t{V("a1"), Value::Int(5)};
  EXPECT_TRUE(Predicate::Eq(0, V("a1")).EvalFlat(t));
  EXPECT_FALSE(Predicate::Eq(0, V("a2")).EvalFlat(t));
  EXPECT_TRUE(Predicate::Ne(0, V("a2")).EvalFlat(t));
  EXPECT_TRUE(Predicate::Lt(1, Value::Int(6)).EvalFlat(t));
  EXPECT_TRUE(Predicate::Le(1, Value::Int(5)).EvalFlat(t));
  EXPECT_TRUE(Predicate::Gt(1, Value::Int(4)).EvalFlat(t));
  EXPECT_TRUE(Predicate::Ge(1, Value::Int(5)).EvalFlat(t));
  EXPECT_FALSE(Predicate::Gt(1, Value::Int(5)).EvalFlat(t));
}

TEST(PredicateTest, Connectives) {
  FlatTuple t{V("a1"), V("b1")};
  Predicate p = Predicate::And(Predicate::Eq(0, V("a1")),
                               Predicate::Eq(1, V("b1")));
  EXPECT_TRUE(p.EvalFlat(t));
  Predicate q = Predicate::Or(Predicate::Eq(0, V("zz")),
                              Predicate::Eq(1, V("b1")));
  EXPECT_TRUE(q.EvalFlat(t));
  EXPECT_FALSE(Predicate::Not(q).EvalFlat(t));
  EXPECT_TRUE(Predicate::True().EvalFlat(t));
}

TEST(PredicateTest, NfrExistentialSemantics) {
  NfrTuple t{ValueSet{V("a1"), V("a2")}, ValueSet(V("b1"))};
  EXPECT_TRUE(Predicate::Eq(0, V("a2")).EvalNfrAny(t));
  EXPECT_FALSE(Predicate::Eq(0, V("a3")).EvalNfrAny(t));
  // AND across distinct attributes is exact on cross products.
  Predicate p = Predicate::And(Predicate::Eq(0, V("a1")),
                               Predicate::Eq(1, V("b1")));
  EXPECT_TRUE(p.EvalNfrAny(t));
  EXPECT_TRUE(p.MatchesExpansion(t));
}

TEST(PredicateTest, ExpansionExactnessVsExistential) {
  // A = a1 AND A = a2: exists per-leaf says true, but no single
  // expanded tuple satisfies both — MatchesExpansion is the exact one.
  NfrTuple t{ValueSet{V("a1"), V("a2")}, ValueSet(V("b1"))};
  Predicate p = Predicate::And(Predicate::Eq(0, V("a1")),
                               Predicate::Eq(0, V("a2")));
  EXPECT_TRUE(p.EvalNfrAny(t));          // Documented approximation.
  EXPECT_FALSE(p.MatchesExpansion(t));   // Exact.
}

TEST(PredicateTest, NotSelectsTheRowsItsNegatedComparisonsAdmit) {
  // A = {s0, s2}: the row holding s2 satisfies NOT A < s1 although the
  // row holding s0 does not, so the tuple must survive the pre-filter.
  NfrTuple t{ValueSet{V("s0"), V("s2")}, ValueSet(V("b"))};
  NfrRelation nested(Schema::OfStrings({"A", "B"}), {t});
  const Predicate lt_not = Predicate::Not(Predicate::Lt(0, V("s1")));
  EXPECT_EQ(Select(nested.Expand(), lt_not).size(), 1u);
  EXPECT_TRUE(lt_not.EvalNfrAny(t));
  EXPECT_EQ(SelectNfrExact(nested, lt_not).size(), 1u);
  EXPECT_EQ(SelectNfrTuples(nested, lt_not).size(), 1u);
  // De Morgan: NOT (A = s0 AND B = b) is A != s0 OR B != b, which the
  // s2 row satisfies.
  const Predicate and_not = Predicate::Not(
      Predicate::And(Predicate::Eq(0, V("s0")), Predicate::Eq(1, V("b"))));
  EXPECT_TRUE(and_not.EvalNfrAny(t));
  EXPECT_EQ(SelectNfrExact(nested, and_not).Expand(),
            Select(nested.Expand(), and_not));
  // NOT (A = s0 OR A = s2) is A != s0 AND A != s2 — two comparisons on
  // one attribute, so the pre-filter over-approximates and the
  // row-by-row check keeps the selection exact.
  const Predicate or_not = Predicate::Not(
      Predicate::Or(Predicate::Eq(0, V("s0")), Predicate::Eq(0, V("s2"))));
  EXPECT_TRUE(or_not.EvalNfrAny(t));
  EXPECT_FALSE(or_not.MatchesExpansion(t));
  EXPECT_EQ(SelectNfrExact(nested, or_not).size(), 0u);
  // NOT TRUE admits nothing.
  EXPECT_FALSE(Predicate::Not(Predicate::True()).EvalNfrAny(t));
}

TEST(PredicateTest, SoleAttrAndEvalValue) {
  // NOT (A < 3 OR A = 5) references A alone: on a value it answers as
  // EvalFlat on any row holding that value.
  Predicate p = Predicate::Not(Predicate::Or(
      Predicate::Lt(0, Value::Int(3)), Predicate::Eq(0, Value::Int(5))));
  EXPECT_EQ(p.SoleAttr(), std::optional<size_t>(0));
  for (int64_t v = 0; v < 8; ++v) {
    FlatTuple row{Value::Int(v), V("b")};
    EXPECT_EQ(p.EvalValue(Value::Int(v)), p.EvalFlat(row)) << v;
  }
  EXPECT_EQ(Predicate::Eq(2, V("x")).SoleAttr(), std::optional<size_t>(2));
  EXPECT_FALSE(Predicate::Or(Predicate::Eq(0, V("a")),
                             Predicate::Eq(1, V("b")))
                   .SoleAttr()
                   .has_value());
  EXPECT_FALSE(Predicate::True().SoleAttr().has_value());
}

TEST(PredicateTest, ToString) {
  Schema s = Schema::OfStrings({"A", "B"});
  Predicate p = Predicate::And(Predicate::Eq(0, V("x")),
                               Predicate::Not(Predicate::Lt(1, V("y"))));
  EXPECT_EQ(p.ToString(s), "(A = x AND NOT B < y)");
}

TEST(SelectTest, FiltersTuples) {
  FlatRelation out = Select(Sample(), Predicate::Eq(0, V("a1")));
  EXPECT_EQ(out.size(), 2u);
  for (const FlatTuple& t : out.tuples()) {
    EXPECT_EQ(t.at(0), V("a1"));
  }
}

TEST(ProjectTest, CollapsesDuplicates) {
  FlatRelation out = ProjectRelation(Sample(), {0});
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(out.schema().attribute(0).name, "A");
}

TEST(ProjectTest, ByNameAndErrors) {
  Result<FlatRelation> ok = ProjectByName(Sample(), {"B"});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->size(), 3u);
  EXPECT_FALSE(ProjectByName(Sample(), {"Z"}).ok());
}

TEST(SetOpsTest, UnionDifferenceIntersect) {
  FlatRelation a = MakeStringRelation({"A"}, {{"x"}, {"y"}});
  FlatRelation b = MakeStringRelation({"A"}, {{"y"}, {"z"}});
  Result<FlatRelation> u = Union(a, b);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->size(), 3u);
  Result<FlatRelation> d = Difference(a, b);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->size(), 1u);
  EXPECT_TRUE(d->Contains(FlatTuple{V("x")}));
  Result<FlatRelation> i = Intersect(a, b);
  ASSERT_TRUE(i.ok());
  EXPECT_EQ(i->size(), 1u);
  EXPECT_TRUE(i->Contains(FlatTuple{V("y")}));
}

TEST(SetOpsTest, SchemaMismatchErrors) {
  FlatRelation a = MakeStringRelation({"A"}, {{"x"}});
  FlatRelation b = MakeStringRelation({"B"}, {{"x"}});
  EXPECT_FALSE(Union(a, b).ok());
  EXPECT_FALSE(Difference(a, b).ok());
  EXPECT_FALSE(Intersect(a, b).ok());
}

TEST(ProductTest, CrossesAndChecksNames) {
  FlatRelation a = MakeStringRelation({"A"}, {{"x"}, {"y"}});
  FlatRelation b = MakeStringRelation({"B"}, {{"1"}, {"2"}, {"3"}});
  Result<FlatRelation> p = CartesianProduct(a, b);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->size(), 6u);
  EXPECT_EQ(p->degree(), 2u);
  EXPECT_FALSE(CartesianProduct(a, a).ok());  // Name collision.
}

TEST(NaturalJoinTest, JoinsOnSharedNames) {
  FlatRelation sc = MakeStringRelation({"S", "C"}, {{"s1", "c1"},
                                                    {"s2", "c1"},
                                                    {"s2", "c2"}});
  FlatRelation ct = MakeStringRelation({"C", "T"}, {{"c1", "t1"},
                                                    {"c2", "t2"},
                                                    {"c3", "t3"}});
  FlatRelation joined = NaturalJoin(sc, ct);
  EXPECT_EQ(joined.degree(), 3u);
  EXPECT_EQ(joined.size(), 3u);
  EXPECT_TRUE(joined.Contains(FlatTuple{V("s2"), V("c2"), V("t2")}));
}

TEST(NaturalJoinTest, NoSharedNamesIsCrossProduct) {
  FlatRelation a = MakeStringRelation({"A"}, {{"x"}});
  FlatRelation b = MakeStringRelation({"B"}, {{"1"}, {"2"}});
  EXPECT_EQ(NaturalJoin(a, b).size(), 2u);
}

TEST(RenameTest, RenamesAndValidates) {
  Result<FlatRelation> ok = Rename(Sample(), "A", "X");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->schema().attribute(0).name, "X");
  EXPECT_FALSE(Rename(Sample(), "Z", "Y").ok());
  EXPECT_FALSE(Rename(Sample(), "A", "B").ok());
}

TEST(NfrSelectTest, TupleLevelKeepsWholeTuples) {
  NfrRelation r(Schema::OfStrings({"A", "B"}));
  r.Add(NfrTuple{ValueSet{V("a1"), V("a2")}, ValueSet(V("b1"))});
  r.Add(NfrTuple{ValueSet(V("a3")), ValueSet(V("b2"))});
  NfrRelation out = SelectNfrTuples(r, Predicate::Eq(0, V("a1")));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.tuple(0).at(0), (ValueSet{V("a1"), V("a2")}));
}

TEST(NfrSelectTest, ExactRestrictsExpansion) {
  NfrRelation r(Schema::OfStrings({"A", "B"}));
  r.Add(NfrTuple{ValueSet{V("a1"), V("a2")}, ValueSet(V("b1"))});
  NfrRelation out = SelectNfrExact(r, Predicate::Eq(0, V("a1")));
  EXPECT_EQ(out.Expand(),
            MakeStringRelation({"A", "B"}, {{"a1", "b1"}}));
}

TEST(NfrSelectTest, ExactEqualsFlatSelectOnExpansion) {
  Rng rng(31);
  FlatRelation flat = RandomFlatRelation(&rng, 3, 3, 12);
  NfrRelation nested = CanonicalForm(flat, {0, 1, 2});
  Predicate p = Predicate::Eq(1, V("v1_0"));
  EXPECT_EQ(SelectNfrExact(nested, p).Expand(), Select(flat, p));
}

TEST(NfrProjectTest, DenotesProjectedExpansion) {
  NfrRelation r(Schema::OfStrings({"A", "B", "C"}));
  r.Add(NfrTuple{ValueSet{V("a1"), V("a2")}, ValueSet(V("b1")),
                 ValueSet(V("c1"))});
  r.Add(NfrTuple{ValueSet{V("a1"), V("a2")}, ValueSet(V("b2")),
                 ValueSet(V("c1"))});
  NfrRelation out = ProjectNfr(r, {0, 2});
  // The two tuples project identically and must collapse.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.Expand(), MakeStringRelation({"A", "C"}, {{"a1", "c1"},
                                                          {"a2", "c1"}}));
}

TEST(GroupedCountsTest, CountsComponentSizes) {
  // [Student, Course] nested per student: counts are component sizes.
  FlatRelation flat = MakeStringRelation(
      {"Student", "Course"},
      {{"s1", "c1"}, {"s1", "c2"}, {"s1", "c3"}, {"s2", "c1"}});
  NfrRelation nested = CanonicalForm(flat, {1, 0});
  Result<std::vector<GroupCount>> counts =
      GroupedDistinctCounts(nested, 0, 1);
  ASSERT_TRUE(counts.ok());
  ASSERT_EQ(counts->size(), 2u);
  EXPECT_EQ((*counts)[0], (GroupCount{V("s1"), 3}));
  EXPECT_EQ((*counts)[1], (GroupCount{V("s2"), 1}));
}

TEST(GroupedCountsTest, AgreesWithFlatAggregation) {
  // The NFR aggregate equals the count computed over R* directly, for
  // any nesting state of the relation.
  Rng rng(41);
  for (int trial = 0; trial < 10; ++trial) {
    FlatRelation flat = RandomFlatRelation(&rng, 3, 3, 14);
    for (const Permutation& perm : AllPermutations(3)) {
      NfrRelation nested = CanonicalForm(flat, perm);
      Result<std::vector<GroupCount>> counts =
          GroupedDistinctCounts(nested, 0, 2);
      ASSERT_TRUE(counts.ok());
      // Flat reference.
      std::map<Value, std::set<Value>> reference;
      for (const FlatTuple& t : flat.tuples()) {
        reference[t.at(0)].insert(t.at(2));
      }
      ASSERT_EQ(counts->size(), reference.size());
      for (const GroupCount& gc : *counts) {
        EXPECT_EQ(gc.count, reference[gc.group].size())
            << gc.group.ToString();
      }
    }
  }
}

TEST(GroupedCountsTest, Errors) {
  NfrRelation rel(Schema::OfStrings({"A", "B"}));
  EXPECT_FALSE(GroupedDistinctCounts(rel, 0, 0).ok());
  EXPECT_FALSE(GroupedDistinctCounts(rel, 0, 5).ok());
  EXPECT_FALSE(GroupedDistinctCounts(rel, 9, 0).ok());
  Result<std::vector<GroupCount>> empty = GroupedDistinctCounts(rel, 0, 1);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(NestUnnestByNameTest, RoundTrip) {
  FlatRelation flat = Sample();
  NfrRelation start = NfrRelation::FromFlat(flat);
  Result<NfrRelation> nested = NestByName(start, "A");
  ASSERT_TRUE(nested.ok());
  EXPECT_LT(nested->size(), flat.size());
  Result<NfrRelation> unnested = UnnestByName(*nested, "A");
  ASSERT_TRUE(unnested.ok());
  EXPECT_EQ(unnested->Expand(), flat);
  EXPECT_FALSE(NestByName(start, "Z").ok());
  EXPECT_FALSE(UnnestByName(start, "Z").ok());
}

TEST(NestUnnestByNameTest, SequenceAndCanonical) {
  FlatRelation flat = Sample();
  Result<NfrRelation> canonical = CanonicalFormByName(flat, {"B", "A"});
  ASSERT_TRUE(canonical.ok());
  Result<NfrRelation> sequence =
      NestSequenceByName(NfrRelation::FromFlat(flat), {"B", "A"});
  ASSERT_TRUE(sequence.ok());
  EXPECT_TRUE(canonical->EqualsAsSet(*sequence));
  EXPECT_FALSE(CanonicalFormByName(flat, {"B"}).ok());  // Not a perm.
}

}  // namespace
}  // namespace nf2
