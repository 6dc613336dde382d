// Cross-cutting property-based tests: algebraic laws the paper's
// machinery must satisfy on arbitrary relations, swept over seeds with
// TEST_P. These complement the per-module tests with deeper invariants.

#include <gtest/gtest.h>

#include "algebra/operators.h"
#include "core/compose.h"
#include "core/fixedness.h"
#include "core/irreducible.h"
#include "core/nest.h"
#include "core/update.h"
#include "dependency/mvd.h"
#include "dependency/normalize.h"
#include "storage/serde.h"
#include "tests/test_util.h"

namespace nf2 {
namespace {

class PropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  FlatRelation Random(size_t degree, size_t domain, size_t rows,
                      uint64_t salt = 0) {
    Rng rng(GetParam() * 1315423911u + salt);
    return RandomFlatRelation(&rng, degree, domain, rows);
  }
};

// ---- Composition / decomposition laws ---------------------------------

TEST_P(PropertyTest, RandomDecomposeSequencePreservesExpansion) {
  // Any sequence of decompositions partitions R*: total expansion is
  // invariant and tuples stay pairwise disjoint.
  FlatRelation flat = Random(3, 3, 10);
  NfrRelation rel = CanonicalForm(flat, {0, 1, 2});
  Rng rng(GetParam() + 99);
  for (int step = 0; step < 12 && rel.size() > 0; ++step) {
    size_t idx = rng.NextBelow(rel.size());
    const NfrTuple& t = rel.tuple(idx);
    // Pick a compound component to split, if any.
    std::vector<size_t> compound;
    for (size_t a = 0; a < t.degree(); ++a) {
      if (!t.at(a).IsSingleton()) compound.push_back(a);
    }
    if (compound.empty()) continue;
    size_t attr = compound[rng.NextBelow(compound.size())];
    const Value v = t.at(attr)[rng.NextBelow(t.at(attr).size())];
    Result<Decomposition> split = Decompose(t, attr, v);
    ASSERT_TRUE(split.ok());
    rel.RemoveAt(idx);
    rel.Add(split->extracted);
    rel.Add(split->remainder);
    ASSERT_TRUE(rel.Validate().ok());
    ASSERT_EQ(rel.Expand(), flat);
  }
}

TEST_P(PropertyTest, GreedyRecompositionRecoversSomeIrreducible) {
  // After arbitrary decomposition churn, reduction still reaches an
  // irreducible form with the same R*.
  FlatRelation flat = Random(3, 3, 12, 1);
  NfrRelation shredded = NfrRelation::FromFlat(flat);  // Fully split.
  NfrRelation reduced = ReduceGreedy(shredded);
  EXPECT_TRUE(IsIrreducible(reduced));
  EXPECT_EQ(reduced.Expand(), flat);
  EXPECT_LE(reduced.size(), flat.size());
}

// ---- Nest / canonical laws ---------------------------------------------

TEST_P(PropertyTest, CanonicalFormIsIdempotent) {
  FlatRelation flat = Random(3, 3, 14, 2);
  for (const Permutation& perm : AllPermutations(3)) {
    NfrRelation canonical = CanonicalForm(flat, perm);
    NfrRelation again = NestSequence(canonical, perm);
    EXPECT_TRUE(canonical.EqualsAsSet(again));
  }
}

TEST_P(PropertyTest, AnyNestSequencePreservesInformation) {
  FlatRelation flat = Random(4, 2, 12, 3);
  Rng rng(GetParam() + 777);
  NfrRelation rel = NfrRelation::FromFlat(flat);
  for (int step = 0; step < 8; ++step) {
    size_t attr = rng.NextBelow(4);
    rel = rng.NextBool() ? NestOn(rel, attr) : UnnestOn(rel, attr);
    ASSERT_EQ(rel.Expand(), flat) << "step " << step;
    ASSERT_TRUE(rel.Validate().ok());
  }
}

TEST_P(PropertyTest, CanonicalNeverLargerThanFlat) {
  FlatRelation flat = Random(3, 4, 16, 4);
  for (const Permutation& perm : AllPermutations(3)) {
    EXPECT_LE(CanonicalForm(flat, perm).size(), flat.size());
  }
}

TEST_P(PropertyTest, IrreducibleAtMostCanonicalMinimum) {
  FlatRelation flat = Random(3, 2, 7, 5);
  Result<NfrRelation> minimal = MinimalIrreducible(flat);
  ASSERT_TRUE(minimal.ok());
  EXPECT_LE(minimal->size(), MinCanonicalSize(flat));
}

// ---- Fixedness laws -----------------------------------------------------

TEST_P(PropertyTest, FixednessIsMonotoneInAttributes) {
  // Fixed on F implies fixed on every superset of F.
  FlatRelation flat = Random(3, 3, 10, 6);
  NfrRelation rel = CanonicalForm(flat, {1, 0, 2});
  for (uint64_t mask = 1; mask < 8; ++mask) {
    AttrSet f;
    for (size_t i = 0; i < 3; ++i) {
      if ((mask >> i) & 1) f.Add(i);
    }
    if (!IsFixedOn(rel, f)) continue;
    for (uint64_t super = mask; super < 8; ++super) {
      if ((super & mask) != mask) continue;
      AttrSet g;
      for (size_t i = 0; i < 3; ++i) {
        if ((super >> i) & 1) g.Add(i);
      }
      EXPECT_TRUE(IsFixedOn(rel, g))
          << "fixed on " << mask << " but not superset " << super;
    }
  }
}

// ---- Dependency laws ----------------------------------------------------

TEST_P(PropertyTest, ArmstrongAxiomsHoldInClosure) {
  Rng rng(GetParam() + 31);
  FdSet fds(5);
  for (int i = 0; i < 4; ++i) {
    AttrSet lhs, rhs;
    lhs.Add(rng.NextBelow(5));
    if (rng.NextBool()) lhs.Add(rng.NextBelow(5));
    rhs.Add(rng.NextBelow(5));
    fds.Add(lhs, rhs);
  }
  // Reflexivity: X -> X' for X' ⊆ X.
  AttrSet x{0, 2};
  EXPECT_TRUE(fds.Implies(Fd{x, AttrSet{2}}));
  // Augmentation: if X->Y then XZ->YZ.
  for (const Fd& fd : fds.fds()) {
    AttrSet z{4};
    EXPECT_TRUE(fds.Implies(Fd{fd.lhs.Union(z), fd.rhs.Union(z)}));
  }
  // Transitivity via closure: closure is itself closed.
  AttrSet closure = fds.Closure(x);
  EXPECT_EQ(fds.Closure(closure), closure);
}

TEST_P(PropertyTest, MvdComplementationLaw) {
  // X ->-> Y holds iff X ->-> (U - X - Y) holds.
  FlatRelation flat = Random(3, 3, 10, 7);
  Mvd mvd{AttrSet{0}, AttrSet{1}};
  Mvd complement{AttrSet{0}, AttrSet{2}};
  EXPECT_EQ(Satisfies(flat, mvd), Satisfies(flat, complement));
}

TEST_P(PropertyTest, FaginTheoremBinaryJoin) {
  // X ->-> Y holds iff R = R[XY] |x| R[XZ].
  FlatRelation flat = Random(3, 3, 10, 8);
  Mvd mvd{AttrSet{0}, AttrSet{1}};
  FlatRelation xy = ProjectRelation(flat, {0, 1});
  FlatRelation xz = ProjectRelation(flat, {0, 2});
  FlatRelation joined = NaturalJoin(xy, xz);
  EXPECT_EQ(Satisfies(flat, mvd), joined == flat);
}

TEST_P(PropertyTest, MinimalCoverPreservesClosure) {
  Rng rng(GetParam() + 61);
  FdSet fds(4);
  for (int i = 0; i < 5; ++i) {
    AttrSet lhs, rhs;
    lhs.Add(rng.NextBelow(4));
    lhs.Add(rng.NextBelow(4));
    rhs.Add(rng.NextBelow(4));
    fds.Add(lhs, rhs);
  }
  FdSet cover = fds.MinimalCover();
  for (uint64_t mask = 0; mask < 16; ++mask) {
    AttrSet x;
    for (size_t i = 0; i < 4; ++i) {
      if ((mask >> i) & 1) x.Add(i);
    }
    EXPECT_EQ(fds.Closure(x), cover.Closure(x)) << "mask " << mask;
  }
}

TEST_P(PropertyTest, Synthesize3NFIsDependencyPreserving) {
  Rng rng(GetParam() + 71);
  FdSet fds(4);
  for (int i = 0; i < 3; ++i) {
    AttrSet lhs, rhs;
    lhs.Add(rng.NextBelow(4));
    rhs.Add(rng.NextBelow(4));
    if (lhs == rhs) continue;
    fds.Add(lhs, rhs);
  }
  std::vector<SubScheme> schemes = Synthesize3NF(fds);
  // The union of the schemes' FDs implies every original FD.
  FdSet combined(4);
  for (const SubScheme& scheme : schemes) {
    for (const Fd& fd : scheme.fds) {
      combined.Add(fd);
    }
  }
  for (const Fd& fd : fds.fds()) {
    EXPECT_TRUE(combined.Implies(fd));
  }
}

// ---- Algebra laws ---------------------------------------------------------

TEST_P(PropertyTest, SelectCommutesWithUnion) {
  FlatRelation a = Random(2, 4, 8, 9);
  FlatRelation b = Random(2, 4, 8, 10);
  Predicate p = Predicate::Eq(0, V("v0_1"));
  Result<FlatRelation> u = Union(a, b);
  ASSERT_TRUE(u.ok());
  Result<FlatRelation> lhs = Union(Select(a, p), Select(b, p));
  ASSERT_TRUE(lhs.ok());
  EXPECT_EQ(Select(*u, p), *lhs);
}

TEST_P(PropertyTest, SelectOnNfrEqualsSelectOnFlat) {
  FlatRelation flat = Random(3, 3, 14, 11);
  NfrRelation nested = CanonicalForm(flat, {2, 0, 1});
  Rng rng(GetParam() + 4);
  // The NOT-ed comparisons meet multi-valued components, where a
  // tuple holds rows on both sides of the bound.
  Predicate p = Predicate::Or(
      Predicate::And(
          Predicate::Eq(0, V(StrCat("v0_", rng.NextBelow(3)).c_str())),
          Predicate::Not(Predicate::Lt(
              1, V(StrCat("v1_", rng.NextBelow(3)).c_str())))),
      Predicate::Not(Predicate::Or(
          Predicate::Eq(2, V(StrCat("v2_", rng.NextBelow(3)).c_str())),
          Predicate::Ge(0, V(StrCat("v0_", rng.NextBelow(3)).c_str())))));
  EXPECT_EQ(SelectNfrExact(nested, p).Expand(), Select(flat, p));
}

TEST_P(PropertyTest, ProjectNfrDenotesProjectedExpansion) {
  FlatRelation flat = Random(3, 3, 12, 12);
  NfrRelation nested = CanonicalForm(flat, {0, 2, 1});
  NfrRelation projected = ProjectNfr(nested, {1, 0});
  EXPECT_EQ(projected.Expand(), ProjectRelation(flat, {1, 0}));
}

TEST_P(PropertyTest, DifferenceThenUnionRestores) {
  FlatRelation a = Random(2, 4, 10, 13);
  FlatRelation b = Random(2, 4, 10, 14);
  Result<FlatRelation> diff = Difference(a, b);
  Result<FlatRelation> inter = Intersect(a, b);
  ASSERT_TRUE(diff.ok() && inter.ok());
  Result<FlatRelation> restored = Union(*diff, *inter);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, a);
}

// ---- Serialization totality ---------------------------------------------

TEST_P(PropertyTest, SerdeRoundTripsArbitraryRelations) {
  Rng rng(GetParam() + 5);
  // Mixed-type schema including set values.
  Schema schema({{"S", ValueType::kString},
                 {"I", ValueType::kInt},
                 {"T", ValueType::kSet}});
  FlatRelation flat(schema);
  for (int i = 0; i < 10; ++i) {
    flat.Insert(FlatTuple{
        V(StrCat("s", rng.NextBelow(4)).c_str()),
        Value::Int(rng.NextInRange(-5, 5)),
        Value::SetOf({V(StrCat("t", rng.NextBelow(3)).c_str()),
                      Value::Int(rng.NextInRange(0, 2))})});
  }
  NfrRelation nested = CanonicalForm(flat, {2, 1, 0});
  BufferWriter w;
  EncodeNfrRelation(nested, &w);
  BufferReader r(w.data());
  Result<NfrRelation> back = DecodeNfrRelation(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->EqualsAsSet(nested));
}

// ---- Update-algorithm laws ------------------------------------------------

TEST_P(PropertyTest, InsertDeleteIsIdentity) {
  FlatRelation flat = Random(3, 3, 12, 15);
  Permutation perm{1, 2, 0};
  Result<CanonicalRelation> rel = CanonicalRelation::FromFlat(flat, perm);
  ASSERT_TRUE(rel.ok());
  NfrRelation before = rel->relation();
  FlatTuple probe{V("fresh_a"), V("fresh_b"), V("fresh_c")};
  ASSERT_TRUE(rel->Insert(probe).ok());
  ASSERT_TRUE(rel->Delete(probe).ok());
  EXPECT_TRUE(rel->relation().EqualsAsSet(before));
}

TEST_P(PropertyTest, DeleteInsertIsIdentity) {
  FlatRelation flat = Random(3, 3, 12, 16);
  if (flat.empty()) return;
  Permutation perm{0, 2, 1};
  Result<CanonicalRelation> rel = CanonicalRelation::FromFlat(flat, perm);
  ASSERT_TRUE(rel.ok());
  NfrRelation before = rel->relation();
  Rng rng(GetParam() + 6);
  FlatTuple victim = flat.tuple(rng.NextBelow(flat.size()));
  ASSERT_TRUE(rel->Delete(victim).ok());
  ASSERT_TRUE(rel->Insert(victim).ok());
  EXPECT_TRUE(rel->relation().EqualsAsSet(before));
}

TEST_P(PropertyTest, InsertionOrderIrrelevant) {
  // Theorem 2 consequence: building by incremental inserts in any order
  // yields the same canonical relation.
  FlatRelation flat = Random(3, 3, 10, 17);
  Permutation perm{2, 1, 0};
  std::vector<FlatTuple> tuples = flat.tuples();
  Rng rng(GetParam() + 7);
  rng.Shuffle(&tuples);
  CanonicalRelation shuffled(flat.schema(), perm);
  for (const FlatTuple& t : tuples) {
    ASSERT_TRUE(shuffled.Insert(t).ok());
  }
  EXPECT_TRUE(shuffled.relation().EqualsAsSet(CanonicalForm(flat, perm)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest,
                         ::testing::Range<uint64_t>(0, 15));

}  // namespace
}  // namespace nf2
