#include <gtest/gtest.h>

#include "core/update.h"
#include "tests/test_util.h"

namespace nf2 {
namespace {

FlatTuple Flat2(const char* a, const char* b) {
  return FlatTuple{V(a), V(b)};
}


TEST(CanonicalRelationTest, EmptyStart) {
  CanonicalRelation r(Schema::OfStrings({"A", "B"}), {0, 1});
  EXPECT_EQ(r.size(), 0u);
  EXPECT_FALSE(r.Contains(Flat2("a", "b")));
}

TEST(CanonicalRelationTest, FromFlatMatchesCanonicalForm) {
  Rng rng(1);
  FlatRelation flat = RandomFlatRelation(&rng, 3, 3, 15);
  Permutation perm{2, 0, 1};
  Result<CanonicalRelation> r = CanonicalRelation::FromFlat(flat, perm);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->relation().EqualsAsSet(CanonicalForm(flat, perm)));
}

TEST(CanonicalRelationTest, FromFlatRejectsBadPermutation) {
  FlatRelation flat(Schema::OfStrings({"A", "B"}));
  EXPECT_FALSE(CanonicalRelation::FromFlat(flat, {0}).ok());
  EXPECT_FALSE(CanonicalRelation::FromFlat(flat, {0, 0}).ok());
}

TEST(CanonicalRelationTest, InsertIntoEmpty) {
  CanonicalRelation r(Schema::OfStrings({"A", "B"}), {0, 1});
  ASSERT_TRUE(r.Insert(Flat2("a1", "b1")).ok());
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.Contains(Flat2("a1", "b1")));
}

TEST(CanonicalRelationTest, InsertMergesIntoGroup) {
  // Nest A first: inserting a second student of the same course joins
  // the existing group.
  CanonicalRelation r(Schema::OfStrings({"A", "B"}), {0, 1});
  ASSERT_TRUE(r.Insert(Flat2("a1", "b1")).ok());
  ASSERT_TRUE(r.Insert(Flat2("a2", "b1")).ok());
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(r.relation().tuple(0),
            (NfrTuple{ValueSet{V("a1"), V("a2")}, ValueSet(V("b1"))}));
}

TEST(CanonicalRelationTest, InsertDuplicateErrors) {
  CanonicalRelation r(Schema::OfStrings({"A", "B"}), {0, 1});
  ASSERT_TRUE(r.Insert(Flat2("a1", "b1")).ok());
  Status s = r.Insert(Flat2("a1", "b1"));
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(r.size(), 1u);
}

TEST(CanonicalRelationTest, InsertDegreeMismatchErrors) {
  CanonicalRelation r(Schema::OfStrings({"A", "B"}), {0, 1});
  EXPECT_EQ(r.Insert(FlatTuple{V("a")}).code(),
            StatusCode::kInvalidArgument);
}

TEST(CanonicalRelationTest, DeleteMissingErrors) {
  CanonicalRelation r(Schema::OfStrings({"A", "B"}), {0, 1});
  EXPECT_EQ(r.Delete(Flat2("a1", "b1")).code(), StatusCode::kNotFound);
}

TEST(CanonicalRelationTest, InsertThenDeleteRestoresEmpty) {
  CanonicalRelation r(Schema::OfStrings({"A", "B"}), {1, 0});
  ASSERT_TRUE(r.Insert(Flat2("a1", "b1")).ok());
  ASSERT_TRUE(r.Delete(Flat2("a1", "b1")).ok());
  EXPECT_EQ(r.size(), 0u);
}

TEST(CanonicalRelationTest, DeleteSplitsGroup) {
  // [A(a1,a2,a3) B(b1)] minus (a2,b1) -> [A(a1,a3) B(b1)].
  FlatRelation flat = MakeStringRelation(
      {"A", "B"}, {{"a1", "b1"}, {"a2", "b1"}, {"a3", "b1"}});
  Result<CanonicalRelation> r = CanonicalRelation::FromFlat(flat, {0, 1});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  ASSERT_TRUE(r->Delete(Flat2("a2", "b1")).ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ(r->relation().tuple(0),
            (NfrTuple{ValueSet{V("a1"), V("a3")}, ValueSet(V("b1"))}));
}

TEST(CanonicalRelationTest, DeleteTriggersRemerge) {
  // R* = {(a1,b1),(a1,b2),(a2,b1)}; canonical nest A-first:
  //   [A(a1) B(... wait: nest A first groups by B: b1->{a1,a2},
  //   b2->{a1}] = {[A(a1,a2) B(b1)], [A(a1) B(b2)]}.
  // Deleting (a2,b1) leaves groups b1->{a1}, b2->{a1}; nesting B then
  // merges them into [A(a1) B(b1,b2)].
  FlatRelation flat = MakeStringRelation(
      {"A", "B"}, {{"a1", "b1"}, {"a1", "b2"}, {"a2", "b1"}});
  Result<CanonicalRelation> r = CanonicalRelation::FromFlat(flat, {0, 1});
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->Delete(Flat2("a2", "b1")).ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ(r->relation().tuple(0),
            (NfrTuple{ValueSet(V("a1")), ValueSet{V("b1"), V("b2")}}));
}

TEST(CanonicalRelationTest, InsertTriggersCascadedMerge) {
  // Mirror image of DeleteTriggersRemerge: inserting the bridging tuple
  // splits a group and re-merges at a later nest level.
  FlatRelation flat = MakeStringRelation(
      {"A", "B"}, {{"a1", "b1"}, {"a1", "b2"}});
  Result<CanonicalRelation> r = CanonicalRelation::FromFlat(flat, {0, 1});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);  // [A(a1) B(b1,b2)].
  ASSERT_TRUE(r->Insert(Flat2("a2", "b1")).ok());
  NfrRelation expected(flat.schema());
  expected.Add(NfrTuple{ValueSet{V("a1"), V("a2")}, ValueSet(V("b1"))});
  expected.Add(NfrTuple{ValueSet(V("a1")), ValueSet(V("b2"))});
  EXPECT_TRUE(r->relation().EqualsAsSet(expected))
      << r->relation().ToString();
}

TEST(CanonicalRelationTest, StatsAccumulate) {
  CanonicalRelation r(Schema::OfStrings({"A", "B"}), {0, 1});
  ASSERT_TRUE(r.Insert(Flat2("a1", "b1")).ok());
  ASSERT_TRUE(r.Insert(Flat2("a2", "b1")).ok());
  EXPECT_GT(r.stats().recons_calls, 0u);
  EXPECT_GT(r.stats().compositions, 0u);
  UpdateStats before = r.stats();
  ASSERT_TRUE(r.Insert(Flat2("a3", "b1")).ok());
  UpdateStats delta = r.stats() - before;
  EXPECT_GE(delta.compositions, 1u);
}

TEST(CanonicalRelationTest, UpdateStatsToString) {
  UpdateStats s;
  s.compositions = 3;
  EXPECT_NE(s.ToString().find("compositions=3"), std::string::npos);
  s.Reset();
  EXPECT_EQ(s.compositions, 0u);
}

// ---- The paper's central claim, fuzzed --------------------------------
//
// After every Insert/Delete, the maintained relation must equal the
// canonical form of R* +/- t recomputed from scratch (V_P(R* + r) in
// §4.2). Parameterized over seeds; each seed drives a random workload
// over a random permutation.
class UpdateOracleTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t>> {};

TEST_P(UpdateOracleTest, RandomWorkloadMatchesNestFromScratch) {
  auto [seed, degree] = GetParam();
  Rng rng(seed);
  std::vector<std::string> names;
  for (size_t i = 0; i < degree; ++i) names.push_back(StrCat("E", i + 1));
  Schema schema = Schema::OfStrings(names);

  Permutation perm = IdentityPermutation(degree);
  rng.Shuffle(&perm);

  CanonicalRelation maintained(schema, perm);
  FlatRelation reference(schema);

  const size_t domain = 3;
  auto random_tuple = [&]() {
    std::vector<Value> values;
    for (size_t i = 0; i < degree; ++i) {
      values.push_back(
          Value::String(StrCat("v", i, "_", rng.NextBelow(domain))));
    }
    return FlatTuple(std::move(values));
  };

  for (int step = 0; step < 60; ++step) {
    FlatTuple t = random_tuple();
    bool do_insert = rng.NextBool(0.65) || reference.empty();
    if (do_insert) {
      Status s = maintained.Insert(t);
      if (reference.Contains(t)) {
        EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
      } else {
        ASSERT_TRUE(s.ok()) << s << " inserting " << t.ToString();
        reference.Insert(t);
      }
    } else {
      // Delete a tuple actually present half the time.
      if (!reference.empty() && rng.NextBool(0.8)) {
        t = reference.tuple(rng.NextBelow(reference.size()));
      }
      Status s = maintained.Delete(t);
      if (reference.Contains(t)) {
        ASSERT_TRUE(s.ok()) << s << " deleting " << t.ToString();
        reference.Erase(t);
      } else {
        EXPECT_EQ(s.code(), StatusCode::kNotFound);
      }
    }
    NfrRelation oracle = CanonicalForm(reference, perm);
    ASSERT_TRUE(maintained.relation().EqualsAsSet(oracle))
        << "step " << step << " after "
        << (do_insert ? "insert " : "delete ") << t.ToString()
        << "\nmaintained:\n" << maintained.relation().ToString()
        << "oracle:\n" << oracle.ToString();
    ASSERT_TRUE(maintained.relation().Validate().ok());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, UpdateOracleTest,
    ::testing::Combine(::testing::Range<uint64_t>(0, 12),
                       ::testing::Values<size_t>(2, 3, 4)));

// ---- Lemma A-1: at most one candidate tuple per attribute -------------
//
// Re-derives the candidate condition from its definition and counts
// candidates on random canonical relations: for every simple tuple t
// and every nest position m there is at most one tuple s that agrees
// exactly with t on earlier-nested attributes, covers it on
// later-nested ones, and is disjoint on the m-th.
class LemmaA1Test : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LemmaA1Test, AtMostOneCandidatePerPosition) {
  Rng rng(GetParam());
  FlatRelation flat = RandomFlatRelation(&rng, 3, 3, 15);
  Permutation perm = IdentityPermutation(3);
  rng.Shuffle(&perm);
  NfrRelation canonical = CanonicalForm(flat, perm);
  for (int probe = 0; probe < 20; ++probe) {
    FlatTuple t{V(StrCat("v0_", rng.NextBelow(4)).c_str()),
                V(StrCat("v1_", rng.NextBelow(4)).c_str()),
                V(StrCat("v2_", rng.NextBelow(4)).c_str())};
    if (canonical.ExpansionContains(t)) continue;
    NfrTuple nfr_t = NfrTuple::FromFlat(t);
    for (size_t m = 0; m < 3; ++m) {
      int candidates = 0;
      for (const NfrTuple& s : canonical.tuples()) {
        bool match = true;
        for (size_t k = 0; k < 3 && match; ++k) {
          size_t attr = perm[k];
          if (k < m) {
            match = s.at(attr) == nfr_t.at(attr);
          } else if (k == m) {
            match = s.at(attr).IsDisjointFrom(nfr_t.at(attr));
          } else {
            match = nfr_t.at(attr).IsSubsetOf(s.at(attr));
          }
        }
        candidates += match;
      }
      EXPECT_LE(candidates, 1)
          << "Lemma A-1 violated at position " << m << " for "
          << t.ToString() << "\n"
          << canonical.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LemmaA1Test,
                         ::testing::Range<uint64_t>(0, 20));

// ---- Theorem A-4: composition count independent of |R| ---------------
TEST(UpdateComplexityTest, CompositionCountIndependentOfRelationSize) {
  // Build canonical relations of widely different sizes and compare the
  // per-operation composition counts; Theorem A-4 says they depend on
  // the degree only. We use a key-like first attribute so the relation
  // grows linearly.
  Schema schema = Schema::OfStrings({"K", "X", "Y"});
  Permutation perm{2, 1, 0};  // Nest the non-key attributes first.
  std::vector<uint64_t> per_op_compositions;
  for (size_t n : {50u, 500u, 5000u}) {
    CanonicalRelation r(schema, perm);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(r.Insert(FlatTuple{V(StrCat("k", i).c_str()),
                                     V(StrCat("x", i % 7).c_str()),
                                     V(StrCat("y", i % 5).c_str())})
                      .ok());
    }
    UpdateStats before = r.stats();
    for (size_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(r.Insert(FlatTuple{V(StrCat("nk", i).c_str()),
                                     V("x1"), V("y1")})
                      .ok());
    }
    per_op_compositions.push_back(
        (r.stats() - before).compositions);
  }
  // Identical workload shape => identical composition counts at every
  // relation size.
  EXPECT_EQ(per_op_compositions[0], per_op_compositions[1]);
  EXPECT_EQ(per_op_compositions[1], per_op_compositions[2]);
}

TEST(UpdateComplexityTest, RebuildBaselinesAgreeWithIncremental) {
  Rng rng(99);
  FlatRelation flat = RandomFlatRelation(&rng, 3, 3, 20);
  Permutation perm{1, 2, 0};
  Result<CanonicalRelation> r = CanonicalRelation::FromFlat(flat, perm);
  ASSERT_TRUE(r.ok());
  FlatTuple extra{V("zz"), V("v1_0"), V("v2_0")};
  if (!flat.Contains(extra)) {
    NfrRelation rebuilt =
        RebuildCanonicalAfterInsert(r->relation(), extra, perm);
    ASSERT_TRUE(r->Insert(extra).ok());
    EXPECT_TRUE(r->relation().EqualsAsSet(rebuilt));
    NfrRelation rebuilt_del =
        RebuildCanonicalAfterDelete(r->relation(), extra, perm);
    ASSERT_TRUE(r->Delete(extra).ok());
    EXPECT_TRUE(r->relation().EqualsAsSet(rebuilt_del));
  }
}

// ---- Figures 1 and 2: the paper's motivating update ------------------
TEST(Fig1Fig2Test, DroppingStudentCourseFromR1AndR2) {
  // R1[Student, Course, Club] has MVD Student ->-> Course | Club, so its
  // natural canonical form keeps one tuple per student. R2[Student,
  // Course, Semester] has no such MVD. Dropping (s1, c1, *) is a simple
  // value removal in R1 but forces a split-and-recompose in R2 — the
  // exact scenario of Fig. 1 -> Fig. 2.
  FlatRelation r1_flat = MakeStringRelation(
      {"Student", "Course", "Club"},
      {{"s1", "c1", "b1"}, {"s1", "c2", "b1"}, {"s1", "c3", "b1"},
       {"s2", "c1", "b2"}, {"s2", "c2", "b2"}, {"s2", "c3", "b2"},
       {"s3", "c1", "b1"}, {"s3", "c2", "b1"}, {"s3", "c3", "b1"}});
  // Nest Course first, then Club, then Student: tuples grouped per
  // student (fixed on Student).
  Result<Permutation> p1 =
      PermutationFromNames(r1_flat.schema(), {"Course", "Club", "Student"});
  ASSERT_TRUE(p1.ok());
  Result<CanonicalRelation> r1 = CanonicalRelation::FromFlat(r1_flat, *p1);
  ASSERT_TRUE(r1.ok());

  // Fig. 2 step in R1: remove value c1 from s1's course set.
  ASSERT_TRUE(r1->Delete(FlatTuple{V("s1"), V("c1"), V("b1")}).ok());
  size_t idx = r1->relation().FindContaining(
      FlatTuple{V("s1"), V("c2"), V("b1")});
  ASSERT_LT(idx, r1->relation().size());
  EXPECT_EQ(r1->relation().tuple(idx).at(1), (ValueSet{V("c2"), V("c3")}));

  // R2 from Fig. 1.
  FlatRelation r2_flat = MakeStringRelation(
      {"Student", "Course", "Semester"},
      {{"s1", "c1", "t1"}, {"s2", "c1", "t1"}, {"s3", "c1", "t1"},
       {"s1", "c2", "t1"}, {"s2", "c2", "t1"}, {"s3", "c2", "t1"},
       {"s1", "c3", "t1"}, {"s3", "c3", "t1"}, {"s2", "c3", "t2"}});
  Result<Permutation> p2 = PermutationFromNames(
      r2_flat.schema(), {"Student", "Course", "Semester"});
  ASSERT_TRUE(p2.ok());
  Result<CanonicalRelation> r2 = CanonicalRelation::FromFlat(r2_flat, *p2);
  ASSERT_TRUE(r2.ok());
  size_t tuples_before = r2->size();

  ASSERT_TRUE(r2->Delete(FlatTuple{V("s1"), V("c1"), V("t1")}).ok());
  // The deletion reshapes R2: (s1,c1,t1) leaves the {s1,s2,s3} x
  // {c1,c2} x {t1} block, which must split — exactly the "complicated
  // operations broke out in R2" of §2.
  EXPECT_EQ(r2->relation().Expand().size(), r2_flat.size() - 1);
  EXPECT_GE(r2->size(), tuples_before);
  NfrRelation oracle = CanonicalForm(r2->relation().Expand(), *p2);
  EXPECT_TRUE(r2->relation().EqualsAsSet(oracle));
}

// ---- Degenerate degree-1 relations -----------------------------------
//
// With a single attribute the indexed FindCandidate has no other
// attribute to seed the candidate id set from: the prefix intersection
// is the empty intersection (the universe), and the fallback must
// consider EVERY stored tuple, not none. Regression coverage for that
// branch in both search modes.
class Degree1Test
    : public ::testing::TestWithParam<CanonicalRelation::SearchMode> {};

TEST_P(Degree1Test, InsertMergesEverythingIntoOneTuple) {
  CanonicalRelation r(Schema::OfStrings({"A"}), {0}, GetParam());
  for (const char* v : {"a1", "a2", "a3", "a4", "a5"}) {
    ASSERT_TRUE(r.Insert(FlatTuple{V(v)}).ok());
  }
  // Every insert after the first must find the existing tuple as its
  // candidate (disjoint on the only attribute) and compose into it.
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.relation().tuple(0).at(0),
            (ValueSet{V("a1"), V("a2"), V("a3"), V("a4"), V("a5")}));
  EXPECT_EQ(r.stats().compositions, 4u);

  ASSERT_TRUE(r.Delete(FlatTuple{V("a3")}).ok());
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.relation().tuple(0).at(0),
            (ValueSet{V("a1"), V("a2"), V("a4"), V("a5")}));
  EXPECT_FALSE(r.Contains(FlatTuple{V("a3")}));
  EXPECT_TRUE(r.Contains(FlatTuple{V("a4")}));
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, Degree1Test,
    ::testing::Values(CanonicalRelation::SearchMode::kScan,
                      CanonicalRelation::SearchMode::kIndexed));

}  // namespace
}  // namespace nf2
