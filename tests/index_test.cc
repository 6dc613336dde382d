#include <gtest/gtest.h>

#include <memory>

#include "algebra/predicate.h"
#include "core/index.h"
#include "core/update.h"
#include "tests/test_util.h"

namespace nf2 {
namespace {

NfrTuple T(std::initializer_list<const char*> a,
           std::initializer_list<const char*> b) {
  std::vector<Value> av, bv;
  for (const char* s : a) av.push_back(V(s));
  for (const char* s : b) bv.push_back(V(s));
  return NfrTuple{ValueSet(std::move(av)), ValueSet(std::move(bv))};
}

/// An id-keyed index over a fresh dictionary; Encode interns a tuple's
/// values into that dictionary the way CanonicalRelation does.
struct IndexOverDict {
  std::shared_ptr<ValueDictionary> dict = std::make_shared<ValueDictionary>();
  NfrIndex index{2, dict};

  EncodedTuple Encode(const NfrTuple& t) {
    return InternTuple(dict.get(), t);
  }
  IdSet Ids(std::initializer_list<const char*> values) {
    std::vector<Value> vs;
    for (const char* v : values) vs.push_back(V(v));
    return InternValueSet(dict.get(), ValueSet(std::move(vs)));
  }
};

TEST(NfrIndexTest, AddAndPostings) {
  IndexOverDict x;
  x.index.AddEncoded(0, x.Encode(T({"a1", "a2"}, {"b1"})));
  x.index.AddEncoded(1, x.Encode(T({"a2"}, {"b2"})));
  const std::vector<size_t>* a2 = x.index.Postings(0, V("a2"));
  ASSERT_NE(a2, nullptr);
  EXPECT_EQ(*a2, (std::vector<size_t>{0, 1}));
  const std::vector<size_t>* b1 = x.index.Postings(1, V("b1"));
  ASSERT_NE(b1, nullptr);
  EXPECT_EQ(*b1, (std::vector<size_t>{0}));
  EXPECT_EQ(x.index.Postings(0, V("zz")), nullptr);
  // A value the dictionary holds but no tuple of this attribute does.
  EXPECT_EQ(x.index.Postings(0, V("b1")), nullptr);
  EXPECT_EQ(x.index.entry_count(), 5u);
}

TEST(NfrIndexTest, RemoveCleansUp) {
  IndexOverDict x;
  EncodedTuple t = x.Encode(T({"a1", "a2"}, {"b1"}));
  x.index.AddEncoded(0, t);
  x.index.RemoveEncoded(0, t);
  EXPECT_EQ(x.index.Postings(0, V("a1")), nullptr);
  EXPECT_EQ(x.index.entry_count(), 0u);
}

TEST(NfrIndexTest, MoveRelabelsIds) {
  IndexOverDict x;
  EncodedTuple t = x.Encode(T({"a1"}, {"b1"}));
  x.index.AddEncoded(5, t);
  x.index.MoveEncoded(5, 2, t);
  const std::vector<size_t>* a1 = x.index.Postings(0, V("a1"));
  ASSERT_NE(a1, nullptr);
  EXPECT_EQ(*a1, (std::vector<size_t>{2}));
}

TEST(NfrIndexTest, ContainingAllIds) {
  IndexOverDict x;
  x.index.AddEncoded(0, x.Encode(T({"a1", "a2"}, {"b1"})));
  x.index.AddEncoded(1, x.Encode(T({"a1", "a3"}, {"b1", "b2"})));
  x.index.AddEncoded(2, x.Encode(T({"a2", "a3"}, {"b2"})));
  EXPECT_EQ(x.index.ContainingAllIds(0, x.Ids({"a1", "a2"})),
            (std::vector<size_t>{0}));
  EXPECT_EQ(x.index.ContainingAllIds(0, x.Ids({"a3"})),
            (std::vector<size_t>{1, 2}));
  EXPECT_TRUE(x.index.ContainingAllIds(0, x.Ids({"a1", "zz"})).empty());
}

TEST(NfrIndexTest, ContainingEncoded) {
  IndexOverDict x;
  x.index.AddEncoded(0, x.Encode(T({"a1", "a2"}, {"b1"})));
  x.index.AddEncoded(1, x.Encode(T({"a3"}, {"b1", "b2"})));
  EXPECT_EQ(x.index.ContainingEncoded(x.Encode(T({"a2"}, {"b1"}))),
            (std::vector<size_t>{0}));
  EXPECT_EQ(x.index.ContainingEncoded(x.Encode(T({"a3"}, {"b2"}))),
            (std::vector<size_t>{1}));
  EXPECT_TRUE(x.index.ContainingEncoded(x.Encode(T({"a2"}, {"b2"}))).empty());
}

// Regression: RemoveEncoded used to leave emptied posting slots
// allocated forever, so a churn workload (intern fresh values, insert,
// delete) grew postings_by_id_ monotonically. Emptied lists must
// release their buffers and trailing empty slots must be popped.
TEST(NfrIndexTest, RemoveEncodedReclaimsSlots) {
  auto dict = std::make_shared<ValueDictionary>();
  NfrIndex index(2, dict);
  NfrTuple low = T({"a1"}, {"b1"});
  NfrTuple high = T({"a2", "a3"}, {"b2"});
  EncodedTuple low_enc = InternTuple(dict.get(), low);
  EncodedTuple high_enc = InternTuple(dict.get(), high);
  index.AddEncoded(0, low_enc);
  index.AddEncoded(1, high_enc);
  const size_t full = index.slot_count();
  // Deleting the tuple that carries the highest ValueIds shrinks the
  // slot arrays back down.
  index.RemoveEncoded(1, high_enc);
  EXPECT_LT(index.slot_count(), full);
  // An emptied index holds no slots at all.
  index.RemoveEncoded(0, low_enc);
  EXPECT_EQ(index.slot_count(), 0u);
  EXPECT_EQ(index.entry_count(), 0u);
  // Slots regrow on demand after the shrink.
  index.AddEncoded(2, high_enc);
  EXPECT_EQ(index.ContainingEncoded(high_enc), (std::vector<size_t>{2}));
}

TEST(IntersectSortedTest, Basics) {
  EXPECT_EQ(IntersectSorted({1, 3, 5}, {2, 3, 5, 7}),
            (std::vector<size_t>{3, 5}));
  EXPECT_TRUE(IntersectSorted({}, {1}).empty());
  EXPECT_TRUE(IntersectSorted({1, 2}, {3, 4}).empty());
}

// ---- Indexed vs scan search modes must behave identically -------------
class SearchModeTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t>> {};

TEST_P(SearchModeTest, ModesAgreeOnRandomWorkload) {
  auto [seed, degree] = GetParam();
  Rng rng(seed);
  std::vector<std::string> names;
  for (size_t i = 0; i < degree; ++i) names.push_back(StrCat("E", i + 1));
  Schema schema = Schema::OfStrings(names);
  Permutation perm = IdentityPermutation(degree);
  rng.Shuffle(&perm);

  CanonicalRelation indexed(schema, perm,
                            CanonicalRelation::SearchMode::kIndexed);
  CanonicalRelation scanned(schema, perm,
                            CanonicalRelation::SearchMode::kScan);
  const size_t domain = 3;
  for (int step = 0; step < 80; ++step) {
    std::vector<Value> values;
    for (size_t i = 0; i < degree; ++i) {
      values.push_back(
          Value::String(StrCat("v", i, "_", rng.NextBelow(domain))));
    }
    FlatTuple t(std::move(values));
    if (rng.NextBool(0.65)) {
      Status a = indexed.Insert(t);
      Status b = scanned.Insert(t);
      ASSERT_EQ(a.code(), b.code()) << t.ToString();
    } else {
      Status a = indexed.Delete(t);
      Status b = scanned.Delete(t);
      ASSERT_EQ(a.code(), b.code()) << t.ToString();
    }
    ASSERT_TRUE(indexed.relation().EqualsAsSet(scanned.relation()))
        << "step " << step << "\nindexed:\n"
        << indexed.relation().ToString() << "scanned:\n"
        << scanned.relation().ToString();
    // And both equal the nest-from-scratch oracle.
    NfrRelation oracle =
        CanonicalForm(indexed.relation().Expand(), perm);
    ASSERT_TRUE(indexed.relation().EqualsAsSet(oracle));
  }
  // The §4 operation counts are identical: the index changes HOW the
  // candidate is found, never WHICH candidate.
  EXPECT_EQ(indexed.stats().compositions, scanned.stats().compositions);
  EXPECT_EQ(indexed.stats().decompositions,
            scanned.stats().decompositions);
  EXPECT_EQ(indexed.stats().recons_calls, scanned.stats().recons_calls);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SearchModeTest,
    ::testing::Combine(::testing::Range<uint64_t>(0, 10),
                       ::testing::Values<size_t>(2, 3, 4)));

TEST(SearchModeTest2, IndexReducesCandidateScans) {
  // With many distinct keys, posting lists are short and the indexed
  // search examines far fewer tuples.
  Schema schema = Schema::OfStrings({"K", "X", "Y"});
  Permutation perm{2, 1, 0};
  CanonicalRelation indexed(schema, perm,
                            CanonicalRelation::SearchMode::kIndexed);
  CanonicalRelation scanned(schema, perm,
                            CanonicalRelation::SearchMode::kScan);
  for (int i = 0; i < 400; ++i) {
    FlatTuple t{Value::String(StrCat("k", i)),
                Value::String(StrCat("x", i % 5)),
                Value::String(StrCat("y", i % 3))};
    ASSERT_TRUE(indexed.Insert(t).ok());
    ASSERT_TRUE(scanned.Insert(t).ok());
  }
  EXPECT_LT(indexed.stats().candidate_scans,
            scanned.stats().candidate_scans / 4)
      << "indexed=" << indexed.stats().candidate_scans
      << " scanned=" << scanned.stats().candidate_scans;
}

TEST(SearchModeTest2, TuplesContainingMatchesScanInBothModes) {
  Rng rng(55);
  FlatRelation flat = RandomFlatRelation(&rng, 3, 3, 20);
  Permutation perm{1, 0, 2};
  Result<CanonicalRelation> indexed = CanonicalRelation::FromFlat(
      flat, perm, CanonicalRelation::SearchMode::kIndexed);
  Result<CanonicalRelation> scanned = CanonicalRelation::FromFlat(
      flat, perm, CanonicalRelation::SearchMode::kScan);
  ASSERT_TRUE(indexed.ok() && scanned.ok());
  for (size_t attr = 0; attr < 3; ++attr) {
    for (int v = 0; v < 4; ++v) {
      Value probe = Value::String(StrCat("v", attr, "_", v));
      NfrRelation a = indexed->TuplesContaining(attr, probe);
      NfrRelation b = scanned->TuplesContaining(attr, probe);
      EXPECT_TRUE(a.EqualsAsSet(b))
          << "attr " << attr << " value " << probe.ToString();
      // And the result is exactly the tuple-level Eq-select.
      for (const NfrTuple& t : a.tuples()) {
        EXPECT_TRUE(t.at(attr).Contains(probe));
      }
    }
  }
  // Absent value: empty in both modes.
  EXPECT_EQ(indexed->TuplesContaining(0, V("zz")).size(), 0u);
  EXPECT_EQ(scanned->TuplesContaining(0, V("zz")).size(), 0u);
}

TEST(SearchModeTest2, DegreeOneRelations) {
  // The degenerate degree-1 case exercises the index's universe branch.
  Schema schema = Schema::OfStrings({"A"});
  CanonicalRelation rel(schema, {0},
                        CanonicalRelation::SearchMode::kIndexed);
  ASSERT_TRUE(rel.Insert(FlatTuple{V("x")}).ok());
  ASSERT_TRUE(rel.Insert(FlatTuple{V("y")}).ok());
  // Degree-1 tuples always compose: one tuple with both values.
  EXPECT_EQ(rel.size(), 1u);
  EXPECT_TRUE(rel.Contains(FlatTuple{V("x")}));
  ASSERT_TRUE(rel.Delete(FlatTuple{V("x")}).ok());
  EXPECT_EQ(rel.size(), 1u);
  EXPECT_FALSE(rel.Contains(FlatTuple{V("x")}));
}

}  // namespace
}  // namespace nf2
