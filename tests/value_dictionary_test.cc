#include "core/value_dictionary.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/value.h"
#include "core/value_set.h"
#include "storage/serde.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace nf2 {
namespace {

/// A random atomic Value drawn from every kind, including kSet atoms
/// (sets-as-values must intern like any other atom).
Value RandomAtom(Rng* rng) {
  switch (rng->NextBelow(6)) {
    case 0:
      return Value::Null();
    case 1:
      return Value::Bool(rng->NextBelow(2) == 0);
    case 2:
      return Value::Int(static_cast<int64_t>(rng->NextBelow(40)) - 20);
    case 3:
      return Value::Double(static_cast<double>(rng->NextBelow(100)) / 8.0);
    case 4:
      return Value::String(StrCat("s", rng->NextBelow(30)));
    default: {
      std::vector<Value> inner;
      size_t n = 1 + rng->NextBelow(3);
      for (size_t i = 0; i < n; ++i) {
        inner.push_back(
            Value::Int(static_cast<int64_t>(rng->NextBelow(10))));
      }
      return Value::SetOf(std::move(inner));
    }
  }
}

ValueSet RandomValueSet(Rng* rng) {
  ValueSet out;
  size_t n = 1 + rng->NextBelow(8);
  for (size_t i = 0; i < n; ++i) {
    out = out.Union(ValueSet(RandomAtom(rng)));
  }
  return out;
}

TEST(ValueDictionaryTest, InternIsIdempotent) {
  ValueDictionary dict;
  ValueId a = dict.Intern(V("x"));
  ValueId b = dict.Intern(V("y"));
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.Intern(V("x")), a);
  EXPECT_EQ(dict.Intern(V("y")), b);
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.value(a), V("x"));
  EXPECT_EQ(dict.value(b), V("y"));
}

TEST(ValueDictionaryTest, FindDoesNotIntern) {
  ValueDictionary dict;
  EXPECT_FALSE(dict.Find(V("x")).has_value());
  ValueId a = dict.Intern(V("x"));
  ASSERT_TRUE(dict.Find(V("x")).has_value());
  EXPECT_EQ(*dict.Find(V("x")), a);
  EXPECT_EQ(dict.size(), 1u);
}

TEST(ValueDictionaryTest, RanksPreserveValueOrder) {
  Rng rng(7);
  ValueDictionary dict;
  std::vector<ValueId> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(dict.Intern(RandomAtom(&rng)));
  }
  // Interleave rank queries with further interns so both the monotone
  // extension and the dirty re-sort paths are exercised.
  for (int i = 0; i < 50; ++i) {
    ids.push_back(dict.Intern(RandomAtom(&rng)));
    ValueId a = ids[rng.NextBelow(ids.size())];
    ValueId b = ids[rng.NextBelow(ids.size())];
    int by_rank = dict.CompareIds(a, b);
    int by_value = dict.value(a).Compare(dict.value(b));
    EXPECT_EQ(by_rank < 0, by_value < 0);
    EXPECT_EQ(by_rank == 0, by_value == 0);
  }
  // Exhaustive check over all pairs via the rank table.
  for (ValueId a = 0; a < dict.size(); ++a) {
    for (ValueId b = a + 1; b < dict.size(); ++b) {
      EXPECT_EQ(dict.Rank(a) < dict.Rank(b),
                dict.value(a) < dict.value(b));
    }
  }
}

// A copy shares the source's chunks and keeps answering as of the copy
// while the source interns on — across value chunks and lookup
// rehashes, in and out of value order — and orders its own ids.
TEST(ValueDictionaryTest, CopyIsUnchangedByLaterInterns) {
  ValueDictionary dict;
  for (int64_t i = 0; i < 100; ++i) dict.Intern(V(i * 2));
  const ValueDictionary copy = dict;
  for (int64_t i = 0; i < 1000; ++i) dict.Intern(V(999 - i * 2));
  ASSERT_EQ(copy.size(), 100u);
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_EQ(copy.Find(V(i * 2)), std::optional<ValueId>(i));
    EXPECT_EQ(copy.value(static_cast<ValueId>(i)), V(i * 2));
    EXPECT_EQ(dict.Find(V(i * 2)), std::optional<ValueId>(i));
  }
  EXPECT_FALSE(copy.Find(V(int64_t{999})).has_value());
  EXPECT_TRUE(dict.Find(V(int64_t{999})).has_value());
  EXPECT_EQ(dict.size(), 1100u);
  for (ValueId a = 0; a + 1 < copy.size(); ++a) {
    EXPECT_LT(copy.Rank(a), copy.Rank(a + 1));
  }
}

TEST(ValueDictionaryTest, RoundTripIsLosslessIncludingSetAtoms) {
  Rng rng(13);
  ValueDictionary dict;
  for (int i = 0; i < 300; ++i) {
    Value v = RandomAtom(&rng);
    ValueId id = dict.Intern(v);
    EXPECT_EQ(dict.value(id), v) << v.ToString();
  }
  // Decoding an interned set reproduces the original ValueSet exactly.
  for (int i = 0; i < 100; ++i) {
    ValueSet s = RandomValueSet(&rng);
    IdSet encoded = InternValueSet(&dict, s);
    EXPECT_EQ(DecodeIdSet(dict, encoded), s);
  }
}

/// The heart of the property test: every IdSet operation agrees exactly
/// with the corresponding ValueSet operation on the decoded sets.
TEST(ValueDictionaryTest, IdSetOpsAgreeWithValueSetOps) {
  Rng rng(17);
  ValueDictionary dict;
  for (int iter = 0; iter < 500; ++iter) {
    ValueSet a = RandomValueSet(&rng);
    ValueSet b = RandomValueSet(&rng);
    IdSet ea = InternValueSet(&dict, a);
    IdSet eb = InternValueSet(&dict, b);
    EXPECT_EQ(DecodeIdSet(dict, ea.Union(eb)), a.Union(b));
    EXPECT_EQ(DecodeIdSet(dict, ea.Intersect(eb)), a.Intersect(b));
    EXPECT_EQ(DecodeIdSet(dict, ea.Difference(eb)), a.Difference(b));
    EXPECT_EQ(ea.IsSubsetOf(eb), a.IsSubsetOf(b));
    EXPECT_EQ(ea.IsDisjointFrom(eb), a.IsDisjointFrom(b));
    EXPECT_EQ(ea == eb, a == b);
    // Contains against every element of both sides.
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_TRUE(ea.Contains(dict.Intern(a[i])));
      EXPECT_EQ(eb.Contains(dict.Intern(a[i])), b.Contains(a[i]));
    }
    // Hash is consistent with equality.
    if (ea == eb) {
      EXPECT_EQ(ea.Hash(), eb.Hash());
    }
  }
}

TEST(ValueDictionaryTest, IdSetInsertErase) {
  IdSet s;
  EXPECT_TRUE(s.Insert(5));
  EXPECT_TRUE(s.Insert(3));
  EXPECT_FALSE(s.Insert(5));
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.Contains(3));
  EXPECT_TRUE(s.Erase(3));
  EXPECT_FALSE(s.Erase(3));
  EXPECT_FALSE(s.Contains(3));
  EXPECT_EQ(s.single(), 5u);
}

TEST(ValueDictionaryTest, TupleRoundTrip) {
  Rng rng(19);
  ValueDictionary dict;
  for (int iter = 0; iter < 50; ++iter) {
    NfrTuple t{RandomValueSet(&rng), RandomValueSet(&rng),
               RandomValueSet(&rng)};
    EncodedTuple enc = InternTuple(&dict, t);
    EXPECT_EQ(DecodeTuple(dict, enc), t);
  }
}

TEST(ValueDictionaryTest, SerdeRoundTripPreservesIdAssignment) {
  Rng rng(23);
  ValueDictionary dict;
  for (int i = 0; i < 150; ++i) dict.Intern(RandomAtom(&rng));
  BufferWriter out;
  EncodeValueDictionary(dict, &out);
  BufferReader in(out.data());
  Result<std::shared_ptr<ValueDictionary>> decoded =
      DecodeValueDictionary(&in);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ((*decoded)->size(), dict.size());
  for (ValueId id = 0; id < dict.size(); ++id) {
    // Identical id -> value mapping: stored encoded state stays valid.
    EXPECT_EQ((*decoded)->value(id), dict.value(id));
  }
}

TEST(ValueDictionaryTest, DecodeRejectsDuplicates) {
  BufferWriter out;
  out.PutU32(2);
  EncodeValue(V("dup"), &out);
  EncodeValue(V("dup"), &out);
  BufferReader in(out.data());
  EXPECT_FALSE(DecodeValueDictionary(&in).ok());
}

}  // namespace
}  // namespace nf2
