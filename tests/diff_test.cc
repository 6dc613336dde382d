#include <gtest/gtest.h>

#include <filesystem>

#include "core/diff.h"
#include "engine/database.h"
#include "tests/test_util.h"

namespace nf2 {
namespace {

TEST(DiffTest, ComputesMinimalScript) {
  FlatRelation from = MakeStringRelation({"A", "B"}, {{"a1", "b1"},
                                                      {"a2", "b1"},
                                                      {"a3", "b2"}});
  FlatRelation to = MakeStringRelation({"A", "B"}, {{"a2", "b1"},
                                                    {"a3", "b9"},
                                                    {"a4", "b4"}});
  Result<UpdateScript> script = ComputeDiff(from, to);
  ASSERT_TRUE(script.ok());
  EXPECT_EQ(script->deletes.size(), 2u);  // (a1,b1), (a3,b2).
  EXPECT_EQ(script->inserts.size(), 2u);  // (a3,b9), (a4,b4).
  EXPECT_EQ(script->size(), 4u);
  std::string text = script->ToString();
  EXPECT_NE(text.find("- (a1, b1)"), std::string::npos);
  EXPECT_NE(text.find("+ (a4, b4)"), std::string::npos);
}

TEST(DiffTest, IdenticalRelationsYieldEmptyScript) {
  FlatRelation r = MakeStringRelation({"A"}, {{"x"}, {"y"}});
  Result<UpdateScript> script = ComputeDiff(r, r);
  ASSERT_TRUE(script.ok());
  EXPECT_TRUE(script->empty());
}

TEST(DiffTest, SchemaMismatchErrors) {
  FlatRelation a(Schema::OfStrings({"A"}));
  FlatRelation b(Schema::OfStrings({"B"}));
  EXPECT_FALSE(ComputeDiff(a, b).ok());
}

TEST(DiffTest, ApplyScriptReachesTarget) {
  Rng rng(71);
  FlatRelation from = RandomFlatRelation(&rng, 3, 3, 15);
  FlatRelation to = RandomFlatRelation(&rng, 3, 3, 15);
  Permutation perm{1, 2, 0};
  Result<CanonicalRelation> rel = CanonicalRelation::FromFlat(from, perm);
  ASSERT_TRUE(rel.ok());
  Result<UpdateScript> script = ComputeDiff(from, to);
  ASSERT_TRUE(script.ok());
  ASSERT_TRUE(ApplyScript(*script, &*rel).ok());
  EXPECT_EQ(rel->relation().Expand(), to);
  // Still canonical after the bulk change.
  EXPECT_TRUE(rel->relation().EqualsAsSet(CanonicalForm(to, perm)));
}

TEST(DiffTest, SyncToIsIdempotent) {
  Rng rng(72);
  FlatRelation start = RandomFlatRelation(&rng, 3, 3, 12);
  FlatRelation target = RandomFlatRelation(&rng, 3, 3, 12);
  Result<CanonicalRelation> rel =
      CanonicalRelation::FromFlat(start, {0, 1, 2});
  ASSERT_TRUE(rel.ok());
  Result<size_t> first = SyncTo(target, &*rel);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(rel->relation().Expand(), target);
  Result<size_t> second = SyncTo(target, &*rel);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, 0u);
}

TEST(DiffTest, SyncPropertySweep) {
  Rng rng(73);
  for (int trial = 0; trial < 10; ++trial) {
    FlatRelation a = RandomFlatRelation(&rng, 3, 3, 10);
    FlatRelation b = RandomFlatRelation(&rng, 3, 3, 14);
    Result<CanonicalRelation> rel =
        CanonicalRelation::FromFlat(a, {2, 0, 1});
    ASSERT_TRUE(rel.ok());
    ASSERT_TRUE(SyncTo(b, &*rel).ok());
    ASSERT_EQ(rel->relation().Expand(), b);
    ASSERT_TRUE(rel->relation().Validate().ok());
  }
}

TEST(VerifyIntegrityTest, PassesOnHealthyDatabase) {
  auto dir = (std::filesystem::temp_directory_path() /
              "nf2_integrity_test")
                 .string();
  std::filesystem::remove_all(dir);
  auto db = Database::Open(dir);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)
                  ->CreateRelation("r", Schema::OfStrings({"A", "B"}),
                                   /*nest_order=*/{},
                                   {Fd{AttrSet{0}, AttrSet{1}}})
                  .ok());
  ASSERT_TRUE((*db)->Insert("r", FlatTuple{V("a1"), V("b1")}).ok());
  ASSERT_TRUE((*db)->Insert("r", FlatTuple{V("a2"), V("b1")}).ok());
  EXPECT_TRUE((*db)->VerifyIntegrity().ok());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace nf2
