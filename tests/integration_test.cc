// Full-stack integration tests: NFRQL -> engine -> §4 algorithms ->
// WAL/tables -> recovery, exercised together.

#include <gtest/gtest.h>

#include <filesystem>

#include "core/fixedness.h"
#include "core/nest.h"
#include "engine/database.h"
#include "nfrql/executor.h"
#include "nfrql/parser.h"
#include "tests/test_util.h"

namespace nf2 {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("nf2_integration_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Asserts every relation of `db` is well-formed, canonical for its
  /// nest order, and satisfies its declared FDs — what nf2_check does.
  static void CheckIntegrity(Database* db) {
    for (const std::string& name : db->ListRelations()) {
      auto info = db->Info(name);
      auto rel = db->Relation(name);
      ASSERT_TRUE(info.ok() && rel.ok());
      ASSERT_TRUE((*rel)->Validate().ok()) << name;
      ASSERT_TRUE((*rel)->EqualsAsSet(
          CanonicalForm((*rel)->Expand(), (*info)->nest_order)))
          << name << " not canonical";
      ASSERT_TRUE((*info)->fd_set().SatisfiedBy((*rel)->Expand()))
          << name << " violates declared FDs";
    }
  }

  std::string dir_;
};

TEST_F(IntegrationTest, RegistrarLifecycleWithCrashRecovery) {
  // Phase 1: set up via NFRQL, then crash without checkpoint.
  {
    auto db = Database::Open(dir_);
    ASSERT_TRUE(db.ok());
    Executor ex(db->get());
    ASSERT_TRUE(ex.Execute("CREATE RELATION takes (Student STRING, "
                           "Course STRING, Club STRING) "
                           "MVD Student ->-> Course")
                    .ok());
    ASSERT_TRUE(ex.Execute("CREATE RELATION grades (Student STRING, "
                           "Course STRING, Grade INT) "
                           "NEST Grade, Course, Student "
                           "FD Student, Course -> Grade")
                    .ok());
    ASSERT_TRUE(ex.Execute("INSERT INTO takes VALUES "
                           "(ada, algebra, chess), (ada, crypto, chess), "
                           "(bob, algebra, go)")
                    .ok());
    ASSERT_TRUE(
        ex.Execute("INSERT INTO grades VALUES (ada, algebra, 95), "
                   "(ada, crypto, 88), (bob, algebra, 71)")
            .ok());
    // FD enforcement: a second grade for (ada, algebra) must fail.
    Result<std::string> dup =
        ex.Execute("INSERT INTO grades VALUES (ada, algebra, 60)");
    ASSERT_FALSE(dup.ok());
    EXPECT_EQ(dup.status().code(), StatusCode::kFailedPrecondition);
    (void)(*db).release();  // Crash.
  }
  // Phase 2: recover, mutate in a transaction, commit, checkpoint.
  {
    auto db = Database::Open(dir_);
    ASSERT_TRUE(db.ok()) << db.status();
    CheckIntegrity(db->get());
    Executor ex(db->get());
    Result<std::string> listing = ex.Execute("LIST");
    ASSERT_TRUE(listing.ok());
    EXPECT_EQ(*listing, "grades\ntakes");
    ASSERT_TRUE(ex.Execute("BEGIN").ok());
    ASSERT_TRUE(
        ex.Execute("DELETE FROM takes WHERE Course = crypto").ok());
    ASSERT_TRUE(
        ex.Execute("DELETE FROM grades WHERE Course = crypto").ok());
    ASSERT_TRUE(ex.Execute("COMMIT").ok());
    ASSERT_TRUE(ex.Execute("CHECKPOINT").ok());
    CheckIntegrity(db->get());
  }
  // Phase 3: reopen from the checkpoint and verify final state.
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok());
  CheckIntegrity(db->get());
  Result<FlatRelation> takes = (*db)->Scan("takes");
  ASSERT_TRUE(takes.ok());
  EXPECT_EQ(takes->size(), 2u);
  EXPECT_FALSE(
      takes->Contains(FlatTuple{V("ada"), V("crypto"), V("chess")}));
  Result<FlatRelation> grades = (*db)->Scan("grades");
  ASSERT_TRUE(grades.ok());
  EXPECT_EQ(grades->size(), 2u);
}

TEST_F(IntegrationTest, MixedValueTypesEndToEnd) {
  Schema schema({{"Name", ValueType::kString},
                 {"Level", ValueType::kInt},
                 {"Score", ValueType::kDouble},
                 {"Active", ValueType::kBool},
                 {"Tags", ValueType::kSet}});
  Value tags = Value::SetOf({V("alpha"), V("beta")});
  FlatTuple row1{V("ada"), Value::Int(3), Value::Double(9.5),
                 Value::Bool(true), tags};
  FlatTuple row2{V("bob"), Value::Int(3), Value::Double(9.5),
                 Value::Bool(true), tags};
  {
    auto db = Database::Open(dir_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateRelation("players", schema, {4, 3, 2, 1, 0})
                    .ok());
    ASSERT_TRUE((*db)->Insert("players", row1).ok());
    ASSERT_TRUE((*db)->Insert("players", row2).ok());
    // Identical dependents: the two players share one NFR tuple.
    EXPECT_EQ((*(*db)->Relation("players"))->size(), 1u);
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok()) << db.status();
  CheckIntegrity(db->get());
  Result<bool> has = (*db)->Contains("players", row1);
  ASSERT_TRUE(has.ok());
  EXPECT_TRUE(*has);
  Executor executor(db->get());
  Result<Statement> select =
      ParseStatement("SELECT * FROM players WHERE Score > 9.0");
  ASSERT_TRUE(select.ok());
  Result<StatementResult> q = executor.Run(*select);
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->rows.size(), 2u);
}

TEST_F(IntegrationTest, AutoCheckpointedWorkloadSurvivesManyReopens) {
  Rng rng(2026);
  Schema schema = Schema::OfStrings({"A", "B", "C"});
  FlatRelation reference(schema);
  Database::Options options;
  options.auto_checkpoint_every = 16;
  for (int session = 0; session < 5; ++session) {
    auto db = Database::Open(dir_, options);
    ASSERT_TRUE(db.ok()) << "session " << session << ": " << db.status();
    if (session == 0) {
      ASSERT_TRUE((*db)->CreateRelation("r", schema, {2, 1, 0}).ok());
    }
    ASSERT_EQ(*(*db)->Scan("r"), reference) << "session " << session;
    for (int op = 0; op < 30; ++op) {
      FlatTuple t{V(StrCat("a", rng.NextBelow(6)).c_str()),
                  V(StrCat("b", rng.NextBelow(6)).c_str()),
                  V(StrCat("c", rng.NextBelow(6)).c_str())};
      if (rng.NextBool(0.7)) {
        if ((*db)->Insert("r", t).ok()) reference.Insert(t);
      } else {
        if ((*db)->Delete("r", t).ok()) reference.Erase(t);
      }
    }
    // Half the sessions crash, half close cleanly.
    if (session % 2 == 0) {
      (void)(*db).release();
    }
  }
  auto db = Database::Open(dir_, options);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(*(*db)->Scan("r"), reference);
  CheckIntegrity(db->get());
}

TEST_F(IntegrationTest, HighDegreeStressAgainstOracle) {
  const size_t degree = 6;
  std::vector<std::string> names;
  for (size_t i = 0; i < degree; ++i) names.push_back(StrCat("E", i + 1));
  Schema schema = Schema::OfStrings(names);
  Permutation perm{5, 3, 1, 4, 2, 0};
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->CreateRelation("wide", schema, perm).ok());
  Rng rng(7);
  FlatRelation reference(schema);
  for (int op = 0; op < 120; ++op) {
    std::vector<Value> values;
    for (size_t i = 0; i < degree; ++i) {
      values.push_back(V(StrCat("v", i, "_", rng.NextBelow(2)).c_str()));
    }
    FlatTuple t(std::move(values));
    if (rng.NextBool(0.6)) {
      if ((*db)->Insert("wide", t).ok()) reference.Insert(t);
    } else {
      if ((*db)->Delete("wide", t).ok()) reference.Erase(t);
    }
  }
  EXPECT_EQ(*(*db)->Scan("wide"), reference);
  Result<const NfrRelation*> rel = (*db)->Relation("wide");
  ASSERT_TRUE(rel.ok());
  EXPECT_TRUE((*rel)->EqualsAsSet(CanonicalForm(reference, perm)));
  // With binary domains the whole space is {0,1}^6; heavy merging
  // must have occurred.
  EXPECT_LT((*rel)->size(), reference.size());
}

TEST_F(IntegrationTest, TheoremFivePayoffVisibleThroughEngine) {
  // The fixedness the §3.4 advisor promises is observable on live data.
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)
                  ->CreateRelation(
                      "takes", Schema::OfStrings({"S", "C", "B"}),
                      /*nest_order=*/{}, /*fds=*/{},
                      {Mvd{AttrSet{0}, AttrSet{1}}})
                  .ok());
  Rng rng(9);
  for (int s = 0; s < 15; ++s) {
    for (int c = 0; c < 3; ++c) {
      ASSERT_TRUE((*db)
                      ->Insert("takes",
                               FlatTuple{V(StrCat("s", s).c_str()),
                                         V(StrCat("c", rng.NextBelow(9))
                                               .c_str()),
                                         V(StrCat("b", s % 4).c_str())})
                      .ok() ||
                  true);  // Duplicates possible; ignore.
    }
  }
  Result<const NfrRelation*> rel = (*db)->Relation("takes");
  ASSERT_TRUE(rel.ok());
  EXPECT_TRUE(IsFixedOn(**rel, {0}));  // One tuple per student.
}

}  // namespace
}  // namespace nf2
