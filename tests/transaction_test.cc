#include <gtest/gtest.h>

#include <filesystem>

#include "engine/database.h"
#include "tests/test_util.h"

namespace nf2 {
namespace {

class TransactionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("nf2_txn_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static Status CreateAccounts(Database* db) {
    return db->CreateRelation("acct",
                              Schema::OfStrings({"Owner", "Asset"}),
                              {1, 0});
  }

  static FlatTuple Row(const char* owner, const char* asset) {
    return FlatTuple{V(owner), V(asset)};
  }

  std::string dir_;
};

TEST_F(TransactionTest, CommitAppliesAtomically) {
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(CreateAccounts(db->get()).ok());
  ASSERT_TRUE((*db)->Insert("acct", Row("ada", "gold")).ok());

  ASSERT_TRUE((*db)->Begin().ok());
  EXPECT_TRUE((*db)->in_transaction());
  // A transfer: gold moves from ada to bob.
  ASSERT_TRUE((*db)->Delete("acct", Row("ada", "gold")).ok());
  ASSERT_TRUE((*db)->Insert("acct", Row("bob", "gold")).ok());
  ASSERT_TRUE((*db)->Commit().ok());
  EXPECT_FALSE((*db)->in_transaction());

  Result<FlatRelation> scan = (*db)->Scan("acct");
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->size(), 1u);
  EXPECT_TRUE(scan->Contains(Row("bob", "gold")));
}

TEST_F(TransactionTest, RollbackRestoresPriorState) {
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(CreateAccounts(db->get()).ok());
  ASSERT_TRUE((*db)->Insert("acct", Row("ada", "gold")).ok());
  ASSERT_TRUE((*db)->Insert("acct", Row("ada", "silver")).ok());
  FlatRelation before = *(*db)->Scan("acct");

  ASSERT_TRUE((*db)->Begin().ok());
  ASSERT_TRUE((*db)->Delete("acct", Row("ada", "gold")).ok());
  ASSERT_TRUE((*db)->Insert("acct", Row("eve", "gold")).ok());
  ASSERT_TRUE((*db)->Insert("acct", Row("eve", "bronze")).ok());
  ASSERT_TRUE((*db)->Rollback().ok());
  EXPECT_FALSE((*db)->in_transaction());

  EXPECT_EQ(*(*db)->Scan("acct"), before);
  // And the NFR is still canonical.
  Result<const NfrRelation*> rel = (*db)->Relation("acct");
  Result<const RelationInfo*> info = (*db)->Info("acct");
  ASSERT_TRUE(rel.ok() && info.ok());
  EXPECT_TRUE((*rel)->EqualsAsSet(
      CanonicalForm((*rel)->Expand(), (*info)->nest_order)));
}

TEST_F(TransactionTest, NoNestingAndNoStrayCommit) {
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(CreateAccounts(db->get()).ok());
  EXPECT_EQ((*db)->Commit().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ((*db)->Rollback().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE((*db)->Begin().ok());
  EXPECT_EQ((*db)->Begin().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE((*db)->Rollback().ok());
}

TEST_F(TransactionTest, DdlAndCheckpointRejectedInsideTxn) {
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(CreateAccounts(db->get()).ok());
  ASSERT_TRUE((*db)->Begin().ok());
  EXPECT_EQ((*db)
                ->CreateRelation("other", Schema::OfStrings({"A"}), {0})
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*db)->DropRelation("acct").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*db)->Checkpoint().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE((*db)->Commit().ok());
  EXPECT_TRUE((*db)->Checkpoint().ok());
}

TEST_F(TransactionTest, CrashCutTransactionDiscardedOnRecovery) {
  {
    auto db = Database::Open(dir_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(CreateAccounts(db->get()).ok());
    ASSERT_TRUE((*db)->Insert("acct", Row("ada", "gold")).ok());
    ASSERT_TRUE((*db)->Begin().ok());
    ASSERT_TRUE((*db)->Delete("acct", Row("ada", "gold")).ok());
    ASSERT_TRUE((*db)->Insert("acct", Row("mallory", "gold")).ok());
    // Crash before commit: leak the handle so no rollback/checkpoint
    // runs — only the WAL survives.
    (void)(*db).release();
  }
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok()) << db.status();
  Result<FlatRelation> scan = (*db)->Scan("acct");
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->size(), 1u);
  EXPECT_TRUE(scan->Contains(Row("ada", "gold")));
  EXPECT_FALSE(scan->Contains(Row("mallory", "gold")));
}

TEST_F(TransactionTest, CommittedTransactionSurvivesCrash) {
  {
    auto db = Database::Open(dir_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(CreateAccounts(db->get()).ok());
    ASSERT_TRUE((*db)->Begin().ok());
    ASSERT_TRUE((*db)->Insert("acct", Row("ada", "gold")).ok());
    ASSERT_TRUE((*db)->Insert("acct", Row("bob", "gold")).ok());
    ASSERT_TRUE((*db)->Commit().ok());
    (void)(*db).release();  // Crash after commit.
  }
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok()) << db.status();
  Result<FlatRelation> scan = (*db)->Scan("acct");
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->size(), 2u);
}

TEST_F(TransactionTest, AbortedTransactionDiscardedOnRecovery) {
  {
    auto db = Database::Open(dir_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(CreateAccounts(db->get()).ok());
    ASSERT_TRUE((*db)->Insert("acct", Row("ada", "gold")).ok());
    ASSERT_TRUE((*db)->Begin().ok());
    ASSERT_TRUE((*db)->Insert("acct", Row("eve", "gold")).ok());
    ASSERT_TRUE((*db)->Rollback().ok());
    (void)(*db).release();  // Crash after rollback, before checkpoint.
  }
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok()) << db.status();
  Result<FlatRelation> scan = (*db)->Scan("acct");
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->size(), 1u);
  EXPECT_FALSE(scan->Contains(Row("eve", "gold")));
}

TEST_F(TransactionTest, DestructorRollsBackOpenTransaction) {
  {
    auto db = Database::Open(dir_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(CreateAccounts(db->get()).ok());
    ASSERT_TRUE((*db)->Insert("acct", Row("ada", "gold")).ok());
    ASSERT_TRUE((*db)->Begin().ok());
    ASSERT_TRUE((*db)->Insert("acct", Row("eve", "gold")).ok());
    // Clean shutdown with an open transaction: implicit rollback.
  }
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok()) << db.status();
  Result<FlatRelation> scan = (*db)->Scan("acct");
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->size(), 1u);
}

TEST_F(TransactionTest, RandomizedTransactionsMatchReference) {
  Rng rng(77);
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok());
  Schema schema = Schema::OfStrings({"A", "B"});
  ASSERT_TRUE((*db)->CreateRelation("r", schema, {1, 0}).ok());
  FlatRelation reference(schema);
  for (int txn = 0; txn < 20; ++txn) {
    FlatRelation snapshot = reference;
    ASSERT_TRUE((*db)->Begin().ok());
    for (int op = 0; op < 6; ++op) {
      FlatTuple t{V(StrCat("a", rng.NextBelow(4)).c_str()),
                  V(StrCat("b", rng.NextBelow(4)).c_str())};
      if (rng.NextBool(0.6)) {
        if ((*db)->Insert("r", t).ok()) reference.Insert(t);
      } else {
        if ((*db)->Delete("r", t).ok()) reference.Erase(t);
      }
    }
    if (rng.NextBool(0.5)) {
      ASSERT_TRUE((*db)->Commit().ok());
    } else {
      ASSERT_TRUE((*db)->Rollback().ok());
      reference = snapshot;
    }
    ASSERT_EQ(*(*db)->Scan("r"), reference) << "txn " << txn;
  }
}

TEST_F(TransactionTest, FdEnforcementRejectsViolation) {
  Database::Options options;
  options.enforce_fds = true;
  auto db = Database::Open(dir_, options);
  ASSERT_TRUE(db.ok());
  // Owner -> Asset: each owner holds exactly one asset kind.
  ASSERT_TRUE((*db)
                  ->CreateRelation("holdings",
                                   Schema::OfStrings({"Owner", "Asset"}),
                                   {}, {Fd{AttrSet{0}, AttrSet{1}}})
                  .ok());
  ASSERT_TRUE((*db)->Insert("holdings", Row("ada", "gold")).ok());
  Status violation = (*db)->Insert("holdings", Row("ada", "silver"));
  EXPECT_EQ(violation.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(violation.message().find("violates FD"), std::string::npos);
  // A second owner with the same asset is fine.
  EXPECT_TRUE((*db)->Insert("holdings", Row("bob", "gold")).ok());
  // The two rows compose into one tuple whose Owner component holds
  // both owners; the check must still find bob inside it.
  Result<const NfrRelation*> holdings = (*db)->Relation("holdings");
  ASSERT_TRUE(holdings.ok());
  ASSERT_EQ((*holdings)->size(), 1u);
  EXPECT_EQ((*holdings)->tuple(0).at(0).size(), 2u);
  EXPECT_EQ((*db)->Insert("holdings", Row("bob", "silver")).code(),
            StatusCode::kFailedPrecondition);
  // A two-attribute LHS: (Owner, Asset) -> Vault. Only a tuple holding
  // both LHS values constrains the insert.
  const Schema schema = Schema::OfStrings({"Owner", "Asset", "Vault"});
  const Fd pair_fd{AttrSet{0, 1}, AttrSet{2}};
  ASSERT_TRUE((*db)->CreateRelation("vaults", schema, {}, {pair_fd}).ok());
  auto row3 = [](const char* owner, const char* asset, const char* vault) {
    return FlatTuple{V(owner), V(asset), V(vault)};
  };
  ASSERT_TRUE((*db)->Insert("vaults", row3("ada", "gold", "v1")).ok());
  ASSERT_TRUE((*db)->Insert("vaults", row3("ada", "silver", "v1")).ok());
  ASSERT_TRUE((*db)->Insert("vaults", row3("bob", "gold", "v1")).ok());
  EXPECT_EQ((*db)->Insert("vaults", row3("ada", "gold", "v2")).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*db)->Insert("vaults", row3("bob", "gold", "v2")).code(),
            StatusCode::kFailedPrecondition);
  // Each LHS value alone is shared with some stored row, the pair is not.
  EXPECT_TRUE((*db)->Insert("vaults", row3("bob", "silver", "v2")).ok());
  EXPECT_TRUE((*db)->Insert("vaults", row3("cy", "gold", "v3")).ok());
  EXPECT_TRUE((*db)->VerifyIntegrity().ok());
  // With enforcement off the same insert passes.
  Database::Options lax;
  lax.enforce_fds = false;
  std::string dir2 = dir_ + "_lax";
  std::filesystem::remove_all(dir2);
  auto db2 = Database::Open(dir2, lax);
  ASSERT_TRUE(db2.ok());
  ASSERT_TRUE((*db2)
                  ->CreateRelation("holdings",
                                   Schema::OfStrings({"Owner", "Asset"}),
                                   {}, {Fd{AttrSet{0}, AttrSet{1}}})
                  .ok());
  ASSERT_TRUE((*db2)->Insert("holdings", Row("ada", "gold")).ok());
  EXPECT_TRUE((*db2)->Insert("holdings", Row("ada", "silver")).ok());
  std::filesystem::remove_all(dir2);
}

}  // namespace
}  // namespace nf2
