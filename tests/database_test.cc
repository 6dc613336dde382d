#include <gtest/gtest.h>

#include <filesystem>

#include "engine/database.h"
#include "nfrql/executor.h"
#include "nfrql/parser.h"
#include "tests/test_util.h"

namespace nf2 {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("nf2_db_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  Status CreateStudents(Database* db) {
    // Student ->-> Course | Club, nest order advised from the MVD.
    return db->CreateRelation(
        "students", Schema::OfStrings({"Student", "Course", "Club"}),
        /*nest_order=*/{}, /*fds=*/{},
        /*mvds=*/{Mvd{AttrSet{0}, AttrSet{1}}});
  }

  std::string dir_;
};

FlatTuple Scb(const char* s, const char* c, const char* b) {
  return FlatTuple{V(s), V(c), V(b)};
}

TEST_F(DatabaseTest, OpenCreatesDirectory) {
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_TRUE(std::filesystem::exists(dir_));
  EXPECT_TRUE((*db)->ListRelations().empty());
}

TEST_F(DatabaseTest, CreateInsertQuery) {
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(CreateStudents(db->get()).ok());
  ASSERT_TRUE((*db)->Insert("students", Scb("s1", "c1", "b1")).ok());
  ASSERT_TRUE((*db)->Insert("students", Scb("s1", "c2", "b1")).ok());
  ASSERT_TRUE((*db)->Insert("students", Scb("s2", "c1", "b2")).ok());

  Result<bool> has = (*db)->Contains("students", Scb("s1", "c2", "b1"));
  ASSERT_TRUE(has.ok());
  EXPECT_TRUE(*has);

  Result<FlatRelation> scan = (*db)->Scan("students");
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->size(), 3u);

  Executor executor(db->get());
  Result<Statement> select =
      ParseStatement("SELECT * FROM students WHERE Student = s1");
  ASSERT_TRUE(select.ok());
  Result<StatementResult> q = executor.Run(*select);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->rows.size(), 2u);
}

TEST_F(DatabaseTest, NfrIsCanonicalAndCompressed) {
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(CreateStudents(db->get()).ok());
  // A student with 3 courses: one NFR tuple instead of 3 flat ones.
  for (const char* c : {"c1", "c2", "c3"}) {
    ASSERT_TRUE((*db)->Insert("students", Scb("s1", c, "b1")).ok());
  }
  Result<const NfrRelation*> rel = (*db)->Relation("students");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ((*rel)->size(), 1u);
  EXPECT_EQ((*rel)->ExpandedSize(), 3u);
  Result<RelationStats> stats = (*db)->Stats("students");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->nfr_tuples, 1u);
  EXPECT_EQ(stats->flat_tuples, 3u);
  EXPECT_GT(stats->TupleReduction(), 2.9);
}

TEST_F(DatabaseTest, ErrorsOnBadOperations) {
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->Insert("nope", Scb("s", "c", "b")).code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(CreateStudents(db->get()).ok());
  EXPECT_EQ(CreateStudents(db->get()).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ((*db)->Insert("students", FlatTuple{V("s")}).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE((*db)->Insert("students", Scb("s1", "c1", "b1")).ok());
  EXPECT_EQ((*db)->Insert("students", Scb("s1", "c1", "b1")).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ((*db)->Delete("students", Scb("s9", "c9", "b9")).code(),
            StatusCode::kNotFound);
  EXPECT_EQ((*db)->Scan("nope").status().code(), StatusCode::kNotFound);
}

TEST_F(DatabaseTest, DeleteMaintainsCanonicalForm) {
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(CreateStudents(db->get()).ok());
  for (const char* s : {"s1", "s2"}) {
    for (const char* c : {"c1", "c2"}) {
      ASSERT_TRUE((*db)->Insert("students", Scb(s, c, "b1")).ok());
    }
  }
  ASSERT_TRUE((*db)->Delete("students", Scb("s1", "c1", "b1")).ok());
  Result<const NfrRelation*> rel = (*db)->Relation("students");
  ASSERT_TRUE(rel.ok());
  Result<const RelationInfo*> info = (*db)->Info("students");
  ASSERT_TRUE(info.ok());
  NfrRelation oracle =
      CanonicalForm((*rel)->Expand(), (*info)->nest_order);
  EXPECT_TRUE((*rel)->EqualsAsSet(oracle));
}

TEST_F(DatabaseTest, DurableAcrossReopenViaWal) {
  {
    auto db = Database::Open(dir_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(CreateStudents(db->get()).ok());
    ASSERT_TRUE((*db)->Insert("students", Scb("s1", "c1", "b1")).ok());
    ASSERT_TRUE((*db)->Insert("students", Scb("s1", "c2", "b1")).ok());
    ASSERT_TRUE((*db)->Delete("students", Scb("s1", "c1", "b1")).ok());
    // No explicit checkpoint: destructor checkpoints, but test the WAL
    // path too by copying the directory? Simpler: rely on destructor
    // here; the WAL-only path is tested below.
  }
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok()) << db.status();
  Result<FlatRelation> scan = (*db)->Scan("students");
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->size(), 1u);
  EXPECT_TRUE(scan->Contains(Scb("s1", "c2", "b1")));
}

TEST_F(DatabaseTest, RelationsLoadedFromTheirTableMirrorUpdateCounters) {
  {
    auto db = Database::Open(dir_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(CreateStudents(db->get()).ok());
    ASSERT_TRUE((*db)->Insert("students", Scb("s1", "c1", "b1")).ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  // Reopening loads "students" from its checkpointed table; its §4
  // counters must still feed the engine-wide registry.
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_TRUE((*db)->Insert("students", Scb("s1", "c2", "b1")).ok());
  Result<RelationStats> stats = (*db)->Stats("students");
  ASSERT_TRUE(stats.ok());
  ASSERT_GT(stats->update_stats.compositions, 0u);
  MetricsSnapshot snap = (*db)->MetricsSnapshot();
  EXPECT_EQ(snap.counter("nf2_compo_total"), stats->update_stats.compositions);
  EXPECT_EQ(snap.counter("nf2_recons_total"), stats->update_stats.recons_calls);
}

TEST_F(DatabaseTest, RecoveryReplaysWalWithoutCheckpoint) {
  // Simulate a crash: build a second Database handle state by writing
  // through one instance and never letting its destructor checkpoint.
  {
    auto db = Database::Open(dir_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(CreateStudents(db->get()).ok());
    ASSERT_TRUE((*db)->Insert("students", Scb("s1", "c1", "b1")).ok());
    ASSERT_TRUE((*db)->Insert("students", Scb("s2", "c1", "b2")).ok());
    // Crash: leak the object so neither checkpoint nor flush runs.
    (void)(*db).release();
  }
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok()) << db.status();
  Result<FlatRelation> scan = (*db)->Scan("students");
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->size(), 2u);
  EXPECT_TRUE(scan->Contains(Scb("s1", "c1", "b1")));
  EXPECT_TRUE(scan->Contains(Scb("s2", "c1", "b2")));
}

TEST_F(DatabaseTest, CheckpointTruncatesWal) {
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(CreateStudents(db->get()).ok());
  ASSERT_TRUE((*db)->Insert("students", Scb("s1", "c1", "b1")).ok());
  EXPECT_GT((*db)->wal_records_since_checkpoint(), 0u);
  ASSERT_TRUE((*db)->Checkpoint().ok());
  EXPECT_EQ((*db)->wal_records_since_checkpoint(), 0u);
  // State still correct after checkpoint + reopen.
  Result<FlatRelation> scan = (*db)->Scan("students");
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->size(), 1u);
}

TEST_F(DatabaseTest, AutoCheckpoint) {
  Database::Options options;
  options.auto_checkpoint_every = 4;
  auto db = Database::Open(dir_, options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(CreateStudents(db->get()).ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        (*db)->Insert("students",
                      Scb(StrCat("s", i).c_str(), "c1", "b1"))
            .ok());
  }
  // 6 inserts with threshold 4: at least one auto checkpoint fired.
  EXPECT_LT((*db)->wal_records_since_checkpoint(), 6u);
}

TEST_F(DatabaseTest, DropRelation) {
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(CreateStudents(db->get()).ok());
  ASSERT_TRUE((*db)->DropRelation("students").ok());
  EXPECT_FALSE((*db)->Relation("students").ok());
  EXPECT_EQ((*db)->DropRelation("students").code(), StatusCode::kNotFound);
  // Recreate works.
  EXPECT_TRUE(CreateStudents(db->get()).ok());
}

TEST_F(DatabaseTest, AdvisedNestOrderFromMvd) {
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(CreateStudents(db->get()).ok());
  Result<const RelationInfo*> info = (*db)->Info("students");
  ASSERT_TRUE(info.ok());
  // Student (the MVD LHS) must be nested last.
  EXPECT_EQ((*info)->nest_order.back(), 0u);
}

TEST_F(DatabaseTest, MultipleRelations) {
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(CreateStudents(db->get()).ok());
  ASSERT_TRUE((*db)
                  ->CreateRelation("enrollment",
                                   Schema::OfStrings(
                                       {"Student", "Course", "Semester"}),
                                   {0, 1, 2})
                  .ok());
  EXPECT_EQ((*db)->ListRelations(),
            (std::vector<std::string>{"enrollment", "students"}));
  ASSERT_TRUE((*db)->Insert("enrollment", Scb("s1", "c1", "t1")).ok());
  ASSERT_TRUE((*db)->Insert("students", Scb("s1", "c1", "b1")).ok());
  EXPECT_EQ((*(*db)->Scan("enrollment")).size(), 1u);
  EXPECT_EQ((*(*db)->Scan("students")).size(), 1u);
}

TEST_F(DatabaseTest, RandomWorkloadSurvivesReopen) {
  Rng rng(321);
  Schema schema = Schema::OfStrings({"A", "B", "C"});
  FlatRelation reference(schema);
  {
    auto db = Database::Open(dir_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateRelation("r", schema, {2, 1, 0}).ok());
    for (int i = 0; i < 80; ++i) {
      FlatTuple t{V(StrCat("a", rng.NextBelow(5)).c_str()),
                  V(StrCat("b", rng.NextBelow(5)).c_str()),
                  V(StrCat("c", rng.NextBelow(5)).c_str())};
      if (rng.NextBool(0.7)) {
        Status s = (*db)->Insert("r", t);
        if (s.ok()) reference.Insert(t);
      } else {
        Status s = (*db)->Delete("r", t);
        if (s.ok()) reference.Erase(t);
      }
    }
  }
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok());
  Result<FlatRelation> scan = (*db)->Scan("r");
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(*scan, reference);
  // And the stored NFR is canonical.
  Result<const NfrRelation*> rel = (*db)->Relation("r");
  ASSERT_TRUE(rel.ok());
  EXPECT_TRUE((*rel)->EqualsAsSet(CanonicalForm(reference, {2, 1, 0})));
}

// ---- Incremental checkpoints (DESIGN.md §12) --------------------------

TEST_F(DatabaseTest, SecondCheckpointWithSmallWriteSetSkipsPages) {
  Database::Options opts;
  opts.enforce_fds = false;
  auto db = Database::Open(dir_, opts);
  ASSERT_TRUE(db.ok());
  Schema schema = Schema::OfStrings({"K", "P"});
  ASSERT_TRUE((*db)->CreateRelation("big", schema, {0, 1}).ok());
  // Enough rows for a multi-page table file. Distinct payloads, so the
  // canonical form cannot compose rows into one giant value set (which
  // would collapse the table to a single page).
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(
        (*db)->Insert("big",
                      FlatTuple{V(StrCat("k", i).c_str()),
                                V(StrCat("p", i, "_", std::string(150, 'p'))
                                      .c_str())})
            .ok());
  }
  ASSERT_TRUE((*db)->Checkpoint().ok());
  // A small write-set against a big table: the second checkpoint must
  // rewrite only the touched pages, skipping the rest.
  ASSERT_TRUE(
      (*db)->Insert("big", FlatTuple{V("late"), V("row")}).ok());
  uint64_t skipped_before =
      (*db)->MetricsSnapshot().counter("nf2_checkpoint_pages_skipped_total");
  uint64_t written_before =
      (*db)->MetricsSnapshot().counter("nf2_checkpoint_pages_written_total");
  ASSERT_TRUE((*db)->Checkpoint().ok());
  auto snap = (*db)->MetricsSnapshot();
  uint64_t skipped =
      snap.counter("nf2_checkpoint_pages_skipped_total") - skipped_before;
  uint64_t written =
      snap.counter("nf2_checkpoint_pages_written_total") - written_before;
  EXPECT_GT(skipped, 0u) << "incremental checkpoint rewrote everything";
  EXPECT_GT(written, 0u) << "the dirty page must still be written";
  EXPECT_LT(written, skipped)
      << "a one-row write-set should dirty fewer pages than it skips";
  // And the incremental state is exactly what recovery reproduces.
  db->reset();
  auto reopened = Database::Open(dir_, opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  Result<FlatRelation> scan = (*reopened)->Scan("big");
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->size(), 151u);
  EXPECT_TRUE((*reopened)->VerifyIntegrity().ok());
}

TEST_F(DatabaseTest, CleanRelationsAreSkippedWholesale) {
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(CreateStudents(db->get()).ok());
  ASSERT_TRUE((*db)->Insert("students", Scb("s1", "c1", "b1")).ok());
  ASSERT_TRUE((*db)->Checkpoint().ok());
  uint64_t skipped_before = (*db)->MetricsSnapshot().counter(
      "nf2_checkpoint_tables_skipped_total");
  // Nothing changed: the whole relation is skipped without even a diff.
  ASSERT_TRUE((*db)->Checkpoint().ok());
  EXPECT_GT((*db)->MetricsSnapshot().counter(
                "nf2_checkpoint_tables_skipped_total"),
            skipped_before);
}

TEST_F(DatabaseTest, DropCreateCycleSurvivesStaleManifest) {
  Schema schema = Schema::OfStrings({"K", "P"});
  const std::string crash_dir = dir_ + "_crash_image";
  std::filesystem::remove_all(crash_dir);
  {
    auto db = Database::Open(dir_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateRelation("r", schema, {0, 1}).ok());
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE((*db)->Insert("r", FlatTuple{V(StrCat("k", i).c_str()),
                                               V("v")})
                      .ok());
    }
    // Manifest now maps r.tbl's pages.
    ASSERT_TRUE((*db)->Checkpoint().ok());
    // Drop the mapped file and re-create the same name on top.
    ASSERT_TRUE((*db)->DropRelation("r").ok());
    ASSERT_TRUE((*db)->CreateRelation("r", schema, {0, 1}).ok());
    ASSERT_TRUE((*db)->Insert("r", FlatTuple{V("fresh"), V("row")}).ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          (*db)->Insert("r", FlatTuple{V(StrCat("f", i).c_str()), V("x")})
              .ok());
    }
    // Photograph the directory BEFORE the clean-close checkpoint maps
    // the new r.tbl: the DROP already made a manifest without the old
    // mapping durable and removed the old file, so the image holds a
    // catalog naming the fresh r, no mapping and no file for it —
    // exactly what a crash between DROP/CREATE and the next checkpoint
    // leaves.
    std::filesystem::copy(dir_, crash_dir,
                          std::filesystem::copy_options::recursive);
  }
  // No mapping can be stale: recovery starts the unmapped r empty and
  // rebuilds it from the WAL (DROP, CREATE, then the inserts).
  auto db = Database::Open(crash_dir);
  ASSERT_TRUE(db.ok()) << db.status();
  Result<FlatRelation> scan = (*db)->Scan("r");
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->size(), 4u);
  EXPECT_TRUE((*db)->VerifyIntegrity().ok());
  db->reset();
  std::filesystem::remove_all(crash_dir);
}

TEST_F(DatabaseTest, CorruptManifestFailsRecoveryClosed) {
  std::string manifest_path;
  {
    auto db = Database::Open(dir_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(CreateStudents(db->get()).ok());
    ASSERT_TRUE((*db)->Insert("students", Scb("s1", "c1", "b1")).ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
    manifest_path =
        (std::filesystem::path(dir_) / "MANIFEST.nf2").string();
    ASSERT_TRUE(std::filesystem::exists(manifest_path));
  }
  // Flip one byte of the manifest: recovery must refuse to guess a
  // page mapping (fail closed), not silently load mixed pages.
  Result<std::string> bytes =
      Env::Default()->ReadFileToString(manifest_path);
  ASSERT_TRUE(bytes.ok());
  std::string mutated = *bytes;
  mutated[mutated.size() / 2] ^= 0x01;
  ASSERT_TRUE(
      Env::Default()->WriteFileAtomic(manifest_path, mutated).ok());
  auto db = Database::Open(dir_);
  EXPECT_EQ(db.status().code(), StatusCode::kCorruption);
}

TEST_F(DatabaseTest, DeletedManifestFailsOpenClosed) {
  {
    auto db = Database::Open(dir_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(CreateStudents(db->get()).ok());
    ASSERT_TRUE((*db)->Insert("students", Scb("s1", "c1", "b1")).ok());
    ASSERT_TRUE((*db)->Insert("students", Scb("s2", "c2", "b2")).ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  // The manifest is the only way a table file is read, and the
  // checkpoint truncated the CREATE record replay would need: without
  // the manifest, Open must refuse, naming the relation, rather than
  // serve an empty one.
  ASSERT_TRUE(std::filesystem::remove(
      std::filesystem::path(dir_) / "MANIFEST.nf2"));
  auto db = Database::Open(dir_);
  ASSERT_EQ(db.status().code(), StatusCode::kCorruption) << db.status();
  EXPECT_NE(db.status().message().find("'students'"), std::string::npos)
      << db.status();
}

TEST_F(DatabaseTest, MissingMappedTableFileFailsOpenClosed) {
  {
    auto db = Database::Open(dir_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)
                    ->CreateRelation("acct",
                                     Schema::OfStrings({"Owner", "Asset"}),
                                     {1, 0})
                    .ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE((*db)
                      ->Insert("acct", FlatTuple{V(StrCat("o", i).c_str()),
                                                 V(StrCat("a", i).c_str())})
                      .ok());
    }
  }  // A clean close checkpoints: MANIFEST.nf2 now maps acct.tbl.
  ASSERT_TRUE(
      std::filesystem::remove(std::filesystem::path(dir_) / "acct.tbl"));
  // 50 acknowledged rows live only in that file; opening without them
  // would make the loss permanent at the next checkpoint.
  auto db = Database::Open(dir_);
  ASSERT_EQ(db.status().code(), StatusCode::kCorruption) << db.status();
  EXPECT_NE(db.status().message().find("acct.tbl"), std::string::npos)
      << db.status();
}

TEST_F(DatabaseTest, CreateWritesNoTableFileAndRecoversFromTheLog) {
  {
    auto db = Database::Open(dir_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(CreateStudents(db->get()).ok());
    ASSERT_TRUE((*db)->Insert("students", Scb("s1", "c1", "b1")).ok());
    EXPECT_FALSE(
        std::filesystem::exists(std::filesystem::path(dir_) / "students.tbl"));
    // Crash: no shutdown checkpoint.
    (void)db->release();
  }
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok()) << db.status();
  Result<FlatRelation> scan = (*db)->Scan("students");
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->size(), 1u);
}

TEST_F(DatabaseTest, DropUnmapsTheFileBeforeRemovingIt) {
  const std::filesystem::path dir(dir_);
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(CreateStudents(db->get()).ok());
  ASSERT_TRUE((*db)->Insert("students", Scb("s1", "c1", "b1")).ok());
  ASSERT_TRUE((*db)->Checkpoint().ok());
  ASSERT_TRUE(std::filesystem::exists(dir / "students.tbl"));
  ASSERT_TRUE((*db)->DropRelation("students").ok());
  // Without a checkpoint in between, the durable manifest already lacks
  // the mapping, and the file is gone.
  Result<Manifest> manifest =
      LoadManifest(Env::Default(), (dir / "MANIFEST.nf2").string());
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  EXPECT_EQ(manifest->tables.count("students.tbl"), 0u);
  EXPECT_FALSE(std::filesystem::exists(dir / "students.tbl"));
}

TEST_F(DatabaseTest, OpenFinishesADropCutBeforeItsManifestSave) {
  const std::filesystem::path dir(dir_);
  const std::string crash_dir = dir_ + "_crash_image";
  std::filesystem::remove_all(crash_dir);
  std::string mapped_manifest;
  std::string mapped_file;
  {
    auto db = Database::Open(dir_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)
                    ->CreateRelation("r", Schema::OfStrings({"K", "P"}),
                                     {0, 1})
                    .ok());
    ASSERT_TRUE((*db)->Insert("r", FlatTuple{V("k"), V("p")}).ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
    mapped_manifest =
        *Env::Default()->ReadFileToString((dir / "MANIFEST.nf2").string());
    mapped_file = *Env::Default()->ReadFileToString((dir / "r.tbl").string());
    ASSERT_TRUE((*db)->DropRelation("r").ok());
  }
  // Put the manifest that maps r.tbl and the file back: the state of a
  // DROP cut after its catalog save (the catalog no longer names r).
  ASSERT_TRUE(Env::Default()
                  ->WriteFileAtomic((dir / "MANIFEST.nf2").string(),
                                    mapped_manifest)
                  .ok());
  ASSERT_TRUE(Env::Default()
                  ->WriteFileAtomic((dir / "r.tbl").string(), mapped_file)
                  .ok());
  {
    auto db = Database::Open(dir_);
    ASSERT_TRUE(db.ok()) << db.status();
    EXPECT_FALSE((*db)->Info("r").ok());
    Result<Manifest> manifest =
        LoadManifest(Env::Default(), (dir / "MANIFEST.nf2").string());
    ASSERT_TRUE(manifest.ok()) << manifest.status();
    EXPECT_EQ(manifest->tables.count("r.tbl"), 0u);
    EXPECT_FALSE(std::filesystem::exists(dir / "r.tbl"));
    // A new r of another shape must never meet the old mapping.
    ASSERT_TRUE((*db)
                    ->CreateRelation("r", Schema::OfStrings({"A", "B", "C"}),
                                     {0, 1, 2})
                    .ok());
    ASSERT_TRUE((*db)->Insert("r", FlatTuple{V("a"), V("b"), V("c")}).ok());
    std::filesystem::copy(dir_, crash_dir,
                          std::filesystem::copy_options::recursive);
  }
  auto db = Database::Open(crash_dir);
  ASSERT_TRUE(db.ok()) << db.status();
  Result<FlatRelation> scan = (*db)->Scan("r");
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->size(), 1u);
  EXPECT_EQ(scan->schema().degree(), 3u);
  db->reset();
  std::filesystem::remove_all(crash_dir);
}

TEST_F(DatabaseTest, ManifestWithoutCatalogFailsOpenClosed) {
  {
    auto db = Database::Open(dir_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(CreateStudents(db->get()).ok());
    ASSERT_TRUE((*db)->Insert("students", Scb("s1", "c1", "b1")).ok());
  }
  ASSERT_TRUE(
      std::filesystem::remove(std::filesystem::path(dir_) / "catalog.nf2"));
  // Every mapping would look like a DROP to finish; deleting the table
  // files on a lost catalog is not recovery.
  auto db = Database::Open(dir_);
  EXPECT_EQ(db.status().code(), StatusCode::kCorruption) << db.status();
  EXPECT_TRUE(
      std::filesystem::exists(std::filesystem::path(dir_) / "students.tbl"));
}

// A publish shares every chunk a commit did not touch: between two
// snapshots around one autocommit insert and one delete, the tuples at
// all but a few chunks' worth of positions are the very same objects,
// at 1k rows as at 20k.
TEST_F(DatabaseTest, PublishSharesUntouchedTuplesWithThePreviousSnapshot) {
  for (int64_t rows : {1000, 20000}) {
    SCOPED_TRACE(rows);
    const std::string dir = StrCat(dir_, "_", rows);
    std::filesystem::remove_all(dir);
    Database::Options options;
    options.sync_wal = false;
    auto db = Database::Open(dir, options);
    ASSERT_TRUE(db.ok()) << db.status();
    const Schema schema({Attribute{"k", ValueType::kInt},
                         Attribute{"g", ValueType::kInt},
                         Attribute{"v", ValueType::kInt}});
    ASSERT_TRUE((*db)->CreateRelation("kv", schema, {0, 1, 2}).ok());
    auto row = [](int64_t k) {
      return FlatTuple{V(k), V(k % 64), V(k * 7 % 1000)};
    };
    ASSERT_TRUE((*db)->Begin().ok());
    for (int64_t k = 0; k < rows; ++k) {
      ASSERT_TRUE((*db)->Insert("kv", row(k)).ok());
    }
    ASSERT_TRUE((*db)->Commit().ok());

    std::shared_ptr<const DatabaseSnapshot> before = (*db)->PinSnapshot();
    ASSERT_TRUE((*db)->Insert("kv", row(rows)).ok());
    ASSERT_TRUE((*db)->Delete("kv", row(rows / 2)).ok());
    std::shared_ptr<const DatabaseSnapshot> after = (*db)->PinSnapshot();

    const NfrRelation& a = **before->Relation("kv");
    const NfrRelation& b = **after->Relation("kv");
    ASSERT_GT(a.size(), 10 * kCowChunkSize);
    size_t differing = a.size() > b.size() ? a.size() - b.size()
                                           : b.size() - a.size();
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      if (&a.tuple(i) != &b.tuple(i)) ++differing;
    }
    // The insert writes the last chunk; the delete writes the chunk of
    // the tuple it splits, the last chunk, and the chunk of a tuple the
    // split-off remainder recomposes with. None of it grows with |R|.
    EXPECT_LE(differing, 4 * kCowChunkSize);
    // The older snapshot still answers as of its own publish.
    EXPECT_EQ(a.ExpandedSize(), static_cast<uint64_t>(rows));
    EXPECT_TRUE(a.ExpansionContains(row(rows / 2)));
    EXPECT_FALSE(a.ExpansionContains(row(rows)));
    EXPECT_FALSE(b.ExpansionContains(row(rows / 2)));
    EXPECT_TRUE(b.ExpansionContains(row(rows)));
    before.reset();
    after.reset();
    db->reset();
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace nf2
