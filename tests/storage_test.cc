#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include "core/nest.h"
#include "engine/database.h"
#include "storage/checkpoint.h"
#include "storage/fault_injection_env.h"
#include "storage/heap_file.h"
#include "storage/page.h"
#include "storage/serde.h"
#include "storage/wal.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace nf2 {
namespace {

/// Creates a fresh scratch directory per test and removes it after.
class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("nf2_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

TEST_F(StorageTest, PageInsertRead) {
  Page page;
  std::optional<uint16_t> s0 = page.Insert("record zero");
  std::optional<uint16_t> s1 = page.Insert("record one");
  ASSERT_TRUE(s0.has_value());
  ASSERT_TRUE(s1.has_value());
  EXPECT_EQ(*page.Read(*s0), "record zero");
  EXPECT_EQ(*page.Read(*s1), "record one");
  EXPECT_EQ(page.Read(99).status().code(), StatusCode::kOutOfRange);
  Result<std::vector<std::string>> records = page.Records();
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(*records, (std::vector<std::string>{"record zero", "record one"}));
}

TEST_F(StorageTest, PageFillsUpThenRejects) {
  Page page;
  std::string record(100, 'x');
  size_t inserted = 0;
  while (page.Insert(record).has_value()) {
    ++inserted;
  }
  // ~4096 / 104 ≈ 39 records.
  EXPECT_GT(inserted, 30u);
  EXPECT_LT(inserted, 45u);
  EXPECT_FALSE(page.Insert(record).has_value());
}

namespace {
/// Overwrites the little-endian u16 at `pos` of a page image.
void PokeU16(Page* page, size_t pos, uint16_t v) {
  std::memcpy(page->mutable_data() + pos, &v, sizeof(v));
}
}  // namespace

TEST_F(StorageTest, PageReadBoundsTheSlotDirectory) {
  // A header claiming more slots than a page holds: the directory entry
  // of slot 1100 would lie past the 4096-byte image. Reading it must
  // be Corruption, never a read past the page buffer.
  Page page;
  PokeU16(&page, 0, 0xffff);
  EXPECT_EQ(page.Read(1100).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(page.Records().status().code(), StatusCode::kCorruption);
}

TEST_F(StorageTest, PageRecordsReportADamagedSlot) {
  Page page;
  ASSERT_TRUE(page.Insert("a").has_value());
  ASSERT_TRUE(page.Insert("b").has_value());
  ASSERT_TRUE(page.Insert("c").has_value());
  // Slot 1's length now runs past the page end: one bad slot must fail
  // the whole page, not silently drop a record.
  PokeU16(&page, 4 + 4 * 1 + 2, 0x2000);
  EXPECT_EQ(page.Read(1).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(page.Records().status().code(), StatusCode::kCorruption);
}

TEST_F(StorageTest, HeapFileCreateWriteRead) {
  auto hf = HeapFile::Create(Env::Default(), Path("t.nf2"));
  ASSERT_TRUE(hf.ok());
  EXPECT_EQ((*hf)->page_count(), 0u);
  Page page;
  page.Insert("persisted");
  ASSERT_TRUE((*hf)->WritePageAt(0, page).ok());
  EXPECT_EQ((*hf)->page_count(), 1u);
  ASSERT_TRUE((*hf)->Sync().ok());

  Page loaded;
  ASSERT_TRUE((*hf)->ReadPage(0, &loaded).ok());
  EXPECT_EQ(*loaded.Read(0), "persisted");
}

TEST_F(StorageTest, HeapFileReopenSeesData) {
  {
    auto hf = HeapFile::Create(Env::Default(), Path("t.nf2"));
    ASSERT_TRUE(hf.ok());
    Page empty;
    ASSERT_TRUE((*hf)->WritePageAt(0, empty).ok());
    Page page;
    page.Insert("second page record");
    ASSERT_TRUE((*hf)->WritePageAt(1, page).ok());
  }
  auto reopened = HeapFile::Open(Env::Default(), Path("t.nf2"));
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->page_count(), 2u);
  Page loaded;
  ASSERT_TRUE((*reopened)->ReadPage(1, &loaded).ok());
  EXPECT_EQ(*loaded.Read(0), "second page record");
}

TEST_F(StorageTest, HeapFileErrors) {
  EXPECT_EQ(HeapFile::Open(Env::Default(), Path("missing.nf2"))
                .status()
                .code(),
            StatusCode::kNotFound);
  auto hf = HeapFile::Create(Env::Default(), Path("t.nf2"));
  ASSERT_TRUE(hf.ok());
  Page page;
  EXPECT_EQ((*hf)->ReadPage(5, &page).code(), StatusCode::kOutOfRange);
  // Writes may extend the file by one page at most.
  EXPECT_EQ((*hf)->WritePageAt(5, page).code(), StatusCode::kOutOfRange);
}

TEST_F(StorageTest, WalAppendAndReadAll) {
  auto wal = WriteAheadLog::Open(Path("wal.log"));
  ASSERT_TRUE(wal.ok());
  WalRecord r1{0, WalOpType::kInsert, "students", "tuple-bytes"};
  WalRecord r2{0, WalOpType::kDelete, "students", "other-bytes"};
  ASSERT_TRUE((*wal)->Append(r1).ok());
  ASSERT_TRUE((*wal)->Append(r2).ok());
  auto read = (*wal)->ReadAll();
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->clean_eof);
  const std::vector<WalRecord>& records = read->records;
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].lsn, 1u);
  EXPECT_EQ(records[1].lsn, 2u);
  EXPECT_EQ(records[0].type, WalOpType::kInsert);
  EXPECT_EQ(records[1].payload, "other-bytes");
}

TEST_F(StorageTest, WalLsnsContinueAcrossReopen) {
  {
    auto wal = WriteAheadLog::Open(Path("wal.log"));
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(
        (*wal)->Append({0, WalOpType::kInsert, "r", "x"}).ok());
  }
  auto wal = WriteAheadLog::Open(Path("wal.log"));
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ((*wal)->next_lsn(), 2u);
  Result<uint64_t> lsn = (*wal)->Append({0, WalOpType::kDelete, "r", "y"});
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 2u);
}

TEST_F(StorageTest, WalTornTailIsIgnored) {
  {
    auto wal = WriteAheadLog::Open(Path("wal.log"));
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append({0, WalOpType::kInsert, "r", "ok"}).ok());
  }
  // Simulate a crash mid-append: garbage half-frame at the tail.
  {
    std::ofstream f(Path("wal.log"), std::ios::binary | std::ios::app);
    uint32_t bogus_len = 1000;
    f.write(reinterpret_cast<const char*>(&bogus_len), 4);
    f << "partial";
  }
  auto wal = WriteAheadLog::Open(Path("wal.log"));
  ASSERT_TRUE(wal.ok());
  // Open cut the garbage off, and the surviving prefix is cached.
  EXPECT_TRUE((*wal)->truncated_on_open());
  ASSERT_EQ((*wal)->recovered_records().size(), 1u);
  EXPECT_EQ((*wal)->recovered_records()[0].payload, "ok");
  auto read = (*wal)->ReadAll();
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->clean_eof);  // The tail is gone from disk.
  ASSERT_EQ(read->records.size(), 1u);
  EXPECT_EQ(read->records[0].payload, "ok");
}

TEST_F(StorageTest, WalAppendAfterTornTailKeepsNewRecords) {
  // Regression: records appended after a torn tail used to land AFTER
  // the garbage, so replay (which stops at the first bad frame) would
  // silently drop them at the next open. Open must truncate first.
  {
    auto wal = WriteAheadLog::Open(Path("wal.log"));
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append({0, WalOpType::kInsert, "r", "one"}).ok());
  }
  {
    std::ofstream f(Path("wal.log"), std::ios::binary | std::ios::app);
    uint32_t bogus_len = 1000;
    f.write(reinterpret_cast<const char*>(&bogus_len), 4);
    f << "partial";
  }
  {
    auto wal = WriteAheadLog::Open(Path("wal.log"));
    ASSERT_TRUE(wal.ok());
    EXPECT_TRUE((*wal)->truncated_on_open());
    ASSERT_TRUE((*wal)->Append({0, WalOpType::kInsert, "r", "two"}).ok());
    ASSERT_TRUE((*wal)->Append({0, WalOpType::kInsert, "r", "three"}).ok());
  }
  auto wal = WriteAheadLog::Open(Path("wal.log"));
  ASSERT_TRUE(wal.ok());
  EXPECT_FALSE((*wal)->truncated_on_open());
  const std::vector<WalRecord>& records = (*wal)->recovered_records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].payload, "one");
  EXPECT_EQ(records[1].payload, "two");
  EXPECT_EQ(records[2].payload, "three");
}

TEST_F(StorageTest, WalCorruptedRecordStopsReplay) {
  {
    auto wal = WriteAheadLog::Open(Path("wal.log"));
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append({0, WalOpType::kInsert, "r", "first"}).ok());
    ASSERT_TRUE((*wal)->Append({0, WalOpType::kInsert, "r", "second"}).ok());
  }
  // Flip a byte inside the second frame's payload.
  {
    std::fstream f(Path("wal.log"),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(0, std::ios::end);
    std::streamoff size = f.tellg();
    f.seekp(size - 8);
    f.put('!');
  }
  auto wal = WriteAheadLog::Open(Path("wal.log"));
  ASSERT_TRUE(wal.ok());
  EXPECT_TRUE((*wal)->truncated_on_open());
  const std::vector<WalRecord>& records = (*wal)->recovered_records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].payload, "first");
}

TEST_F(StorageTest, WalReset) {
  auto wal = WriteAheadLog::Open(Path("wal.log"));
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append({0, WalOpType::kInsert, "r", "x"}).ok());
  ASSERT_TRUE((*wal)->Reset().ok());
  auto read = (*wal)->ReadAll();
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->records.empty());
  EXPECT_TRUE(read->clean_eof);
  // The truncate does NOT rewind the LSN counter (positions are
  // globally monotone; see WalPosition): the next append continues the
  // sequence under a bumped epoch.
  EXPECT_EQ((*wal)->next_lsn(), 2u);
  EXPECT_EQ((*wal)->epoch(), 1u);
  EXPECT_EQ((*wal)->epoch_base_lsn(), 2u);
}

TEST_F(StorageTest, WalResetNeverReissuesAnLsn) {
  // Regression: Reset() used to rewind next_lsn_ to 1, so the record
  // after a truncate reused the position of a record before it — a log
  // shipper that saw both would silently drop the second as a
  // duplicate. Positions must be strictly monotone across Reset.
  auto wal = WriteAheadLog::Open(Path("wal.log"));
  ASSERT_TRUE(wal.ok());
  std::vector<uint64_t> lsns;
  for (int i = 0; i < 3; ++i) {
    auto lsn = (*wal)->Append({0, WalOpType::kInsert, "r", StrCat("a", i)});
    ASSERT_TRUE(lsn.ok());
    lsns.push_back(*lsn);
  }
  ASSERT_TRUE((*wal)->Reset().ok());
  for (int i = 0; i < 3; ++i) {
    auto lsn = (*wal)->Append({0, WalOpType::kInsert, "r", StrCat("b", i)});
    ASSERT_TRUE(lsn.ok());
    lsns.push_back(*lsn);
  }
  for (size_t i = 1; i < lsns.size(); ++i) {
    EXPECT_GT(lsns[i], lsns[i - 1]) << "position " << i;
  }
}

TEST_F(StorageTest, WalAdoptDurablePositionSurvivesReopen) {
  // After Reset() + close, the log file is empty — a bare reopen would
  // restart LSNs at 1. The checkpoint manifest persists the position;
  // AdoptDurablePosition folds it forward at recovery.
  uint64_t last_lsn = 0;
  {
    auto wal = WriteAheadLog::Open(Path("wal.log"));
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 5; ++i) {
      auto lsn = (*wal)->Append({0, WalOpType::kInsert, "r", "x"});
      ASSERT_TRUE(lsn.ok());
      last_lsn = *lsn;
    }
    ASSERT_TRUE((*wal)->Reset().ok());
  }
  auto wal = WriteAheadLog::Open(Path("wal.log"));
  ASSERT_TRUE(wal.ok());
  (*wal)->AdoptDurablePosition(/*epoch=*/1, /*base_lsn=*/last_lsn + 1);
  EXPECT_EQ((*wal)->epoch(), 1u);
  auto lsn = (*wal)->Append({0, WalOpType::kInsert, "r", "y"});
  ASSERT_TRUE(lsn.ok());
  EXPECT_GT(*lsn, last_lsn);
  // Folding is forward-only: a stale (older) manifest cannot rewind.
  (*wal)->AdoptDurablePosition(/*epoch=*/0, /*base_lsn=*/1);
  EXPECT_EQ((*wal)->epoch(), 1u);
  EXPECT_EQ((*wal)->next_lsn(), *lsn + 1);
}

TEST_F(StorageTest, WalResetFailureFailsClosed) {
  // Regression: when Reset() could not reopen the log file, Append kept
  // writing through the stale (closed) handle. It must fail closed —
  // every Append returns a status until a later Reset succeeds.
  FaultInjectionEnv fenv(Env::Default(), /*seed=*/7);
  auto wal = WriteAheadLog::Open(&fenv, Path("wal.log"), {});
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append({0, WalOpType::kInsert, "r", "a"}).ok());
  fenv.Arm(1);  // The next mutating operation dies mid-syscall.
  Status reset = (*wal)->Reset();
  ASSERT_FALSE(reset.ok());
  Result<uint64_t> append = (*wal)->Append({0, WalOpType::kInsert, "r", "b"});
  ASSERT_FALSE(append.ok());
  EXPECT_EQ(append.status().code(), StatusCode::kIOError);
  // Service resumes once a Reset goes through.
  fenv.Arm(1u << 30);  // Clears the kill flag; trigger far away.
  ASSERT_TRUE((*wal)->Reset().ok());
  auto lsn = (*wal)->Append({0, WalOpType::kInsert, "r", "c"});
  ASSERT_TRUE(lsn.ok());
}

TEST_F(StorageTest, WalReleaseRecoveredRecordsFreesTheCache) {
  {
    auto wal = WriteAheadLog::Open(Path("wal.log"));
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE((*wal)->Append({0, WalOpType::kInsert, "r", "x"}).ok());
    }
  }
  auto wal = WriteAheadLog::Open(Path("wal.log"));
  ASSERT_TRUE(wal.ok());
  ASSERT_EQ((*wal)->recovered_records().size(), 4u);
  (*wal)->ReleaseRecoveredRecords();
  EXPECT_TRUE((*wal)->recovered_records().empty());
  // The file itself is untouched: ReadAll still re-scans on demand.
  auto read = (*wal)->ReadAll();
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records.size(), 4u);
}

TEST_F(StorageTest, WalTailSubscriptionSeesAppendsAndTruncate) {
  auto wal = WriteAheadLog::Open(Path("wal.log"));
  ASSERT_TRUE(wal.ok());
  std::shared_ptr<WalTailSubscription> tail = (*wal)->SubscribeTail();
  ASSERT_TRUE((*wal)->Append({0, WalOpType::kInsert, "r", "one"}).ok());
  ASSERT_TRUE((*wal)->Append({0, WalOpType::kInsert, "r", "two"}).ok());
  std::vector<WalTailEvent> events =
      tail->Poll(std::chrono::milliseconds(1000));
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, WalTailEvent::Kind::kRecord);
  EXPECT_EQ(events[0].record.payload, "one");
  EXPECT_EQ(events[1].record.lsn, 2u);
  ASSERT_TRUE((*wal)->Reset().ok());
  events = tail->Poll(std::chrono::milliseconds(1000));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, WalTailEvent::Kind::kTruncate);
  EXPECT_EQ(events[0].epoch, 1u);
  EXPECT_EQ(events[0].record.lsn, 3u);  // New epoch base.
  EXPECT_FALSE(tail->lost());
  EXPECT_FALSE(tail->closed());
}

TEST_F(StorageTest, WalTailSubscriptionOverflowLatchesLost) {
  auto wal = WriteAheadLog::Open(Path("wal.log"));
  ASSERT_TRUE(wal.ok());
  std::shared_ptr<WalTailSubscription> tail =
      (*wal)->SubscribeTail(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*wal)->Append({0, WalOpType::kInsert, "r", "x"}).ok());
  }
  EXPECT_TRUE(tail->lost());
  std::vector<WalTailEvent> events =
      tail->Poll(std::chrono::milliseconds(1000));
  EXPECT_LE(events.size(), 4u);  // Only the newest survive.
  EXPECT_EQ(events.back().record.lsn, 10u);
  tail->ClearLost();
  EXPECT_FALSE(tail->lost());
}

TEST_F(StorageTest, WalTailSubscriptionClosedOnDestruction) {
  std::shared_ptr<WalTailSubscription> tail;
  {
    auto wal = WriteAheadLog::Open(Path("wal.log"));
    ASSERT_TRUE(wal.ok());
    tail = (*wal)->SubscribeTail();
    ASSERT_TRUE((*wal)->Append({0, WalOpType::kInsert, "r", "x"}).ok());
  }
  EXPECT_TRUE(tail->closed());
  std::vector<WalTailEvent> events =
      tail->Poll(std::chrono::milliseconds(100));
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().kind, WalTailEvent::Kind::kClosed);
}

TEST_F(StorageTest, WalRandomCorruptionNeverCrashesAndKeepsPrefix) {
  // Property: flipping any single byte of the log yields, at worst, a
  // clean prefix of the original records — never a crash, never a
  // corrupted record passed through.
  std::vector<WalRecord> original;
  {
    auto wal = WriteAheadLog::Open(Path("wal.log"));
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 6; ++i) {
      WalRecord r{0, i % 2 == 0 ? WalOpType::kInsert : WalOpType::kDelete,
                  StrCat("rel", i), StrCat("payload-", i)};
      ASSERT_TRUE((*wal)->Append(r).ok());
    }
    auto all = (*wal)->ReadAll();
    ASSERT_TRUE(all.ok());
    original = all->records;
  }
  std::ifstream in(Path("wal.log"), std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  Rng rng(1234);
  for (int trial = 0; trial < 60; ++trial) {
    std::string corrupted = bytes;
    size_t pos = rng.NextBelow(corrupted.size());
    corrupted[pos] = static_cast<char>(corrupted[pos] ^
                                       (1u << rng.NextBelow(8)));
    std::string path = Path(StrCat("wal_fuzz_", trial, ".log"));
    {
      std::ofstream out(path, std::ios::binary);
      out << corrupted;
    }
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    const std::vector<WalRecord>& records = (*wal)->recovered_records();
    ASSERT_LE(records.size(), original.size());
    for (size_t i = 0; i < records.size(); ++i) {
      // Each surviving record is bit-exact (CRC catches payload damage)
      // OR the damage hit this record and truncated the log before it.
      EXPECT_EQ(records[i], original[i]) << "trial " << trial;
    }
  }
}

// ---- Table pages and the checkpoint manifest (DESIGN.md §12) ---------

namespace {
/// A relation big enough to span several pages: `n` tuples with a
/// payload string so each record is a few hundred bytes.
NfrRelation BulkRelation(const Schema& schema, size_t n,
                         const std::string& tag) {
  NfrRelation rel(schema);
  for (size_t i = 0; i < n; ++i) {
    rel.Add(NfrTuple{ValueSet(V(StrCat(tag, "_k", i).c_str())),
                     ValueSet(V(std::string(200, 'p').c_str()))});
  }
  return rel;
}

Manifest SampleManifest() {
  Manifest m;
  m.checkpoint_seq = 7;
  m.dict_size = 42;
  TableManifest t;
  t.physical_pages = 5;
  t.pages = {{0, 1, 0x1111}, {3, 7, 0x2222}, {1, 6, 0x3333}};
  m.tables.emplace("acct.tbl", t);
  TableManifest u;
  u.physical_pages = 1;
  u.pages = {{0, 2, 0x4444}};
  m.tables.emplace("dept.tbl", u);
  m.wal_epoch = 3;
  m.wal_base_lsn = 99;
  return m;
}

/// A manifest file body (payload + CRC trailer) around `payload`.
std::string StampManifest(const std::string& payload) {
  BufferWriter file;
  file.PutRaw(payload);
  file.PutU32(Crc32(payload));
  return file.data();
}

/// Replaces the page image behind `entry`'s logical page `logical` with
/// `page`, and re-stamps the mapping's CRC so the damage reaches the
/// page decoder instead of the checksum check.
void ReplaceMappedPage(const std::string& path, TableManifest* entry,
                       size_t logical, const Page& page) {
  auto file = HeapFile::Open(Env::Default(), path);
  ASSERT_TRUE(file.ok()) << file.status();
  PageVersion& pv = entry->pages[logical];
  ASSERT_TRUE((*file)->WritePageAt(pv.physical, page).ok());
  pv.crc = Crc32(std::string_view(page.data(), kPageSize));
}

Page ReadMappedPage(const std::string& path, const TableManifest& entry,
                    size_t logical) {
  Page page;
  auto file = HeapFile::Open(Env::Default(), path);
  EXPECT_TRUE(file.ok()) << file.status();
  if (file.ok()) {
    EXPECT_TRUE(
        (*file)->ReadPage(entry.pages[logical].physical, &page).ok());
  }
  return page;
}
}  // namespace

TEST_F(StorageTest, SerializeTablePagesRejectsBadInputs) {
  Schema schema = Schema::OfStrings({"A"});
  // One giant string value larger than a page.
  NfrRelation huge(schema);
  huge.Add(
      NfrTuple{ValueSet(Value::String(std::string(kPageSize + 100, 'x')))});
  EXPECT_EQ(SerializeTablePages(schema, {0}, huge).status().code(),
            StatusCode::kInvalidArgument);
  NfrRelation wrong(Schema::OfStrings({"Z"}));
  EXPECT_EQ(SerializeTablePages(schema, {0}, wrong).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(StorageTest, TableMetaRoundTripsAndRejectsBadNestOrders) {
  Schema schema = Schema::OfStrings({"A", "B"});
  Result<TableMeta> meta = DecodeTableMeta(EncodeTableMeta({schema, {1, 0}}));
  ASSERT_TRUE(meta.ok()) << meta.status();
  EXPECT_EQ(meta->schema, schema);
  EXPECT_EQ(meta->nest_order, (Permutation{1, 0}));
  EXPECT_EQ(DecodeTableMeta(EncodeTableMeta({schema, {0}})).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(DecodeTableMeta(EncodeTableMeta({schema, {0, 0}})).status().code(),
            StatusCode::kCorruption);
}

TEST_F(StorageTest, DecodeTableMetaRejectsHugeNestOrderCount) {
  Schema schema = Schema::OfStrings({"A", "B"});
  std::string meta = EncodeTableMeta({schema, {0, 1}});
  BufferWriter schema_bytes;
  EncodeSchema(schema, &schema_bytes);
  // The nest-order count follows the magic and the schema. Announce
  // 2^32-1 positions: decoding must fail on the bytes left, not
  // reserve() them first.
  const size_t count_at = 4 + schema_bytes.size();
  ASSERT_LE(count_at + 4, meta.size());
  std::memset(meta.data() + count_at, 0xff, 4);
  EXPECT_EQ(DecodeTableMeta(meta).status().code(), StatusCode::kCorruption);
}

TEST_F(StorageTest, ManifestRoundTripThroughFile) {
  Manifest m = SampleManifest();
  ASSERT_TRUE(SaveManifestAtomic(Env::Default(), Path("MANIFEST.nf2"), m).ok());
  Result<Manifest> loaded = LoadManifest(Env::Default(), Path("MANIFEST.nf2"));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(*loaded, m);
}

TEST_F(StorageTest, ManifestMissingIsNotFound) {
  Result<Manifest> loaded = LoadManifest(Env::Default(), Path("nope.nf2"));
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST_F(StorageTest, ManifestOfAnotherFormatVersionNamesBothVersions) {
  // The header every earlier build wrote: magic "NF2C", then a plain 1.
  BufferWriter payload;
  payload.PutU32(0x4e463243);
  payload.PutU32(1);
  payload.PutU64(1);
  payload.PutU64(0);
  payload.PutU32(0);
  ASSERT_TRUE(Env::Default()
                  ->WriteFileAtomic(Path("MANIFEST.nf2"),
                                    StampManifest(payload.data()))
                  .ok());
  Result<Manifest> loaded = LoadManifest(Env::Default(), Path("MANIFEST.nf2"));
  ASSERT_EQ(loaded.status().code(), StatusCode::kCorruption);
  const std::string& msg = loaded.status().message();
  EXPECT_NE(msg.find("format 0.1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("format 2.0"), std::string::npos) << msg;
}

TEST_F(StorageTest, CorruptManifestFailsClosed) {
  ASSERT_TRUE(SaveManifestAtomic(Env::Default(), Path("MANIFEST.nf2"),
                                 SampleManifest())
                  .ok());
  Result<std::string> bytes =
      Env::Default()->ReadFileToString(Path("MANIFEST.nf2"));
  ASSERT_TRUE(bytes.ok());
  // Every single-byte flip must be detected — the mapping decides which
  // physical page is live, so a wrong guess silently mixes versions.
  for (size_t pos : {size_t{0}, size_t{9}, bytes->size() / 2,
                     bytes->size() - 1}) {
    std::string mutated = *bytes;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x40);
    ASSERT_TRUE(
        Env::Default()->WriteFileAtomic(Path("MANIFEST.nf2"), mutated).ok());
    Result<Manifest> loaded =
        LoadManifest(Env::Default(), Path("MANIFEST.nf2"));
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
        << "flip at byte " << pos << " went undetected";
  }
}

TEST_F(StorageTest, TruncatedManifestFailsClosed) {
  ASSERT_TRUE(SaveManifestAtomic(Env::Default(), Path("MANIFEST.nf2"),
                                 SampleManifest())
                  .ok());
  Result<std::string> bytes =
      Env::Default()->ReadFileToString(Path("MANIFEST.nf2"));
  ASSERT_TRUE(bytes.ok());
  for (size_t keep : {size_t{0}, size_t{3}, size_t{10}, bytes->size() - 1}) {
    ASSERT_TRUE(Env::Default()
                    ->WriteFileAtomic(Path("MANIFEST.nf2"),
                                      bytes->substr(0, keep))
                    .ok());
    Result<Manifest> loaded =
        LoadManifest(Env::Default(), Path("MANIFEST.nf2"));
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
        << "truncation to " << keep << " bytes went undetected";
  }
}

TEST_F(StorageTest, LoadManifestRejectsHugePageCount) {
  Manifest m;
  TableManifest t;
  t.physical_pages = 0x7a7a7a7a;  // A marker: the page count follows it.
  t.pages = {{0, 1, 0x1111}};
  m.tables.emplace("acct.tbl", t);
  BufferWriter payload;
  EncodeManifest(m, &payload);
  std::string bytes = payload.data();
  const size_t marker = bytes.find(std::string(4, '\x7a'));
  ASSERT_NE(marker, std::string::npos);
  // A CRC-valid manifest announcing 2^32-1 pages must be Corruption,
  // not an attempt to reserve them.
  std::memset(bytes.data() + marker + 4, 0xff, 4);
  ASSERT_TRUE(Env::Default()
                  ->WriteFileAtomic(Path("MANIFEST.nf2"), StampManifest(bytes))
                  .ok());
  EXPECT_EQ(LoadManifest(Env::Default(), Path("MANIFEST.nf2")).status().code(),
            StatusCode::kCorruption);
}

TEST_F(StorageTest, CheckpointWithoutMappingWritesTheWholeFile) {
  Schema schema = Schema::OfStrings({"K", "P"});
  NfrRelation rel = BulkRelation(schema, 60, "a");
  // A stray file of the same name (say, from a checkpoint cut before
  // its manifest landed) is replaced wholesale, never diffed against.
  {
    std::ofstream stray(Path("r.tbl"), std::ios::binary);
    stray << std::string(3 * kPageSize, 'z');
  }
  TableManifest entry;
  Result<CheckpointDeltaStats> stats = CheckpointTableDelta(
      Env::Default(), Path("r.tbl"), schema, {1, 0}, rel, &entry,
      /*new_version=*/1);
  ASSERT_TRUE(stats.ok()) << stats.status();
  ASSERT_GT(entry.pages.size(), 3u) << "need a multi-page table for this test";
  EXPECT_EQ(stats->pages_written, entry.pages.size());
  EXPECT_EQ(stats->pages_skipped, 0u);
  EXPECT_EQ(entry.physical_pages, entry.pages.size());
  for (size_t i = 0; i < entry.pages.size(); ++i) {
    EXPECT_EQ(entry.pages[i].physical, i);
    EXPECT_EQ(entry.pages[i].version, 1u);
  }
  Result<MappedTable> mapped =
      ReadTableMapped(Env::Default(), Path("r.tbl"), entry);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_EQ(mapped->schema, schema);
  EXPECT_EQ(mapped->nest_order, (Permutation{1, 0}));
  EXPECT_TRUE(mapped->relation.EqualsAsSet(rel));
}

TEST_F(StorageTest, CheckpointDeltaWritesOnlyChangedPages) {
  Schema schema = Schema::OfStrings({"K", "P"});
  NfrRelation rel = BulkRelation(schema, 60, "a");
  TableManifest entry;
  ASSERT_TRUE(CheckpointTableDelta(Env::Default(), Path("r.tbl"), schema,
                                   {0, 1}, rel, &entry, 1)
                  .ok());
  const size_t total_pages = entry.pages.size();
  ASSERT_GT(total_pages, 3u) << "need a multi-page table for this test";
  // Append one tuple: only the last data page (and nothing else)
  // differs in the serialized image.
  rel.Add(NfrTuple{ValueSet(V("late_arrival")),
                   ValueSet(V(std::string(200, 'p').c_str()))});
  Result<CheckpointDeltaStats> stats = CheckpointTableDelta(
      Env::Default(), Path("r.tbl"), schema, {0, 1}, rel, &entry, 2);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GT(stats->pages_skipped, 0u);
  EXPECT_LE(stats->pages_written, 2u);
  EXPECT_EQ(stats->bytes_written, stats->pages_written * kPageSize);
  // The mapped read sees the new state, bit-exactly.
  Result<MappedTable> mapped =
      ReadTableMapped(Env::Default(), Path("r.tbl"), entry);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_TRUE(mapped->relation.EqualsAsSet(rel));
}

TEST_F(StorageTest, CheckpointDeltaPreservesOldMappedVersions) {
  Schema schema = Schema::OfStrings({"K", "P"});
  NfrRelation rel = BulkRelation(schema, 60, "a");
  TableManifest entry;
  ASSERT_TRUE(CheckpointTableDelta(Env::Default(), Path("r.tbl"), schema,
                                   {0, 1}, rel, &entry, 1)
                  .ok());
  TableManifest old_entry = entry;
  NfrRelation old_rel = rel;
  for (size_t i = 0; i < 20; ++i) {
    rel.Add(NfrTuple{ValueSet(V(StrCat("b_k", i).c_str())),
                     ValueSet(V(std::string(200, 'q').c_str()))});
  }
  ASSERT_TRUE(CheckpointTableDelta(Env::Default(), Path("r.tbl"), schema,
                                   {0, 1}, rel, &entry, 2)
                  .ok());
  // Shadow paging: the old manifest's slots are untouched, so a crash
  // before the new manifest lands still recovers the old state.
  Result<MappedTable> old_read =
      ReadTableMapped(Env::Default(), Path("r.tbl"), old_entry);
  ASSERT_TRUE(old_read.ok()) << old_read.status();
  EXPECT_TRUE(old_read->relation.EqualsAsSet(old_rel));
  Result<MappedTable> new_read =
      ReadTableMapped(Env::Default(), Path("r.tbl"), entry);
  ASSERT_TRUE(new_read.ok()) << new_read.status();
  EXPECT_TRUE(new_read->relation.EqualsAsSet(rel));
}

TEST_F(StorageTest, ReadTableMappedDetectsPageCorruption) {
  Schema schema = Schema::OfStrings({"K", "P"});
  NfrRelation rel = BulkRelation(schema, 60, "a");
  TableManifest entry;
  ASSERT_TRUE(CheckpointTableDelta(Env::Default(), Path("r.tbl"), schema,
                                   {0, 1}, rel, &entry, 1)
                  .ok());
  // Scribble into the middle of a mapped page.
  {
    std::fstream f(Path("r.tbl"),
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(static_cast<std::streamoff>(kPageSize) + 100);
    f.write("XXXX", 4);
  }
  Result<MappedTable> mapped =
      ReadTableMapped(Env::Default(), Path("r.tbl"), entry);
  EXPECT_EQ(mapped.status().code(), StatusCode::kCorruption);
}

TEST_F(StorageTest, ReadTableMappedRejectsAReplacedFile) {
  Schema schema = Schema::OfStrings({"K", "P"});
  TableManifest entry;
  ASSERT_TRUE(CheckpointTableDelta(Env::Default(), Path("r.tbl"), schema,
                                   {0, 1}, BulkRelation(schema, 60, "a"),
                                   &entry, 1)
                  .ok());
  // Replace the file wholesale underneath the mapping: the per-page
  // CRCs must refuse it rather than hand back a mix of old and new.
  TableManifest fresh;
  ASSERT_TRUE(CheckpointTableDelta(Env::Default(), Path("r.tbl"), schema,
                                   {0, 1}, BulkRelation(schema, 5, "fresh"),
                                   &fresh, 2)
                  .ok());
  EXPECT_EQ(ReadTableMapped(Env::Default(), Path("r.tbl"), entry)
                .status()
                .code(),
            StatusCode::kCorruption);
}

TEST_F(StorageTest, ReadTableMappedMissingFileIsCorruption) {
  Schema schema = Schema::OfStrings({"K", "P"});
  TableManifest entry;
  ASSERT_TRUE(CheckpointTableDelta(Env::Default(), Path("r.tbl"), schema,
                                   {0, 1}, BulkRelation(schema, 3, "a"),
                                   &entry, 1)
                  .ok());
  ASSERT_TRUE(std::filesystem::remove(Path("r.tbl")));
  Result<MappedTable> mapped =
      ReadTableMapped(Env::Default(), Path("r.tbl"), entry);
  EXPECT_EQ(mapped.status().code(), StatusCode::kCorruption);
  EXPECT_NE(mapped.status().message().find("r.tbl"), std::string::npos)
      << mapped.status();
}

TEST_F(StorageTest, ReadTableMappedRejectsARecordPastThePageEnd) {
  Schema schema = Schema::OfStrings({"K", "P"});
  TableManifest entry;
  ASSERT_TRUE(CheckpointTableDelta(Env::Default(), Path("r.tbl"), schema,
                                   {0, 1}, BulkRelation(schema, 3, "a"),
                                   &entry, 1)
                  .ok());
  ASSERT_EQ(entry.pages.size(), 1u);
  // Logical page 0 holds the metadata record in slot 0 and the three
  // tuples in slots 1-3. Stretch slot 3's length past the page end.
  Page page = ReadMappedPage(Path("r.tbl"), entry, 0);
  ASSERT_EQ(page.slot_count(), 4u);
  PokeU16(&page, 4 + 4 * 3 + 2, 0x2000);
  ReplaceMappedPage(Path("r.tbl"), &entry, 0, page);
  // One damaged slot loses a tuple unless the read fails closed.
  Result<MappedTable> mapped =
      ReadTableMapped(Env::Default(), Path("r.tbl"), entry);
  EXPECT_EQ(mapped.status().code(), StatusCode::kCorruption);
}

TEST_F(StorageTest, ReadTableMappedRejectsASlotDirectoryPastThePageEnd) {
  Schema schema = Schema::OfStrings({"K", "P"});
  TableManifest entry;
  ASSERT_TRUE(CheckpointTableDelta(Env::Default(), Path("r.tbl"), schema,
                                   {0, 1}, BulkRelation(schema, 60, "a"),
                                   &entry, 1)
                  .ok());
  ASSERT_GT(entry.pages.size(), 1u);
  // An empty page whose header claims 65535 slots: every directory
  // entry from slot 1023 on lies past the 4096-byte image.
  Page page;
  PokeU16(&page, 0, 0xffff);
  ReplaceMappedPage(Path("r.tbl"), &entry, 1, page);
  Result<MappedTable> mapped =
      ReadTableMapped(Env::Default(), Path("r.tbl"), entry);
  EXPECT_EQ(mapped.status().code(), StatusCode::kCorruption);
}

TEST_F(StorageTest, HeapFileFloorsATornTail) {
  {
    auto hf = HeapFile::Create(Env::Default(), Path("torn.heap"));
    ASSERT_TRUE(hf.ok());
    Page p;
    ASSERT_TRUE((*hf)->WritePageAt(0, p).ok());
    ASSERT_TRUE((*hf)->WritePageAt(1, p).ok());
    ASSERT_TRUE((*hf)->Sync().ok());
  }
  // Simulate a crash mid shadow-page append: a trailing partial page.
  {
    std::ofstream f(Path("torn.heap"),
                    std::ios::app | std::ios::binary);
    f.write("partial page bytes", 18);
  }
  auto reopened = HeapFile::Open(Env::Default(), Path("torn.heap"));
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->page_count(), 2u);
}

// ---- Seeded mutation fuzz over the one table format -------------------

namespace {
/// Damages `bytes` in place: a few random bytes XORed, set to 0x00 or
/// 0xff, or overwritten; when `resize` is set, sometimes truncated or
/// extended too. Offsets lean toward `hot_prefix` (headers, counts and
/// the slot directory live there).
void Mutate(std::string* bytes, size_t hot_prefix, bool resize, Rng* rng) {
  const int edits = 1 + static_cast<int>(rng->NextBelow(8));
  for (int e = 0; e < edits && !bytes->empty(); ++e) {
    const size_t span =
        rng->NextBool(0.5) ? std::min(hot_prefix, bytes->size())
                           : bytes->size();
    char& b = (*bytes)[rng->NextBelow(span)];
    switch (rng->NextBelow(4)) {
      case 0: b = static_cast<char>(b ^ (1 << rng->NextBelow(8))); break;
      case 1: b = '\x00'; break;
      case 2: b = '\xff'; break;
      default: b = static_cast<char>(rng->NextBelow(256)); break;
    }
  }
  if (resize && rng->NextBool(0.1)) {
    if (rng->NextBool(0.5)) {
      bytes->resize(rng->NextBelow(bytes->size() + 1));
    } else {
      bytes->append(rng->NextBelow(32), static_cast<char>(rng->NextBelow(256)));
    }
  }
}
}  // namespace

TEST_F(StorageTest, CheckpointDecodersSurviveSeededMutations) {
  // The corpus is what real checkpoints wrote: two relations, one with
  // set-valued components, checkpointed twice so the manifest maps
  // shadow slots.
  const std::string db_dir = Path("db");
  // Distinct payloads keep acct's rows from composing into one tuple,
  // so its table spans several pages.
  auto acct_row = [](int i) {
    return FlatTuple{V(StrCat("a", i).c_str()),
                     V(StrCat("p", i, "_", std::string(60, 'p')).c_str())};
  };
  {
    Database::Options opts;
    opts.enforce_fds = false;
    auto db = Database::Open(db_dir, opts);
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE((*db)
                    ->CreateRelation(
                        "takes",
                        Schema::OfStrings({"Student", "Course", "Club"}),
                        {2, 1, 0})
                    .ok());
    ASSERT_TRUE((*db)
                    ->CreateRelation("acct", Schema::OfStrings({"K", "P"}),
                                     {0, 1})
                    .ok());
    for (int i = 0; i < 120; ++i) {
      ASSERT_TRUE((*db)
                      ->Insert("takes",
                               FlatTuple{V(StrCat("s", i % 30).c_str()),
                                         V(StrCat("c", i % 7).c_str()),
                                         V(StrCat("k", i % 3).c_str())})
                      .ok());
      ASSERT_TRUE((*db)->Insert("acct", acct_row(i)).ok());
    }
    ASSERT_TRUE((*db)->Checkpoint().ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE((*db)->Delete("acct", acct_row(i * 7)).ok());
    }
  }  // Closing checkpoints incrementally.
  const std::string manifest_path = db_dir + "/MANIFEST.nf2";
  Result<Manifest> real = LoadManifest(Env::Default(), manifest_path);
  ASSERT_TRUE(real.ok()) << real.status();
  ASSERT_EQ(real->tables.size(), 2u);
  Result<std::string> manifest_file =
      Env::Default()->ReadFileToString(manifest_path);
  ASSERT_TRUE(manifest_file.ok());
  const std::string manifest_payload =
      manifest_file->substr(0, manifest_file->size() - 4);

  // Every mapped page image, paired with its table.
  struct MappedPage {
    std::string file;
    size_t logical;
    std::string image;
  };
  std::vector<MappedPage> corpus;
  for (const auto& [file, entry] : real->tables) {
    for (size_t l = 0; l < entry.pages.size(); ++l) {
      Page page = ReadMappedPage(db_dir + "/" + file, entry, l);
      corpus.push_back({file, l, std::string(page.data(), kPageSize)});
    }
  }
  ASSERT_GT(corpus.size(), 2u);

  const std::string fuzz_dir = Path("fuzz");
  ASSERT_TRUE(Env::Default()->CreateDirs(fuzz_dir).ok());
  Rng rng(20261017);
  size_t manifests_decoded = 0;
  size_t manifests_rejected = 0;
  size_t tables_decoded = 0;
  size_t tables_rejected = 0;
  for (int i = 0; i < 2000; ++i) {
    // Manifest leg: mutate the payload, re-stamp the CRC trailer so the
    // mutation reaches DecodeManifest, and read any mapping that still
    // decodes against the real table files.
    std::string payload = manifest_payload;
    Mutate(&payload, 64, /*resize=*/true, &rng);
    {
      // A plain write: fsyncing 2000 throwaway manifests buys nothing.
      std::ofstream out(fuzz_dir + "/MANIFEST.nf2",
                        std::ios::binary | std::ios::trunc);
      out << StampManifest(payload);
    }
    Result<Manifest> loaded =
        LoadManifest(Env::Default(), fuzz_dir + "/MANIFEST.nf2");
    if (loaded.ok()) {
      ++manifests_decoded;
      for (const auto& [file, entry] : loaded->tables) {
        Status s =
            ReadTableMapped(Env::Default(), db_dir + "/" + file, entry)
                .status();
        (void)s;  // Any Status will do; a crash or ASan report will not.
      }
    } else {
      ++manifests_rejected;
      EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
          << loaded.status();
    }

    // Page leg: mutate one mapped page image in a copy of its table
    // file and re-stamp that entry's PageVersion::crc.
    const MappedPage& victim = corpus[rng.NextBelow(corpus.size())];
    const std::string copy = fuzz_dir + "/" + victim.file;
    std::filesystem::copy_file(
        db_dir + "/" + victim.file, copy,
        std::filesystem::copy_options::overwrite_existing);
    std::string image = victim.image;
    Mutate(&image, 256, /*resize=*/false, &rng);
    Page page;
    std::memcpy(page.mutable_data(), image.data(), kPageSize);
    TableManifest entry = real->tables.at(victim.file);
    ReplaceMappedPage(copy, &entry, victim.logical, page);
    Result<MappedTable> mapped =
        ReadTableMapped(Env::Default(), copy, entry);
    if (mapped.ok()) {
      ++tables_decoded;
    } else {
      ++tables_rejected;
    }
  }
  // Both legs reached the decoders on both sides of the accept line.
  EXPECT_GT(manifests_decoded, 0u);
  EXPECT_GT(manifests_rejected, 0u);
  EXPECT_GT(tables_decoded, 0u);
  EXPECT_GT(tables_rejected, 0u);
}

}  // namespace
}  // namespace nf2
