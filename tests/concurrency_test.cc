// Concurrent-session tests over the engine gate (engine/concurrency.h,
// server/session.h) — no sockets: sessions are driven directly so ASan/
// TSan failures point straight at engine-level races.
//
// The torture test's oracle argument: with a single writer session, the
// reader interleaving cannot affect the final state (readers take only
// shared locks and never mutate), so the database after the concurrent
// run must be bit-identical to replaying the writer's statement stream
// into a fresh single-threaded database.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/concurrency.h"
#include "engine/database.h"
#include "engine/snapshot.h"
#include "exec/read_view.h"
#include "nfrql/parser.h"
#include "server/session.h"
#include "storage/serde.h"
#include "util/string_util.h"

namespace nf2 {
namespace {

using server::Session;
using server::SessionManager;

class ConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("nf2_concurrency_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    RemoveDirs();
  }
  void TearDown() override { RemoveDirs(); }

  void RemoveDirs() {
    std::filesystem::remove_all(dir_);
    std::filesystem::remove_all(dir_ + "_torture");
    std::filesystem::remove_all(dir_ + "_oracle");
  }

  std::string dir_;
};

/// The deterministic §4 write stream the torture test and its oracle
/// both replay: inserts streamed over a small value domain (forcing
/// heavy composition/nesting) with periodic deletes of earlier tuples.
std::vector<std::string> WriterStatements(int rounds) {
  std::vector<std::string> stmts;
  stmts.push_back(
      "CREATE RELATION takes (Student STRING, Course STRING, Club STRING) "
      "MVD Student ->-> Course");
  // The small moduli force heavy value sharing (composition-heavy §4
  // paths); the shadow set keeps the stream valid — no duplicate
  // inserts, no deletes of absent tuples.
  std::set<std::string> live;
  for (int i = 0; i < rounds; ++i) {
    const std::string tuple = StrCat("s", (i * 13) % 7, ", c", (i * 7) % 5,
                                     ", k", i % 3);
    if (live.insert(tuple).second) {
      stmts.push_back(StrCat("INSERT INTO takes VALUES (", tuple, ")"));
    }
    if (i % 4 == 3 && !live.empty()) {
      auto victim = live.begin();
      stmts.push_back(StrCat("DELETE FROM takes VALUES (", *victim, ")"));
      live.erase(victim);
    }
  }
  return stmts;
}

/// Serializes every relation of `db` to bytes — the bit-identical
/// comparison the acceptance criteria ask for.
std::string SerializeAllRelations(Database* db) {
  std::string out;
  for (const std::string& name : db->ListRelations()) {
    auto rel = db->Relation(name);
    EXPECT_TRUE(rel.ok()) << name;
    if (!rel.ok()) continue;
    BufferWriter w;
    EncodeNfrRelation(**rel, &w);
    out += name;
    out += '\0';
    out += w.data();
  }
  return out;
}

/// Serializes every relation reachable from `snap` — same byte format
/// as SerializeAllRelations, but answered entirely from the snapshot.
std::string SerializeSnapshot(const DatabaseSnapshot& snap) {
  std::string out;
  for (const std::string& name : snap.ListRelations()) {
    auto rel = snap.Relation(name);
    EXPECT_TRUE(rel.ok()) << name;
    if (!rel.ok()) continue;
    BufferWriter w;
    EncodeNfrRelation(**rel, &w);
    out += name;
    out += '\0';
    out += w.data();
  }
  return out;
}

TEST(IsReadOnlyStatementTest, Classification) {
  auto classify = [](const std::string& source) {
    auto stmt = ParseStatement(source);
    EXPECT_TRUE(stmt.ok()) << source;
    return IsReadOnlyStatement(*stmt);
  };
  EXPECT_TRUE(classify("SELECT * FROM r"));
  EXPECT_TRUE(classify("SELECT COUNT(*) FROM r"));
  EXPECT_TRUE(classify("SHOW r"));
  EXPECT_TRUE(classify("DESCRIBE r"));
  EXPECT_TRUE(classify("NEST r ON a"));
  EXPECT_TRUE(classify("UNNEST r ON a"));
  EXPECT_TRUE(classify("LIST"));
  EXPECT_TRUE(classify("STATS r"));
  // EXPLAIN never executes, so even EXPLAIN of a mutation is a read.
  EXPECT_TRUE(classify("EXPLAIN SELECT * FROM r"));
  EXPECT_TRUE(classify("EXPLAIN INSERT INTO r VALUES (a)"));
  // PROFILE executes its inner statement: classify as the inner does.
  EXPECT_TRUE(classify("PROFILE SELECT * FROM r"));
  EXPECT_FALSE(classify("PROFILE INSERT INTO r VALUES (a)"));

  EXPECT_FALSE(classify("CREATE RELATION r (a STRING)"));
  EXPECT_FALSE(classify("DROP RELATION r"));
  EXPECT_FALSE(classify("INSERT INTO r VALUES (a)"));
  EXPECT_FALSE(classify("DELETE FROM r VALUES (a)"));
  EXPECT_FALSE(classify("UPDATE r SET a = b"));
  EXPECT_FALSE(classify("CHECKPOINT"));
  EXPECT_FALSE(classify("BEGIN"));
  EXPECT_FALSE(classify("COMMIT"));
  EXPECT_FALSE(classify("ROLLBACK"));
}

// The acceptance-criteria torture: 8 sessions — one writer streaming
// §4 inserts/deletes, seven readers hammering every read-only statement
// shape — then a bit-identical comparison against the single-threaded
// oracle replay.
TEST_F(ConcurrencyTest, EightSessionTortureMatchesSingleThreadedOracle) {
  constexpr int kReaders = 7;
  constexpr int kRounds = 200;
  const std::vector<std::string> writes = WriterStatements(kRounds);

  std::string concurrent_bytes;
  {
    auto db = Database::Open(dir_ + "_torture");
    ASSERT_TRUE(db.ok());
    SessionManager sessions(db->get());

    std::atomic<bool> writer_done{false};
    std::atomic<int> read_failures{0};
    std::atomic<long> reads_done{0};

    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&sessions, &writer_done, &read_failures,
                            &reads_done, r] {
        auto session = sessions.NewSession();
        const std::vector<std::string> queries = {
            "SELECT COUNT(*) FROM takes",
            "SELECT * FROM takes",
            "SHOW takes",
            "DESCRIBE takes",
            "EXPLAIN SELECT Student FROM takes WHERE Course = c1",
            "STATS takes",
            "LIST",
            "\\metrics prom",
        };
        size_t i = static_cast<size_t>(r);
        while (!writer_done.load(std::memory_order_acquire)) {
          auto out = session->Execute(queries[i++ % queries.size()]);
          // Until the writer's CREATE lands, NotFound is the correct
          // answer; any other failure is a bug.
          if (!out.ok() && out.status().code() != StatusCode::kNotFound) {
            ++read_failures;
          }
          ++reads_done;
        }
      });
    }

    {
      auto writer = sessions.NewSession();
      for (const std::string& stmt : writes) {
        auto out = writer->Execute(stmt);
        ASSERT_TRUE(out.ok()) << stmt << ": " << out.status().ToString();
      }
    }
    writer_done.store(true, std::memory_order_release);
    for (std::thread& t : readers) t.join();

    EXPECT_EQ(read_failures.load(), 0);
    EXPECT_GT(reads_done.load(), 0);
    ASSERT_TRUE((*db)->VerifyIntegrity().ok());
    concurrent_bytes = SerializeAllRelations(db->get());
  }

  // Oracle: same write stream, no concurrency, fresh database.
  auto oracle = Database::Open(dir_ + "_oracle");
  ASSERT_TRUE(oracle.ok());
  {
    SessionManager sessions(oracle->get());
    auto session = sessions.NewSession();
    for (const std::string& stmt : writes) {
      ASSERT_TRUE(session->Execute(stmt).ok()) << stmt;
    }
  }
  ASSERT_TRUE((*oracle)->VerifyIntegrity().ok());
  const std::string oracle_bytes = SerializeAllRelations(oracle->get());

  ASSERT_FALSE(oracle_bytes.empty());
  EXPECT_EQ(concurrent_bytes, oracle_bytes)
      << "concurrent final state diverged from single-threaded oracle";
}

// MVCC torture (DESIGN.md §9): readers pin snapshots while a writer
// streams §4 mutations, and every pinned version must be bit-identical
// to the shadow-oracle state the writer recorded at that version's
// commit boundary — a reader can observe any published state, but
// never a torn or mutated-in-place one. Runs under TSan via the
// concurrency ctest label.
TEST_F(ConcurrencyTest, PinnedSnapshotsMatchShadowOracleStates) {
  constexpr int kReaders = 4;
  constexpr int kRounds = 150;
  const std::vector<std::string> writes = WriterStatements(kRounds);

  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok());
  SessionManager sessions(db->get());

  // Shadow oracle: serialized state per published version, recorded by
  // the writer after each statement. Versions are published inside
  // Execute and recorded just after, so a racing reader may pin a
  // version not yet in the map (it skips those) — but a version that
  // IS in the map has immutable expected bytes.
  std::mutex mu;
  std::map<uint64_t, std::string> expected;
  {
    auto snap = (*db)->PinSnapshot();
    ASSERT_NE(snap, nullptr);
    std::lock_guard<std::mutex> lock(mu);
    expected[snap->version()] = SerializeSnapshot(*snap);
  }

  std::atomic<bool> writer_done{false};
  std::atomic<int> mismatches{0};
  std::atomic<long> verified{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!writer_done.load(std::memory_order_acquire)) {
        auto snap = (*db)->PinSnapshot();
        const std::string bytes = SerializeSnapshot(*snap);
        // Re-serializing the same pin must be bit-identical: nothing
        // mutates a published version in place.
        if (bytes != SerializeSnapshot(*snap)) {
          ++mismatches;
          continue;
        }
        std::string want;
        {
          std::lock_guard<std::mutex> lock(mu);
          auto it = expected.find(snap->version());
          if (it == expected.end()) continue;
          want = it->second;
        }
        if (bytes == want) {
          ++verified;
        } else {
          ++mismatches;
        }
      }
    });
  }

  {
    auto writer = sessions.NewSession();
    for (const std::string& stmt : writes) {
      auto out = writer->Execute(stmt);
      ASSERT_TRUE(out.ok()) << stmt << ": " << out.status().ToString();
      // Single writer: the pin right after Execute is exactly the
      // version that statement published.
      auto snap = (*db)->PinSnapshot();
      std::lock_guard<std::mutex> lock(mu);
      expected.emplace(snap->version(), SerializeSnapshot(*snap));
    }
  }
  writer_done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(verified.load(), 0);
  ASSERT_TRUE((*db)->VerifyIntegrity().ok());
}

// The same MVCC torture at chunk scale: the relation spans many chunks
// of every copy-on-write structure, the dictionary grows past chunk
// boundaries (and rehashes its lookup) with out-of-order interns, the
// stream commits and rolls back transactions, and readers also plan
// point and range SELECTs over each pinned snapshot — the narrowing
// leaf's frozen Find plus id-keyed postings, and its bound scan through
// the frozen dictionary — against a shadow set of live rows. One reader
// also plans a range aggregate over each pinned snapshot.
TEST_F(ConcurrencyTest, ChunkScaleSnapshotsMatchShadowOracleStates) {
  constexpr int kReaders = 3;
  constexpr int64_t kBase = 1000;
  constexpr int kRounds = 120;

  struct Op {
    enum Kind { kInsert, kDelete, kBegin, kCommit, kRollback } kind;
    FlatTuple row;
  };
  auto row = [](int64_t k, int64_t g, int64_t v) {
    return FlatTuple{V(k), V(g), Value::String(StrCat("v", v))};
  };
  std::vector<Op> ops;
  // Stream values are new strings in scrambled order, so the
  // dictionary's value chunks fill and its lookup rehashes mid-stream,
  // and ranks go dirty on every out-of-order intern.
  for (int i = 0; i < kRounds; ++i) {
    const int64_t k = kBase + i;
    if (i % 10 == 4) {
      ops.push_back({Op::kBegin, {}});
      ops.push_back({Op::kInsert, row(k, 1, 5000 + (i * 7919) % 997)});
      ops.push_back({Op::kDelete, row(i, i % 5, (i * 37) % 1009)});
      ops.push_back({i % 20 == 4 ? Op::kRollback : Op::kCommit, {}});
      continue;
    }
    // Every third insert repeats a base row's (g, v), so it composes
    // with that tuple instead of appending.
    if (i % 3 == 0) {
      const int64_t twin = 500 + i;
      ops.push_back({Op::kInsert, row(k, twin % 5, (twin * 37) % 1009)});
    } else {
      ops.push_back({Op::kInsert, row(k, 1, 5000 + (i * 7919) % 997)});
    }
    if (i % 4 == 3) {
      const int64_t gone = 200 + i;
      ops.push_back({Op::kDelete, row(gone, gone % 5, (gone * 37) % 1009)});
    }
  }
  // Keys whose rows the readers look up: base keys deleted by the
  // stream (also inside rolled-back and committed transactions), keys
  // the stream inserts, a key that composes, and one never present.
  std::vector<int64_t> probes = {0, 4, 14, 203, 207, 500, 503, 999};
  for (int64_t d : {3, 4, 14, kRounds - 1, 10 * kRounds}) {
    probes.push_back(kBase + d);
  }

  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok());
  const Schema schema({Attribute{"k", ValueType::kInt},
                       Attribute{"g", ValueType::kInt},
                       Attribute{"v", ValueType::kString}});
  ASSERT_TRUE((*db)->CreateRelation("pts", schema, {0, 1, 2}).ok());
  std::set<FlatTuple> live;
  ASSERT_TRUE((*db)->Begin().ok());
  for (int64_t k = 0; k < kBase; ++k) {
    FlatTuple r = row(k, k % 5, (k * 37) % 1009);
    ASSERT_TRUE((*db)->Insert("pts", r).ok());
    live.insert(r);
  }
  ASSERT_TRUE((*db)->Commit().ok());

  // Reads planned over a pinned snapshot only, as a session's are: the
  // narrowing leaf resolves a point key through the frozen dictionary
  // and walks the id-keyed postings, and bound-scans a range through
  // the same frozen dictionary.
  auto parse_select = [](const std::string& query) {
    Result<Statement> stmt = ParseStatement(query);
    EXPECT_TRUE(stmt.ok()) << query << ": " << stmt.status();
    return std::get<SelectStatement>(std::move(*stmt));
  };
  auto planned_rows = [&](const SelectStatement& select,
                          std::shared_ptr<const DatabaseSnapshot> snap) {
    const ReadView view(db->get(), std::move(snap));
    Result<SelectPlan> plan = PlanSelect(select, view);
    if (!plan.ok()) return plan.status().ToString();
    std::string out;
    for (const FlatTuple& t : DrainPlan(*plan).rows) out += t.ToString();
    return out;
  };
  std::vector<SelectStatement> point_selects;
  for (int64_t key : probes) {
    point_selects.push_back(
        parse_select(StrCat("SELECT * FROM pts WHERE k = ", key)));
  }
  auto oracle_lookup = [](const std::set<FlatTuple>& rows, int64_t key) {
    std::string out;
    for (const FlatTuple& t : rows) {
      if (t.at(0) == V(key)) out += t.ToString();
    }
    return out;
  };
  // And one range, over keys the stream deletes and inserts.
  RangeBound keys;
  keys.lower = V(kBase - 8);
  keys.upper = V(kBase + 24);
  keys.upper_inclusive = false;
  const SelectStatement range_select =
      parse_select(StrCat("SELECT * FROM pts WHERE k >= ", kBase - 8,
                          " AND k < ", kBase + 24));
  auto oracle_range = [&keys](const std::set<FlatTuple>& rows) {
    std::string out;
    for (const FlatTuple& t : rows) {
      if (keys.Admits(t.at(0))) out += t.ToString();
    }
    return out;
  };

  // And a range aggregate, whose factorized aggregate folds the
  // narrowed tuples.
  const SelectStatement aggregate_select = parse_select(
      StrCat("SELECT COUNT(*), SUM(g), MIN(v), MAX(v) FROM pts WHERE k >= ",
             kBase - 8, " AND k < ", kBase + 24));
  auto oracle_aggregate = [&keys](const std::set<FlatTuple>& rows) {
    int64_t count = 0, sum = 0;
    std::set<Value> vs;
    for (const FlatTuple& t : rows) {
      if (!keys.Admits(t.at(0))) continue;
      ++count;
      sum += t.at(1).AsInt();
      vs.insert(t.at(2));
    }
    if (vs.empty()) return std::string("empty range");
    return FlatTuple({V(count), V(sum), *vs.begin(), *vs.rbegin()})
        .ToString();
  };

  struct Expected {
    std::string bytes;
    std::vector<std::string> lookups;
    std::string aggregate;
  };
  std::mutex mu;
  std::map<uint64_t, Expected> expected;
  // Records the version the writer just published: its bytes, and the
  // probe answers the shadow set gives.
  auto record = [&](const std::set<FlatTuple>& rows) {
    auto snap = (*db)->PinSnapshot();
    Expected e;
    e.bytes = SerializeSnapshot(*snap);
    for (int64_t key : probes) e.lookups.push_back(oracle_lookup(rows, key));
    e.lookups.push_back(oracle_range(rows));
    e.aggregate = oracle_aggregate(rows);
    auto rel = snap->Relation("pts");
    const std::vector<FlatTuple> want(rows.begin(), rows.end());
    EXPECT_EQ((*rel)->Expand(), FlatRelation((*rel)->schema(), want));
    std::lock_guard<std::mutex> lock(mu);
    expected.emplace(snap->version(), std::move(e));
  };
  record(live);
  {
    auto rel = (*db)->PinSnapshot()->Relation("pts");
    ASSERT_GT((*rel)->size(), 10 * kCowChunkSize);
  }

  std::atomic<bool> writer_done{false};
  std::atomic<int> mismatches{0};
  std::atomic<long> verified{0};
  std::atomic<long> aggregates_verified{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!writer_done.load(std::memory_order_acquire)) {
        auto snap = (*db)->PinSnapshot();
        const std::string bytes = SerializeSnapshot(*snap);
        std::vector<std::string> lookups;
        for (const SelectStatement& point : point_selects) {
          lookups.push_back(planned_rows(point, snap));
        }
        lookups.push_back(planned_rows(range_select, snap));
        const std::string aggregate =
            r == 0 ? planned_rows(aggregate_select, snap) : "";
        if (bytes != SerializeSnapshot(*snap)) {
          ++mismatches;
          continue;
        }
        Expected want;
        {
          std::lock_guard<std::mutex> lock(mu);
          auto it = expected.find(snap->version());
          if (it == expected.end()) continue;
          want = it->second;
        }
        if (bytes == want.bytes && lookups == want.lookups &&
            (r != 0 || aggregate == want.aggregate)) {
          ++verified;
          if (r == 0) ++aggregates_verified;
        } else {
          ++mismatches;
        }
      }
    });
  }

  std::set<FlatTuple> pending = live;  // Live rows as the writer sees them.
  bool in_txn = false;
  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::kInsert:
        ASSERT_TRUE((*db)->Insert("pts", op.row).ok()) << op.row.ToString();
        pending.insert(op.row);
        break;
      case Op::kDelete:
        ASSERT_TRUE((*db)->Delete("pts", op.row).ok()) << op.row.ToString();
        pending.erase(op.row);
        break;
      case Op::kBegin:
        ASSERT_TRUE((*db)->Begin().ok());
        in_txn = true;
        break;
      case Op::kCommit:
        ASSERT_TRUE((*db)->Commit().ok());
        in_txn = false;
        break;
      case Op::kRollback:
        ASSERT_TRUE((*db)->Rollback().ok());
        pending = live;
        in_txn = false;
        break;
    }
    if (!in_txn) {
      live = pending;
      record(live);
    }
  }
  writer_done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(verified.load(), 0);
  EXPECT_GT(aggregates_verified.load(), 0);
  EXPECT_GT((*db)->dictionary()->size(), 2 * kBase + 64);
  ASSERT_TRUE((*db)->VerifyIntegrity().ok());
}

// Regression: while session A holds the open transaction, A's second
// BEGIN is rejected by the engine, B's reads proceed, and B's mutations
// bounce with kUnavailable until A resolves the transaction.
TEST_F(ConcurrencyTest, SecondBeginRejectedWhileOtherSessionReads) {
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok());
  SessionManager sessions(db->get());
  auto a = sessions.NewSession();
  auto b = sessions.NewSession();

  ASSERT_TRUE(a->Execute("CREATE RELATION r (x STRING, y STRING)").ok());
  ASSERT_TRUE(a->Execute("INSERT INTO r VALUES (u, v)").ok());
  ASSERT_TRUE(a->Execute("BEGIN").ok());
  ASSERT_TRUE(a->Execute("INSERT INTO r VALUES (w, z)").ok());

  // A second BEGIN on the owning session: engine-level rejection.
  auto second = a->Execute("BEGIN");
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);

  // Another session's read proceeds while the transaction is open.
  // Reads are read-committed against the pinned snapshot: B sees only
  // the last commit boundary, never A's uncommitted (w, z).
  std::thread reader([&b] {
    auto out = b->Execute("SELECT COUNT(*) FROM r");
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(*out, "1");
  });
  reader.join();

  // A itself still sees its own uncommitted insert (read-your-own-
  // writes goes to the live database, not a snapshot).
  auto own = a->Execute("SELECT COUNT(*) FROM r");
  ASSERT_TRUE(own.ok());
  EXPECT_EQ(*own, "2");

  // Another session's mutation is refused — retryable, not fatal.
  auto blocked = b->Execute("INSERT INTO r VALUES (p, q)");
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kUnavailable);

  ASSERT_TRUE(a->Execute("ROLLBACK").ok());
  // Slot released: B can mutate now.
  ASSERT_TRUE(b->Execute("INSERT INTO r VALUES (p, q)").ok());
  auto count = b->Execute("SELECT COUNT(*) FROM r");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, "2");  // (w, z) was rolled back; (p, q) landed.
}

// A session abandoned mid-transaction must not leak the transaction
// slot: its destructor rolls back.
TEST_F(ConcurrencyTest, AbandonedSessionRollsBackOnDestruction) {
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok());
  SessionManager sessions(db->get());
  auto keeper = sessions.NewSession();
  ASSERT_TRUE(keeper->Execute("CREATE RELATION r (x STRING)").ok());

  {
    auto doomed = sessions.NewSession();
    ASSERT_TRUE(doomed->Execute("BEGIN").ok());
    ASSERT_TRUE(doomed->Execute("INSERT INTO r VALUES (gone)").ok());
    // doomed drops here without COMMIT.
  }

  EXPECT_FALSE((*db)->in_transaction());
  auto count = keeper->Execute("SELECT COUNT(*) FROM r");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, "0");
  // And the slot is actually free.
  ASSERT_TRUE(keeper->Execute("INSERT INTO r VALUES (kept)").ok());
}

}  // namespace
}  // namespace nf2
