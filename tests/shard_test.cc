// Tests for the sharded engine subsystem (src/shard/, DESIGN.md §13):
// shard-map unit tests, scatter-gather routing checked reply-by-reply
// against a single-engine oracle fed the same statement stream (JOINs
// included), goldens of the replies that depend on the shard layout,
// batch and DDL edge cases (mid-batch errors, DDL rollback), N=1
// byte-interop, the EXPLAIN goldens for index_range_scan and scatter
// plans, and the 8-session / 4-shard torture test whose final state
// must be bit-identical to a single-engine replay.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/nest.h"
#include "engine/database.h"
#include "nfrql/parser.h"
#include "server/session.h"
#include "shard/router.h"
#include "shard/shard_map.h"
#include "storage/serde.h"
#include "util/string_util.h"

namespace nf2 {
namespace {

using server::ClientSession;
using server::Session;
using server::SessionManager;

class ShardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = (std::filesystem::temp_directory_path() /
             ("nf2_shard_" + std::string(::testing::UnitTest::GetInstance()
                                             ->current_test_info()
                                             ->name())))
                .string();
    RemoveDirs();
  }
  void TearDown() override { RemoveDirs(); }

  void RemoveDirs() {
    std::filesystem::remove_all(base_);
    std::filesystem::remove_all(base_ + "_oracle");
  }

  /// Opens an N-shard router at base_.
  std::unique_ptr<shard::ShardRouter> OpenRouter(size_t shards) {
    shard::ShardRouter::Options options;
    options.shards = shards;
    auto router = shard::ShardRouter::Open(base_, options);
    EXPECT_TRUE(router.ok()) << router.status();
    return router.ok() ? *std::move(router) : nullptr;
  }

  /// Opens the single-engine oracle at base_ + "_oracle".
  void OpenOracle() {
    auto db = Database::Open(base_ + "_oracle");
    ASSERT_TRUE(db.ok()) << db.status();
    oracle_db_ = *std::move(db);
    oracle_sessions_ = std::make_unique<SessionManager>(oracle_db_.get());
    oracle_ = oracle_sessions_->NewSession();
  }

  std::string base_;
  std::unique_ptr<Database> oracle_db_;
  std::unique_ptr<SessionManager> oracle_sessions_;
  std::unique_ptr<Session> oracle_;
};

// ---------------------------------------------------------------------
// shard_map
// ---------------------------------------------------------------------

TEST(ShardMapTest, PartitionAttrPrefersKeyLikeAttribute) {
  // Def. 7: a key-like attribute is a single-attribute superkey. With
  // FD Course -> Student declared on (Student, Course), Course is the
  // first key-like attribute; without FDs the fallback is position 0.
  RelationInfo info;
  info.name = "takes";
  info.schema = Schema::OfStrings({"Student", "Course"});
  info.nest_order = {0, 1};
  EXPECT_EQ(shard::PartitionAttr(info), 0u);
  info.fds.push_back({{1}, {0}});  // Course -> Student.
  EXPECT_EQ(shard::PartitionAttr(info), 1u);
}

TEST(ShardMapTest, ShardOfIsStableAndBounded) {
  const Value v = Value::String("alice");
  const size_t first = shard::ShardOf(v, 4);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(shard::ShardOf(v, 4), first);
  }
  EXPECT_EQ(shard::ShardOf(v, 1), 0u);
  for (int i = 0; i < 64; ++i) {
    EXPECT_LT(shard::ShardOf(Value::Int(i), 5), 5u);
  }
  // The hash is value-based, not pointer- or seed-based: equal values
  // always land on the same shard.
  EXPECT_EQ(shard::ShardOf(Value::String("bob"), 7),
            shard::ShardOf(Value::String("bob"), 7));
}

TEST(ShardMapTest, MarkerPinsShardCount) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "nf2_shard_marker").string();
  std::filesystem::remove_all(dir);
  Env* env = Env::Default();
  auto first = shard::EnsureShardMarker(env, dir, 4);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(*first, 4u);
  auto again = shard::EnsureShardMarker(env, dir, 4);
  ASSERT_TRUE(again.ok());
  auto mismatch = shard::EnsureShardMarker(env, dir, 2);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), StatusCode::kFailedPrecondition);
  auto zero = shard::EnsureShardMarker(env, dir, 0);
  EXPECT_EQ(zero.status().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(env->WriteFileAtomic(dir + "/SHARDS", "bogus\n").ok());
  auto corrupt = shard::EnsureShardMarker(env, dir, 4);
  EXPECT_EQ(corrupt.status().code(), StatusCode::kInternal);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Router vs single-engine oracle
// ---------------------------------------------------------------------

/// The battery relation r and its rows. K is key-like (FD K -> V, G),
/// so it is the partition attribute; V is INT for the arithmetic
/// aggregates; G induces small groups.
std::vector<std::string> BatteryRelation() {
  std::vector<std::string> s;
  s.push_back(
      "CREATE RELATION r (K STRING, V INT, G STRING) FD K -> V, G");
  for (int i = 0; i < 12; ++i) {
    s.push_back(StrCat("INSERT INTO r VALUES (k", i, ", ", (i * 7) % 19,
                       ", g", i % 3, ")"));
  }
  s.push_back("INSERT INTO r VALUES (k90, 90, g0), (k91, 91, g1)");
  return s;
}

/// The statement battery both engines replay, starting from
/// BatteryRelation().
std::vector<std::string> OracleBattery() {
  std::vector<std::string> s = BatteryRelation();
  // Point reads: equality on the partition attribute.
  s.push_back("SELECT * FROM r WHERE K = k3");
  s.push_back("SELECT COUNT(*) FROM r WHERE K = k3");
  s.push_back("EXPLAIN SELECT * FROM r WHERE K = k3");
  // Scattered reads of every result shape.
  s.push_back("SELECT * FROM r");
  s.push_back("SELECT G FROM r");
  s.push_back("SELECT * FROM r ORDER BY V");
  s.push_back("SELECT * FROM r ORDER BY V DESC LIMIT 5");
  s.push_back("SELECT G FROM r ORDER BY G");
  s.push_back("SELECT K FROM r ORDER BY V LIMIT 4");
  s.push_back("SELECT COUNT(*) FROM r");
  s.push_back("SELECT COUNT(K) FROM r");   // DISTINCT on partition attr.
  s.push_back("SELECT COUNT(G) FROM r");   // DISTINCT on a shared attr.
  s.push_back("SELECT SUM(V) FROM r");
  s.push_back("SELECT MIN(V) FROM r");
  s.push_back("SELECT MAX(K) FROM r");
  s.push_back("SELECT COUNT(*) FROM r WHERE G = g1");
  s.push_back("SELECT G, COUNT(*) FROM r GROUP BY G");
  s.push_back("SELECT G, COUNT(K), SUM(V), MIN(V), MAX(V) FROM r GROUP BY G");
  s.push_back("SELECT G, COUNT(G) FROM r GROUP BY G");
  s.push_back("SELECT G, SUM(V) FROM r GROUP BY G ORDER BY G DESC");
  s.push_back("SELECT G, COUNT(*) FROM r GROUP BY G ORDER BY G DESC LIMIT 1");
  // Empty results: a box with no rows, and MIN over nothing.
  s.push_back("SELECT * FROM r WHERE V > 1000");
  s.push_back("SELECT MIN(V) FROM r WHERE V > 1000");
  // Range predicates (index_range_scan under the hood).
  s.push_back("SELECT * FROM r WHERE V >= 5");
  s.push_back("SELECT * FROM r WHERE V > 3 ORDER BY V");
  s.push_back("SELECT COUNT(*) FROM r WHERE V <= 40");
  // Leaves and aggregates under a residual filter: index_scan + filter,
  // row-based aggregates, a DISTINCT count over the row stream, MIN and
  // MAX through an index-restricted factorized source.
  s.push_back("SELECT * FROM r WHERE G = g1 AND V > 3");
  s.push_back("SELECT G, COUNT(*), SUM(V) FROM r WHERE V > 3 GROUP BY G");
  s.push_back("SELECT COUNT(G) FROM r WHERE V > 3");
  s.push_back(
      "SELECT G, SUM(V) FROM r GROUP BY G ORDER BY SUM(V) DESC LIMIT 2");
  s.push_back("SELECT G, COUNT(G), COUNT(K) FROM r WHERE V > 3 GROUP BY G");
  s.push_back("SELECT MIN(G), MAX(V) FROM r WHERE G = g2");
  // Range aggregates over narrowed per-shard leaves: alone, empty,
  // with GROUP BY, and with `!=`.
  s.push_back("SELECT COUNT(*), SUM(V) FROM r WHERE V >= 4 AND V < 14");
  s.push_back("SELECT COUNT(*), SUM(V), MIN(K) FROM r WHERE V > 91");
  s.push_back(
      "SELECT G, COUNT(*), SUM(V) FROM r WHERE V >= 4 AND V < 14 GROUP BY G");
  s.push_back(
      "SELECT G, COUNT(K), MIN(V), MAX(V) FROM r WHERE V > 2 AND G != g0 "
      "GROUP BY G");
  s.push_back(
      "SELECT COUNT(*), SUM(V), MAX(K) FROM r WHERE V <= 13 AND K != k3");
  s.push_back("SELECT COUNT(*), SUM(V) FROM r WHERE G != g1");
  // Mutations: point, scatter, and VALUES form.
  s.push_back("UPDATE r SET V = 100 WHERE K = k5");
  s.push_back("UPDATE r SET G = g9 WHERE V = 100");
  s.push_back("DELETE FROM r WHERE K = k7");
  s.push_back("DELETE FROM r WHERE V > 89");
  s.push_back("DELETE FROM r WHERE V > 5000");  // Matches nothing.
  s.push_back("DELETE FROM r VALUES (k0, 0, g0)");
  s.push_back("SELECT * FROM r ORDER BY K");
  // Recomposed statement surfaces.
  s.push_back("SHOW r");
  s.push_back("DESCRIBE r");
  s.push_back("NEST r ON G");
  s.push_back("UNNEST r ON V");
  s.push_back("LIST");
  s.push_back("CHECKPOINT");
  // Transactions: fan-out BEGIN, read-your-own-writes, COMMIT.
  s.push_back("BEGIN");
  s.push_back("INSERT INTO r VALUES (k50, 50, g2)");
  s.push_back("SELECT * FROM r ORDER BY K");
  s.push_back("SELECT COUNT(*) FROM r");
  s.push_back("COMMIT");
  s.push_back("SELECT * FROM r ORDER BY K");
  s.push_back("BEGIN");
  s.push_back("INSERT INTO r VALUES (k51, 51, g0)");
  s.push_back("ROLLBACK");
  s.push_back("UPDATE r SET G = g7");  // No WHERE: every row, every shard.
  s.push_back("SELECT * FROM r ORDER BY K");
  // Errors must carry the single-engine text.
  s.push_back("");
  s.push_back("   ");
  s.push_back("SELECT * FROM nope");
  s.push_back("INSERT INTO nope VALUES (x)");
  s.push_back("COMMIT");
  // DDL round-trip.
  s.push_back("DROP RELATION r");
  s.push_back("LIST");
  return s;
}

void CompareAgainstOracle(ClientSession* routed, Session* oracle,
                          const std::vector<std::string>& battery) {
  for (const std::string& stmt : battery) {
    Result<std::string> got = routed->Execute(stmt);
    Result<std::string> want = oracle->Execute(stmt);
    ASSERT_EQ(got.ok(), want.ok())
        << stmt << "\n  router: "
        << (got.ok() ? *got : got.status().ToString()) << "\n  oracle: "
        << (want.ok() ? *want : want.status().ToString());
    if (got.ok()) {
      EXPECT_EQ(*got, *want) << stmt;
    } else {
      EXPECT_EQ(got.status().ToString(), want.status().ToString()) << stmt;
    }
  }
}

TEST_F(ShardTest, ScatterGatherMatchesSingleEngineReplyByReply) {
  auto router = OpenRouter(3);
  ASSERT_NE(router, nullptr);
  OpenOracle();
  auto session = router->NewClientSession();
  CompareAgainstOracle(session.get(), oracle_.get(), OracleBattery());
}

TEST_F(ShardTest, ScatterGatherMatchesSingleEngineAtFourShards) {
  auto router = OpenRouter(4);
  ASSERT_NE(router, nullptr);
  OpenOracle();
  auto session = router->NewClientSession();
  CompareAgainstOracle(session.get(), oracle_.get(), OracleBattery());
}

// The shapes whose reply depends on how rows lay out across shards
// (DESIGN.md §13: an un-ORDERed LIMIT keeps a layout-dependent prefix,
// ORDER BY ties resolve by shard index), so no single-engine oracle can
// check them. Their exact text at 3 and 4 shards is pinned instead.
TEST_F(ShardTest, LayoutDependentRepliesArePinned) {
  const std::vector<std::string> shapes = {
      "SELECT * FROM r LIMIT 3",
      "SELECT G FROM r LIMIT 2",
      "SELECT * FROM r ORDER BY G",
      "SELECT * FROM r ORDER BY G DESC LIMIT 5",
      "SELECT K, G FROM r ORDER BY G LIMIT 4",
      "SELECT V FROM r ORDER BY G",
  };
  const std::vector<std::pair<size_t, std::vector<std::string>>> golden = {
      {3,
       {// SELECT * FROM r LIMIT 3
        "+----+----+----+\n"
        "| K  | V  | G  |\n"
        "+----+----+----+\n"
        "| k3 | 2  | g0 |\n"
        "| k5 | 16 | g2 |\n"
        "| k6 | 4  | g0 |\n"
        "+----+----+----+\n"
        "3 row(s)",
        // SELECT G FROM r LIMIT 2
        "+----+\n"
        "| G  |\n"
        "+----+\n"
        "| g0 |\n"
        "| g2 |\n"
        "+----+\n"
        "2 row(s)",
        // SELECT * FROM r ORDER BY G
        "+-----+----+----+\n"
        "| K   | V  | G  |\n"
        "+-----+----+----+\n"
        "| k3  | 2  | g0 |\n"
        "| k6  | 4  | g0 |\n"
        "| k9  | 6  | g0 |\n"
        "| k0  | 0  | g0 |\n"
        "| k90 | 90 | g0 |\n"
        "| k10 | 13 | g1 |\n"
        "| k7  | 11 | g1 |\n"
        "| k91 | 91 | g1 |\n"
        "| k1  | 7  | g1 |\n"
        "| k4  | 9  | g1 |\n"
        "| k5  | 16 | g2 |\n"
        "| k2  | 14 | g2 |\n"
        "| k8  | 18 | g2 |\n"
        "| k11 | 1  | g2 |\n"
        "+-----+----+----+\n"
        "14 row(s)",
        // SELECT * FROM r ORDER BY G DESC LIMIT 5
        "+-----+----+----+\n"
        "| K   | V  | G  |\n"
        "+-----+----+----+\n"
        "| k5  | 16 | g2 |\n"
        "| k2  | 14 | g2 |\n"
        "| k8  | 18 | g2 |\n"
        "| k11 | 1  | g2 |\n"
        "| k10 | 13 | g1 |\n"
        "+-----+----+----+\n"
        "5 row(s)",
        // SELECT K, G FROM r ORDER BY G LIMIT 4
        "+----+----+\n"
        "| K  | G  |\n"
        "+----+----+\n"
        "| k3 | g0 |\n"
        "| k6 | g0 |\n"
        "| k9 | g0 |\n"
        "| k0 | g0 |\n"
        "+----+----+\n"
        "4 row(s)",
        // SELECT V FROM r ORDER BY G
        "+----+\n"
        "| V  |\n"
        "+----+\n"
        "| 2  |\n"
        "| 4  |\n"
        "| 6  |\n"
        "| 0  |\n"
        "| 90 |\n"
        "| 13 |\n"
        "| 11 |\n"
        "| 91 |\n"
        "| 7  |\n"
        "| 9  |\n"
        "| 16 |\n"
        "| 14 |\n"
        "| 18 |\n"
        "| 1  |\n"
        "+----+\n"
        "14 row(s)"}},
      {4,
       {// SELECT * FROM r LIMIT 3
        "+-----+----+----+\n"
        "| K   | V  | G  |\n"
        "+-----+----+----+\n"
        "| k11 | 1  | g2 |\n"
        "| k2  | 14 | g2 |\n"
        "| k6  | 4  | g0 |\n"
        "+-----+----+----+\n"
        "3 row(s)",
        // SELECT G FROM r LIMIT 2
        "+----+\n"
        "| G  |\n"
        "+----+\n"
        "| g0 |\n"
        "| g2 |\n"
        "+----+\n"
        "2 row(s)",
        // SELECT * FROM r ORDER BY G
        "+-----+----+----+\n"
        "| K   | V  | G  |\n"
        "+-----+----+----+\n"
        "| k6  | 4  | g0 |\n"
        "| k9  | 6  | g0 |\n"
        "| k0  | 0  | g0 |\n"
        "| k3  | 2  | g0 |\n"
        "| k90 | 90 | g0 |\n"
        "| k91 | 91 | g1 |\n"
        "| k1  | 7  | g1 |\n"
        "| k4  | 9  | g1 |\n"
        "| k7  | 11 | g1 |\n"
        "| k10 | 13 | g1 |\n"
        "| k2  | 14 | g2 |\n"
        "| k11 | 1  | g2 |\n"
        "| k5  | 16 | g2 |\n"
        "| k8  | 18 | g2 |\n"
        "+-----+----+----+\n"
        "14 row(s)",
        // SELECT * FROM r ORDER BY G DESC LIMIT 5
        "+-----+----+----+\n"
        "| K   | V  | G  |\n"
        "+-----+----+----+\n"
        "| k2  | 14 | g2 |\n"
        "| k11 | 1  | g2 |\n"
        "| k5  | 16 | g2 |\n"
        "| k8  | 18 | g2 |\n"
        "| k91 | 91 | g1 |\n"
        "+-----+----+----+\n"
        "5 row(s)",
        // SELECT K, G FROM r ORDER BY G LIMIT 4
        "+----+----+\n"
        "| K  | G  |\n"
        "+----+----+\n"
        "| k6 | g0 |\n"
        "| k9 | g0 |\n"
        "| k0 | g0 |\n"
        "| k3 | g0 |\n"
        "+----+----+\n"
        "4 row(s)",
        // SELECT V FROM r ORDER BY G
        "+----+\n"
        "| V  |\n"
        "+----+\n"
        "| 4  |\n"
        "| 6  |\n"
        "| 0  |\n"
        "| 2  |\n"
        "| 90 |\n"
        "| 91 |\n"
        "| 7  |\n"
        "| 9  |\n"
        "| 11 |\n"
        "| 13 |\n"
        "| 14 |\n"
        "| 1  |\n"
        "| 16 |\n"
        "| 18 |\n"
        "+----+\n"
        "14 row(s)"}},
  };
  for (const auto& [shards, replies] : golden) {
    SCOPED_TRACE(StrCat(shards, " shards"));
    RemoveDirs();
    auto router = OpenRouter(shards);
    ASSERT_NE(router, nullptr);
    auto session = router->NewClientSession();
    for (const std::string& stmt : BatteryRelation()) {
      ASSERT_TRUE(session->Execute(stmt).ok()) << stmt;
    }
    for (size_t i = 0; i < shapes.size(); ++i) {
      Result<std::string> got = session->Execute(shapes[i]);
      ASSERT_TRUE(got.ok()) << shapes[i] << ": " << got.status();
      EXPECT_EQ(*got, replies[i]) << shapes[i];
    }
  }
}

TEST_F(ShardTest, RowsActuallyDistributeAcrossShards) {
  auto router = OpenRouter(4);
  ASSERT_NE(router, nullptr);
  auto session = router->NewClientSession();
  ASSERT_TRUE(session
                  ->Execute("CREATE RELATION d (K STRING, V INT) FD K -> V")
                  .ok());
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(
        session->Execute(StrCat("INSERT INTO d VALUES (key", i, ", ", i, ")"))
            .ok());
  }
  size_t populated = 0;
  size_t total = 0;
  for (size_t i = 0; i < router->shard_count(); ++i) {
    auto rel = router->shard_db(i)->Relation("d");
    ASSERT_TRUE(rel.ok());
    total += (*rel)->Expand().size();
    if ((*rel)->size() > 0) ++populated;
  }
  EXPECT_EQ(total, 32u);
  EXPECT_GE(populated, 2u) << "hash partitioning left the data on one shard";
}

TEST_F(ShardTest, UpdateOfPartitionAttributeIsRejected) {
  auto router = OpenRouter(2);
  ASSERT_NE(router, nullptr);
  auto session = router->NewClientSession();
  ASSERT_TRUE(session
                  ->Execute("CREATE RELATION u (K STRING, V INT) FD K -> V")
                  .ok());
  ASSERT_TRUE(session->Execute("INSERT INTO u VALUES (a, 1)").ok());
  auto res = session->Execute("UPDATE u SET K = b WHERE V = 1");
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kUnimplemented);
}

// ---------------------------------------------------------------------
// Batch and DDL edge cases
// ---------------------------------------------------------------------

TEST_F(ShardTest, MidBatchErrorLeavesOtherRepliesIntact) {
  auto router = OpenRouter(3);
  ASSERT_NE(router, nullptr);
  auto session = router->NewClientSession();
  ASSERT_TRUE(session
                  ->Execute("CREATE RELATION b (K STRING, V INT) FD K -> V")
                  .ok());
  std::vector<std::string> batch = {
      "INSERT INTO b VALUES (a, 1)",
      "INSERT INTO missing VALUES (x)",  // Fails: unknown relation.
      "INSERT INTO b VALUES (c, 3)",
      "SELECT COUNT(*) FROM b",
  };
  std::vector<Result<std::string>> results = session->ExecuteBatch(batch);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_EQ(*results[0], "inserted 1 tuple(s) into b");
  ASSERT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(results[2].ok());
  ASSERT_TRUE(results[3].ok());
  EXPECT_EQ(*results[3], "2");
}

TEST_F(ShardTest, MidBatchBusyLeavesOtherRepliesIntact) {
  auto router = OpenRouter(3);
  ASSERT_NE(router, nullptr);
  auto writer = router->NewClientSession();
  auto holder = router->NewClientSession();
  ASSERT_TRUE(writer
                  ->Execute("CREATE RELATION busy (K STRING, V INT) "
                            "FD K -> V")
                  .ok());
  ASSERT_TRUE(writer->Execute("INSERT INTO busy VALUES (a, 1)").ok());
  // The holder's fan-out BEGIN claims the transaction slot on every
  // shard; the writer's mutations must bounce while its reads proceed.
  ASSERT_TRUE(holder->Execute("BEGIN").ok());
  std::vector<Result<std::string>> results = writer->ExecuteBatch({
      "SELECT COUNT(*) FROM busy",
      "INSERT INTO busy VALUES (b, 2)",  // Bounces: slot taken.
      "SELECT COUNT(*) FROM busy",
  });
  ASSERT_EQ(results.size(), 3u);
  ASSERT_TRUE(results[0].ok());
  EXPECT_EQ(*results[0], "1");
  EXPECT_FALSE(results[1].ok());
  ASSERT_TRUE(results[2].ok());
  EXPECT_EQ(*results[2], "1");
  ASSERT_TRUE(holder->Execute("ROLLBACK").ok());
  EXPECT_TRUE(writer->Execute("INSERT INTO busy VALUES (b, 2)").ok());
}

TEST_F(ShardTest, DdlRollbackOnPartialCreateFailure) {
  auto router = OpenRouter(3);
  ASSERT_NE(router, nullptr);
  // Plant a conflicting relation directly on the LAST shard: the
  // router's CREATE fan-out succeeds on shards 0 and 1, fails on 2,
  // and must roll the first two back.
  ASSERT_TRUE(router->shard_db(2)
                  ->CreateRelation("c", Schema::OfStrings({"X"}), {0})
                  .ok());
  auto session = router->NewClientSession();
  auto res = session->Execute("CREATE RELATION c (K STRING, V INT)");
  ASSERT_FALSE(res.ok());
  EXPECT_FALSE(router->shard_db(0)->Info("c").ok())
      << "shard 0 kept the half-created relation";
  EXPECT_FALSE(router->shard_db(1)->Info("c").ok())
      << "shard 1 kept the half-created relation";
  // Clear the planted conflict; the fan-out then succeeds everywhere.
  ASSERT_TRUE(router->shard_db(2)->DropRelation("c").ok());
  EXPECT_TRUE(session->Execute("CREATE RELATION c (K STRING, V INT)").ok());
  for (size_t i = 0; i < router->shard_count(); ++i) {
    EXPECT_TRUE(router->shard_db(i)->Info("c").ok()) << "shard " << i;
  }
}

TEST_F(ShardTest, SingleShardInteropIsByteIdentical) {
  auto router = OpenRouter(1);
  ASSERT_NE(router, nullptr);
  OpenOracle();
  auto session = router->NewClientSession();
  CompareAgainstOracle(session.get(), oracle_.get(), OracleBattery());
  // Meta commands go through the router even with one shard (so
  // `\metrics` includes the router-level registry — replication lag on
  // a 1-shard follower lives there): `\shards` reports the real
  // layout instead of forwarding to the engine's "no shards" reply.
  auto shards = session->Execute("\\shards");
  ASSERT_TRUE(shards.ok());
  EXPECT_NE(shards->find("1 shard(s)"), std::string::npos) << *shards;
}

// ---------------------------------------------------------------------
// EXPLAIN goldens
// ---------------------------------------------------------------------

TEST_F(ShardTest, ExplainShowsIndexRangeScanForRangePredicates) {
  OpenOracle();
  ASSERT_TRUE(oracle_
                  ->Execute("CREATE RELATION e (K STRING, V INT) FD K -> V")
                  .ok());
  ASSERT_TRUE(oracle_->Execute("INSERT INTO e VALUES (a, 1), (b, 5)").ok());
  auto plan = oracle_->Execute("EXPLAIN SELECT * FROM e WHERE V >= 3");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(plan->find("index_range_scan(e: V >= 3)"), std::string::npos)
      << *plan;
  auto bounded =
      oracle_->Execute("EXPLAIN SELECT * FROM e WHERE V > 1 AND V <= 5");
  ASSERT_TRUE(bounded.ok());
  EXPECT_NE(bounded->find("index_range_scan(e: V > 1, V <= 5)"),
            std::string::npos)
      << *bounded;
}

TEST_F(ShardTest, ExplainAnnotatesScatterAndForwardsPointPlans) {
  auto router = OpenRouter(3);
  ASSERT_NE(router, nullptr);
  auto session = router->NewClientSession();
  ASSERT_TRUE(session
                  ->Execute("CREATE RELATION x (K STRING, V INT) FD K -> V")
                  .ok());
  ASSERT_TRUE(session->Execute("INSERT INTO x VALUES (a, 1)").ok());
  auto scattered = session->Execute("EXPLAIN SELECT * FROM x");
  ASSERT_TRUE(scattered.ok());
  EXPECT_NE(scattered->find("scatter: 3 shard(s), merged at router"),
            std::string::npos)
      << *scattered;
  auto point = session->Execute("EXPLAIN SELECT * FROM x WHERE K = a");
  ASSERT_TRUE(point.ok());
  EXPECT_EQ(point->find("scatter:"), std::string::npos) << *point;
  auto profile_scatter = session->Execute("PROFILE SELECT * FROM x");
  ASSERT_FALSE(profile_scatter.ok());
  EXPECT_EQ(profile_scatter.status().code(), StatusCode::kUnimplemented);
}

// Relations partition on their own keys, so the rows a JOIN pairs up
// live on different shards. A scattered JOIN still answers exactly as
// one engine: its plan joins the union of every shard's rows.
TEST_F(ShardTest, JoinMatchesSingleEngineAtFourShards) {
  auto router = OpenRouter(4);
  ASSERT_NE(router, nullptr);
  OpenOracle();
  auto session = router->NewClientSession();
  std::vector<std::string> battery = {
      "CREATE RELATION j (K STRING, V INT) FD K -> V",
      "CREATE RELATION k2 (V INT, W STRING) FD V -> W",
  };
  for (int i = 0; i < 12; ++i) {
    battery.push_back(StrCat("INSERT INTO j VALUES (k", i, ", ", i % 6, ")"));
  }
  for (int v = 0; v < 5; ++v) {
    battery.push_back(StrCat("INSERT INTO k2 VALUES (", v, ", w", v % 3, ")"));
  }
  battery.push_back("SELECT * FROM j JOIN k2");
  // Pins j's partition attribute, yet k2's matching row may live on
  // any shard: a JOIN never point-routes.
  battery.push_back("SELECT * FROM j JOIN k2 WHERE K = k3");
  battery.push_back("SELECT * FROM j JOIN k2 WHERE W = w2");
  // Both engines' parser refuses GROUP BY over a join, with one text.
  battery.push_back("SELECT W, COUNT(*) FROM j JOIN k2 GROUP BY W");
  battery.push_back("SELECT COUNT(*), MAX(W) FROM j JOIN k2");
  battery.push_back("SELECT * FROM j JOIN k2 ORDER BY K DESC LIMIT 3");
  CompareAgainstOracle(session.get(), oracle_.get(), battery);

  // EXPLAIN of a JOIN is shard 0's plan plus the scatter note, like any
  // scattered SELECT; PROFILE of one is still unsupported.
  auto explained =
      session->Execute("EXPLAIN SELECT * FROM j JOIN k2 WHERE K = k3");
  ASSERT_TRUE(explained.ok()) << explained.status();
  EXPECT_NE(explained->find("join(k2)"), std::string::npos) << *explained;
  EXPECT_NE(explained->find("scatter: 4 shard(s), merged at router"),
            std::string::npos)
      << *explained;
  auto profiled = session->Execute("PROFILE SELECT * FROM j JOIN k2");
  ASSERT_FALSE(profiled.ok());
  EXPECT_EQ(profiled.status().code(), StatusCode::kUnimplemented);
}

// ---------------------------------------------------------------------
// \shards meta command
// ---------------------------------------------------------------------

TEST_F(ShardTest, ShardsMetaCommandReportsPerShardState) {
  auto router = OpenRouter(3);
  ASSERT_NE(router, nullptr);
  auto session = router->NewClientSession();
  ASSERT_TRUE(session
                  ->Execute("CREATE RELATION m (K STRING, V INT) FD K -> V")
                  .ok());
  auto out = session->Execute("\\shards");
  ASSERT_TRUE(out.ok()) << out.status();
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NE(out->find(StrCat("shard-", i, ": 1 relation(s), wal ")),
              std::string::npos)
        << *out;
  }
  EXPECT_NE(out->find("last checkpoint never"), std::string::npos) << *out;
  EXPECT_NE(out->find("3 shard(s)"), std::string::npos) << *out;
  ASSERT_TRUE(session->Execute("CHECKPOINT").ok());
  out = session->Execute("\\shards");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->find("last checkpoint never"), std::string::npos) << *out;
  // Per-shard engine metrics carry shard labels in Prometheus form.
  auto prom = session->Execute("\\metrics prom");
  ASSERT_TRUE(prom.ok());
  EXPECT_NE(prom->find("shard=\"0\""), std::string::npos);
  EXPECT_NE(prom->find("nf2_router_shards"), std::string::npos);
}

// ---------------------------------------------------------------------
// Torture: 4 shards, 8 sessions, bit-identical to a single-engine
// replay of the same (commuting) write stream.
// ---------------------------------------------------------------------

TEST_F(ShardTest, TortureFourShardsEightSessionsMatchesOracleBitForBit) {
  constexpr int kWriters = 4;
  constexpr int kReaders = 4;
  constexpr int kRounds = 60;

  auto router = OpenRouter(4);
  ASSERT_NE(router, nullptr);
  {
    auto admin = router->NewClientSession();
    ASSERT_TRUE(
        admin
            ->Execute("CREATE RELATION takes (Student STRING, Course STRING, "
                      "Club STRING) FD Student -> Course, Club")
            .ok());
  }

  // Each writer owns a disjoint key range, so the inserts and deletes
  // commute and the final state is interleaving-independent — the
  // oracle argument from concurrency_test, extended across shards.
  std::vector<std::vector<std::string>> streams(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kRounds; ++i) {
      streams[w].push_back(StrCat("INSERT INTO takes VALUES (w", w, "s", i,
                                  ", c", (i * 7) % 5, ", k", i % 3, ")"));
      if (i % 5 == 4) {
        streams[w].push_back(StrCat("DELETE FROM takes WHERE Student = w", w,
                                    "s", i - 2));
      }
    }
  }

  std::vector<std::thread> threads;
  std::atomic<bool> stop{false};
  std::atomic<int> write_errors{0};
  std::atomic<int> read_errors{0};
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w]() {
      auto session = router->NewClientSession();
      for (const std::string& stmt : streams[w]) {
        if (!session->Execute(stmt).ok()) ++write_errors;
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r]() {
      auto session = router->NewClientSession();
      while (!stop.load(std::memory_order_relaxed)) {
        const char* queries[] = {
            "SELECT COUNT(*) FROM takes",
            "SELECT * FROM takes ORDER BY Student LIMIT 10",
            "SELECT Club, COUNT(*) FROM takes GROUP BY Club",
            "SHOW takes",
        };
        if (!session->Execute(queries[r % 4]).ok()) ++read_errors;
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true, std::memory_order_relaxed);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();
  EXPECT_EQ(write_errors.load(), 0);
  EXPECT_EQ(read_errors.load(), 0);

  // Oracle: replay every writer's stream sequentially into one engine.
  OpenOracle();
  ASSERT_TRUE(
      oracle_
          ->Execute("CREATE RELATION takes (Student STRING, Course STRING, "
                    "Club STRING) FD Student -> Course, Club")
          .ok());
  for (const auto& stream : streams) {
    for (const std::string& stmt : stream) {
      ASSERT_TRUE(oracle_->Execute(stmt).ok()) << stmt;
    }
  }

  // Rendered surfaces agree...
  auto session = router->NewClientSession();
  for (const char* probe :
       {"SHOW takes", "SELECT * FROM takes ORDER BY Student",
        "SELECT COUNT(*) FROM takes", "DESCRIBE takes",
        "SELECT Club, COUNT(*) FROM takes GROUP BY Club"}) {
    auto got = session->Execute(probe);
    auto want = oracle_->Execute(probe);
    ASSERT_TRUE(got.ok() && want.ok()) << probe;
    EXPECT_EQ(*got, *want) << probe;
  }

  // ...and the recomposed relation is bit-identical: concatenate every
  // shard's R*, re-nest under the declared order (Theorem 2 makes the
  // canonical form unique), and compare serialized bytes against the
  // oracle's relation put through the same canonicalization (the live
  // NfrRelation keeps arrival order; only the canonical form is
  // unique).
  auto oracle_rel = oracle_db_->Relation("takes");
  ASSERT_TRUE(oracle_rel.ok());
  auto oracle_info = oracle_db_->Info("takes");
  ASSERT_TRUE(oracle_info.ok());
  std::vector<FlatTuple> rows;
  for (size_t i = 0; i < router->shard_count(); ++i) {
    auto rel = router->shard_db(i)->Relation("takes");
    ASSERT_TRUE(rel.ok());
    FlatRelation expanded = (*rel)->Expand();
    for (const FlatTuple& t : expanded.tuples()) rows.push_back(t);
  }
  NfrRelation merged = CanonicalForm(
      FlatRelation((*oracle_info)->schema, std::move(rows)),
      (*oracle_info)->nest_order);
  BufferWriter got_bytes;
  EncodeNfrRelation(merged, &got_bytes);
  NfrRelation oracle_canonical = CanonicalForm(
      (*oracle_rel)->Expand(), (*oracle_info)->nest_order);
  BufferWriter want_bytes;
  EncodeNfrRelation(oracle_canonical, &want_bytes);
  EXPECT_EQ(got_bytes.data(), want_bytes.data())
      << "recomposed shard union differs from the single-engine oracle";
}

}  // namespace
}  // namespace nf2
