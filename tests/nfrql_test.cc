#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>

#include "algebra/operators.h"
#include "nfrql/executor.h"
#include "nfrql/lexer.h"
#include "nfrql/parser.h"
#include "server/session.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace nf2 {
namespace {

TEST(LexerTest, BasicTokens) {
  Result<std::vector<Token>> tokens =
      Lex("SELECT * FROM r WHERE a = 'x1' AND b >= 3;");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenType> types;
  for (const Token& t : *tokens) types.push_back(t.type);
  EXPECT_EQ(types,
            (std::vector<TokenType>{
                TokenType::kIdentifier, TokenType::kStar,
                TokenType::kIdentifier, TokenType::kIdentifier,
                TokenType::kIdentifier, TokenType::kIdentifier,
                TokenType::kEq, TokenType::kString, TokenType::kIdentifier,
                TokenType::kIdentifier, TokenType::kGe, TokenType::kInteger,
                TokenType::kSemicolon, TokenType::kEnd}));
}

TEST(LexerTest, Numbers) {
  Result<std::vector<Token>> tokens = Lex("42 -7 3.5 -0.25");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].int_value, 42);
  EXPECT_EQ((*tokens)[1].int_value, -7);
  EXPECT_DOUBLE_EQ((*tokens)[2].double_value, 3.5);
  EXPECT_DOUBLE_EQ((*tokens)[3].double_value, -0.25);
}

TEST(LexerTest, ArrowsAndComparisons) {
  Result<std::vector<Token>> tokens = Lex("-> ->-> != <= >= < > = |");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenType> types;
  for (const Token& t : *tokens) types.push_back(t.type);
  EXPECT_EQ(types, (std::vector<TokenType>{
                       TokenType::kArrow, TokenType::kDoubleArrow,
                       TokenType::kNe, TokenType::kLe, TokenType::kGe,
                       TokenType::kLt, TokenType::kGt, TokenType::kEq,
                       TokenType::kPipe, TokenType::kEnd}));
}

TEST(LexerTest, QuotedStringsWithEscapes) {
  Result<std::vector<Token>> tokens = Lex("'it''s nested'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "it's nested");
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Lex("'unterminated").ok());
  EXPECT_FALSE(Lex("a @ b").ok());
}

TEST(ParserTest, CreateWithEverything) {
  Result<Statement> stmt = ParseStatement(
      "CREATE RELATION students (Student STRING, Course STRING, Club "
      "STRING) NEST Course, Club, Student MVD Student ->-> Course "
      "FD Student -> Club");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  const auto& create = std::get<CreateStatement>(*stmt);
  EXPECT_EQ(create.name, "students");
  EXPECT_EQ(create.attributes.size(), 3u);
  EXPECT_EQ(create.nest_order,
            (std::vector<std::string>{"Course", "Club", "Student"}));
  ASSERT_EQ(create.mvds.size(), 1u);
  EXPECT_EQ(create.mvds[0].lhs, (std::vector<std::string>{"Student"}));
  ASSERT_EQ(create.fds.size(), 1u);
  EXPECT_EQ(create.fds[0].rhs, (std::vector<std::string>{"Club"}));
}

TEST(ParserTest, InsertMultiRow) {
  Result<Statement> stmt = ParseStatement(
      "INSERT INTO r VALUES ('a', 1), ('b', 2)");
  ASSERT_TRUE(stmt.ok());
  const auto& insert = std::get<InsertStatement>(*stmt);
  ASSERT_EQ(insert.rows.size(), 2u);
  EXPECT_EQ(insert.rows[0][0], Value::String("a"));
  EXPECT_EQ(insert.rows[1][1], Value::Int(2));
}

TEST(ParserTest, BareIdentifiersAsLiterals) {
  Result<Statement> stmt = ParseStatement("INSERT INTO r VALUES (s1, c1)");
  ASSERT_TRUE(stmt.ok());
  const auto& insert = std::get<InsertStatement>(*stmt);
  EXPECT_EQ(insert.rows[0][0], Value::String("s1"));
}

TEST(ParserTest, SelectWithCondition) {
  Result<Statement> stmt = ParseStatement(
      "SELECT a, b FROM r WHERE (a = x OR b != y) AND NOT c < 5");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  const auto& select = std::get<SelectStatement>(*stmt);
  EXPECT_EQ(select.columns, (std::vector<std::string>{"a", "b"}));
  ASSERT_NE(select.where, nullptr);
  EXPECT_EQ(select.where->kind, ConditionNode::Kind::kAnd);
  EXPECT_EQ(select.where->left->kind, ConditionNode::Kind::kOr);
  EXPECT_EQ(select.where->right->kind, ConditionNode::Kind::kNot);
}

TEST(ParserTest, DeleteForms) {
  Result<Statement> by_values =
      ParseStatement("DELETE FROM r VALUES (a, b)");
  ASSERT_TRUE(by_values.ok());
  EXPECT_EQ(std::get<DeleteStatement>(*by_values).rows.size(), 1u);
  Result<Statement> by_where =
      ParseStatement("DELETE FROM r WHERE a = x");
  ASSERT_TRUE(by_where.ok());
  EXPECT_NE(std::get<DeleteStatement>(*by_where).where, nullptr);
  EXPECT_FALSE(ParseStatement("DELETE FROM r").ok());
}

TEST(ParserTest, SmallStatements) {
  EXPECT_TRUE(std::holds_alternative<ListStatement>(
      *ParseStatement("LIST")));
  EXPECT_TRUE(std::holds_alternative<CheckpointStatement>(
      *ParseStatement("CHECKPOINT;")));
  EXPECT_TRUE(std::holds_alternative<ShowStatement>(
      *ParseStatement("SHOW r")));
  EXPECT_TRUE(std::holds_alternative<StatsStatement>(
      *ParseStatement("STATS r")));
  EXPECT_TRUE(std::holds_alternative<DropStatement>(
      *ParseStatement("DROP RELATION r")));
  Result<Statement> nest_result = ParseStatement("NEST r ON a, b");
  const auto& nest = std::get<NestStatement>(*nest_result);
  EXPECT_FALSE(nest.unnest);
  EXPECT_EQ(nest.attributes, (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(
      std::get<NestStatement>(*ParseStatement("UNNEST r ON a")).unnest);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseStatement("").ok());
  EXPECT_FALSE(ParseStatement("FROBNICATE r").ok());
  EXPECT_FALSE(ParseStatement("SELECT FROM r").ok());
  EXPECT_FALSE(ParseStatement("CREATE RELATION r").ok());
  EXPECT_FALSE(ParseStatement("INSERT INTO r VALUES ()").ok());
  EXPECT_FALSE(ParseStatement("SELECT * FROM r extra junk").ok());
}

TEST(ParserTest, ExplainAndProfile) {
  Result<Statement> explain = ParseStatement("EXPLAIN SELECT * FROM r");
  ASSERT_TRUE(explain.ok()) << explain.status();
  const auto& ex = std::get<ExplainStatement>(*explain);
  EXPECT_FALSE(ex.profile);
  ASSERT_NE(ex.inner, nullptr);
  EXPECT_TRUE(std::holds_alternative<SelectStatement>(ex.inner->stmt));

  Result<Statement> profile =
      ParseStatement("PROFILE INSERT INTO r VALUES (a)");
  ASSERT_TRUE(profile.ok()) << profile.status();
  const auto& pr = std::get<ExplainStatement>(*profile);
  EXPECT_TRUE(pr.profile);
  ASSERT_NE(pr.inner, nullptr);
  EXPECT_TRUE(std::holds_alternative<InsertStatement>(pr.inner->stmt));

  // The prefix applies to exactly one statement; stacking is an error.
  EXPECT_FALSE(ParseStatement("EXPLAIN PROFILE SELECT * FROM r").ok());
  EXPECT_FALSE(ParseStatement("PROFILE EXPLAIN LIST").ok());
  EXPECT_FALSE(ParseStatement("EXPLAIN").ok());
}

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() / "nf2_nfrql_test")
               .string();
    std::filesystem::remove_all(dir_);
    auto db = Database::Open(dir_);
    ASSERT_TRUE(db.ok());
    db_ = *std::move(db);
    executor_ = std::make_unique<Executor>(db_.get());
  }
  void TearDown() override {
    executor_.reset();
    db_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::string Must(const std::string& query) {
    Result<std::string> out = executor_->Execute(query);
    EXPECT_TRUE(out.ok()) << query << " -> " << out.status();
    return out.ok() ? *out : "";
  }

  std::string dir_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Executor> executor_;
};

TEST_F(ExecutorTest, EndToEndUniversityScenario) {
  std::string created = Must(
      "CREATE RELATION sc (Student STRING, Course STRING, Club STRING) "
      "MVD Student ->-> Course");
  EXPECT_NE(created.find("created relation sc"), std::string::npos);
  // The advisor nests the MVD LHS (Student) last.
  EXPECT_NE(created.find("Student]"), std::string::npos);

  Must("INSERT INTO sc VALUES (s1, c1, b1), (s1, c2, b1), (s2, c1, b2)");
  std::string select = Must("SELECT * FROM sc WHERE Student = s1");
  EXPECT_NE(select.find("2 row(s)"), std::string::npos);
  EXPECT_NE(select.find("c2"), std::string::npos);

  std::string shown = Must("SHOW sc");
  // s1's two courses are grouped into one NFR tuple.
  EXPECT_NE(shown.find("c1, c2"), std::string::npos);

  std::string stats = Must("STATS sc");
  EXPECT_NE(stats.find("2 NFR tuples"), std::string::npos);

  Must("DELETE FROM sc VALUES (s1, c1, b1)");
  std::string after = Must("SELECT * FROM sc");
  EXPECT_NE(after.find("2 row(s)"), std::string::npos);

  Must("DELETE FROM sc WHERE Student = s2");
  EXPECT_NE(Must("SELECT * FROM sc").find("1 row(s)"), std::string::npos);
}

TEST_F(ExecutorTest, ProjectionAndNestViews) {
  Must("CREATE RELATION r (A STRING, B STRING) NEST A, B");
  Must("INSERT INTO r VALUES (a1, b1), (a2, b1), (a1, b2)");
  std::string projected = Must("SELECT A FROM r");
  EXPECT_NE(projected.find("2 row(s)"), std::string::npos);
  std::string nested = Must("NEST r ON A");
  EXPECT_NE(nested.find("a1, a2"), std::string::npos);
  std::string unnested = Must("UNNEST r ON A");
  EXPECT_NE(unnested.find("NEST"), std::string::npos);
}

TEST_F(ExecutorTest, ListAndCheckpointAndDrop) {
  EXPECT_EQ(Must("LIST"), "no relations");
  Must("CREATE RELATION a (X STRING)");
  Must("CREATE RELATION b (Y STRING)");
  EXPECT_EQ(Must("LIST"), "a\nb");
  EXPECT_EQ(Must("CHECKPOINT"), "checkpoint complete");
  Must("DROP RELATION a");
  EXPECT_EQ(Must("LIST"), "b");
}

TEST_F(ExecutorTest, ErrorsSurfaceCleanly) {
  EXPECT_FALSE(executor_->Execute("SELECT * FROM missing").ok());
  Must("CREATE RELATION r (A STRING)");
  EXPECT_FALSE(executor_->Execute("INSERT INTO r VALUES (x, y)").ok());
  EXPECT_FALSE(
      executor_->Execute("SELECT * FROM r WHERE Nope = 1").ok());
  EXPECT_FALSE(executor_->Execute("CREATE RELATION r (A BADTYPE)").ok());
  EXPECT_FALSE(executor_->Execute("garbage !!").ok());
}

TEST_F(ExecutorTest, DescribeStatement) {
  Must("CREATE RELATION r1 (Student STRING, Course STRING, Club STRING) "
       "MVD Student ->-> Course FD Student -> Club");
  Must("INSERT INTO r1 VALUES (s1, c1, b1), (s1, c2, b1)");
  std::string out = Must("DESCRIBE r1");
  EXPECT_NE(out.find("relation  : r1"), std::string::npos);
  EXPECT_NE(out.find("nest order:"), std::string::npos);
  EXPECT_NE(out.find("{Student}->{Club}"), std::string::npos);
  EXPECT_NE(out.find("->->"), std::string::npos);
  EXPECT_NE(out.find("|R*|=2"), std::string::npos);
  EXPECT_FALSE(executor_->Execute("DESCRIBE missing").ok());
}

TEST_F(ExecutorTest, GroupByCount) {
  Must("CREATE RELATION takes (Student STRING, Course STRING) "
       "NEST Course, Student");
  Must("INSERT INTO takes VALUES (ada, algebra), (ada, calculus), "
       "(ada, crypto), (bob, algebra), (eve, crypto), (eve, algebra)");
  std::string out =
      Must("SELECT Student, COUNT(Course) FROM takes GROUP BY Student");
  EXPECT_NE(out.find("ada\t3"), std::string::npos);
  EXPECT_NE(out.find("bob\t1"), std::string::npos);
  EXPECT_NE(out.find("eve\t2"), std::string::npos);
  EXPECT_NE(out.find("3 group(s)"), std::string::npos);
  // With a WHERE filter.
  std::string filtered = Must(
      "SELECT Student, COUNT(Course) FROM takes WHERE Course != crypto "
      "GROUP BY Student");
  EXPECT_NE(filtered.find("ada\t2"), std::string::npos);
  EXPECT_NE(filtered.find("eve\t1"), std::string::npos);
  // Errors: mismatched GROUP BY attribute; joins unsupported.
  EXPECT_FALSE(executor_
                   ->Execute("SELECT Student, COUNT(Course) FROM takes "
                             "GROUP BY Course")
                   .ok());
  EXPECT_FALSE(executor_
                   ->Execute("SELECT Student, COUNT(Course) FROM takes")
                   .ok());
}

TEST_F(ExecutorTest, UpdateStatement) {
  Must("CREATE RELATION emp (Name STRING, Dept STRING, Level INT)");
  Must("INSERT INTO emp VALUES (ada, cs, 3), (bob, cs, 2), "
       "(eve, math, 3)");
  std::string out = Must("UPDATE emp SET Dept = eng WHERE Name = ada");
  EXPECT_NE(out.find("updated 1 tuple(s)"), std::string::npos);
  EXPECT_NE(Must("SELECT * FROM emp WHERE Dept = eng").find("ada"),
            std::string::npos);
  // Multi-attribute SET, multi-row WHERE.
  Must("UPDATE emp SET Dept = ops, Level = 1 WHERE Level = 3");
  EXPECT_EQ(Must("SELECT COUNT(*) FROM emp WHERE Dept = ops"), "2");
  // No WHERE touches every tuple.
  Must("UPDATE emp SET Level = 9");
  EXPECT_EQ(Must("SELECT COUNT(*) FROM emp WHERE Level = 9"), "3");
  // Merging rewrite: two rows collapse into one.
  Must("UPDATE emp SET Name = anon, Dept = x WHERE Dept = ops");
  EXPECT_EQ(Must("SELECT COUNT(*) FROM emp"), "2");
  // Errors.
  EXPECT_FALSE(executor_->Execute("UPDATE emp SET Nope = 1").ok());
  EXPECT_FALSE(executor_->Execute("UPDATE emp SET").ok());
  EXPECT_FALSE(executor_->Execute("UPDATE missing SET Level = 1").ok());
}

TEST_F(ExecutorTest, JoinAndCount) {
  Must("CREATE RELATION sc (Student STRING, Course STRING)");
  Must("CREATE RELATION ct (Course STRING, Teacher STRING)");
  Must("INSERT INTO sc VALUES (s1, db), (s2, db), (s2, ai)");
  Must("INSERT INTO ct VALUES (db, codd), (ai, mccarthy), (os, unix)");
  std::string joined = Must("SELECT * FROM sc JOIN ct");
  EXPECT_NE(joined.find("3 row(s)"), std::string::npos);
  EXPECT_NE(joined.find("codd"), std::string::npos);
  std::string filtered =
      Must("SELECT Student FROM sc JOIN ct WHERE Teacher = codd");
  EXPECT_NE(filtered.find("2 row(s)"), std::string::npos);
  EXPECT_EQ(Must("SELECT COUNT(*) FROM sc"), "3");
  EXPECT_EQ(Must("SELECT COUNT(*) FROM sc JOIN ct WHERE Teacher = codd"),
            "2");
  EXPECT_EQ(Must("SELECT COUNT(*) FROM sc WHERE Student = s2"), "2");
  // Parse errors.
  EXPECT_FALSE(executor_->Execute("SELECT COUNT( FROM sc").ok());
  EXPECT_FALSE(executor_->Execute("SELECT * FROM sc JOIN").ok());
  // Unknown relation in the join list.
  EXPECT_FALSE(executor_->Execute("SELECT * FROM sc JOIN nope").ok());
}

TEST_F(ExecutorTest, TransactionStatements) {
  Must("CREATE RELATION t (A STRING)");
  EXPECT_EQ(Must("BEGIN"), "transaction started");
  Must("INSERT INTO t VALUES (x)");
  EXPECT_EQ(Must("ROLLBACK"), "transaction rolled back");
  EXPECT_NE(Must("SELECT * FROM t").find("0 row(s)"), std::string::npos);
  EXPECT_EQ(Must("BEGIN"), "transaction started");
  Must("INSERT INTO t VALUES (y)");
  EXPECT_EQ(Must("COMMIT"), "transaction committed");
  EXPECT_NE(Must("SELECT * FROM t").find("1 row(s)"), std::string::npos);
  // Stray commit errors.
  EXPECT_FALSE(executor_->Execute("COMMIT").ok());
}

TEST_F(ExecutorTest, TypedColumns) {
  Must("CREATE RELATION t (Name STRING, Age INT, Score DOUBLE)");
  Must("INSERT INTO t VALUES ('ann', 31, 9.5), ('bob', 25, 7.25)");
  std::string young = Must("SELECT Name FROM t WHERE Age < 30");
  EXPECT_NE(young.find("bob"), std::string::npos);
  EXPECT_EQ(young.find("ann"), std::string::npos);
}

TEST_F(ExecutorTest, ExplainGoldenPlans) {
  Must("CREATE RELATION r (A STRING, B STRING) NEST A, B");
  // EXPLAIN renders the static plan with kPlanOnly (no wall times), so
  // these are exact goldens.
  EXPECT_EQ(Must("EXPLAIN INSERT INTO r VALUES (a1, b1)"),
            "EXPLAIN\n"
            "insert(r) rows_in=1\n"
            "└─ recons\n");
  EXPECT_EQ(Must("EXPLAIN SELECT A FROM r WHERE A = a1"),
            "EXPLAIN\n"
            "select(r)\n"
            "└─ project(A)\n"
            "   └─ index_scan(r: A = a1)\n");
  EXPECT_EQ(Must("EXPLAIN DELETE FROM r WHERE A = a1"),
            "EXPLAIN\n"
            "delete(r)\n"
            "├─ filter(r)\n"
            "└─ recons\n");
  EXPECT_EQ(Must("EXPLAIN SELECT * FROM r"),
            "EXPLAIN\n"
            "select(r)\n"
            "└─ scan(r)\n");
  // EXPLAIN never executes the statement: r stays empty.
  EXPECT_NE(Must("SELECT * FROM r").find("0 row(s)"), std::string::npos);
}

TEST_F(ExecutorTest, ProfileRendersSpansWithTimes) {
  Must("CREATE RELATION r (A STRING, B STRING) NEST A, B");
  Must("INSERT INTO r VALUES (a1, b1), (a2, b1)");
  std::string out = Must("PROFILE SELECT * FROM r WHERE A = a1");
  // Result first, then the span tree with bracketed durations and
  // per-operator row counts.
  EXPECT_NE(out.find("1 row(s)"), std::string::npos);
  EXPECT_NE(out.find("\n\nPROFILE\n"), std::string::npos);
  EXPECT_NE(out.find("select(r) ["), std::string::npos);
  EXPECT_NE(out.find("index_scan(r: A = a1) ["), std::string::npos);
  EXPECT_NE(out.find("rows_out=1"), std::string::npos);
  // Statements without dedicated instrumentation still profile as a
  // single labeled span.
  EXPECT_NE(Must("PROFILE LIST").find("PROFILE\nlist"), std::string::npos);
}

TEST_F(ExecutorTest, ExplainGoldenPipelineOperators) {
  Must("CREATE RELATION r (A STRING, B STRING) NEST A, B");
  Must("CREATE RELATION ct (B STRING, C STRING) NEST B, C");
  // The `=` conjunct's postings drive the one narrowing leaf; the `!=`
  // on another attribute narrows B's component in the same leaf.
  EXPECT_EQ(Must("EXPLAIN SELECT * FROM r WHERE A = a1 AND B != b9"),
            "EXPLAIN\n"
            "select(r)\n"
            "└─ index_scan(r: A = a1, B != b9)\n");
  // Factorized aggregation never expands R*: the aggregate reads the
  // NFR source directly.
  EXPECT_EQ(Must("EXPLAIN SELECT COUNT(*) FROM r"),
            "EXPLAIN\n"
            "select(r)\n"
            "└─ nfr_aggregate(COUNT(*))\n"
            "   └─ nfr_scan(r)\n");
  EXPECT_EQ(Must("EXPLAIN SELECT COUNT(*) FROM r WHERE A = a1"),
            "EXPLAIN\n"
            "select(r)\n"
            "└─ nfr_aggregate(COUNT(*))\n"
            "   └─ nfr_index_scan(r: A = a1)\n");
  // GROUP BY with ORDER BY an aggregate label, capped by LIMIT.
  EXPECT_EQ(Must("EXPLAIN SELECT A, COUNT(B) FROM r GROUP BY A "
                 "ORDER BY COUNT(B) DESC LIMIT 2"),
            "EXPLAIN\n"
            "select(r)\n"
            "└─ limit(2)\n"
            "   └─ sort(COUNT(B) desc)\n"
            "      └─ nfr_aggregate(A: COUNT(B))\n"
            "         └─ nfr_scan(r)\n");
  // Joins hash-build the right side; the WHERE resolves on top of the
  // joined schema.
  EXPECT_EQ(Must("EXPLAIN SELECT * FROM r JOIN ct WHERE C = c1"),
            "EXPLAIN\n"
            "select(r)\n"
            "└─ filter\n"
            "   └─ join(ct)\n"
            "      ├─ scan(r)\n"
            "      └─ scan(ct)\n");
  // A `!=` narrows its component, so the aggregate stays factorized.
  EXPECT_EQ(Must("EXPLAIN SELECT COUNT(*) FROM r WHERE A != a1"),
            "EXPLAIN\n"
            "select(r)\n"
            "└─ nfr_aggregate(COUNT(*))\n"
            "   └─ nfr_scan(r: A != a1)\n");
  // Only a predicate relating two attributes stays a residual filter,
  // and it forces aggregation onto the row pipeline.
  EXPECT_EQ(Must("EXPLAIN SELECT COUNT(*) FROM r WHERE A = a1 OR B = b1"),
            "EXPLAIN\n"
            "select(r)\n"
            "└─ aggregate(COUNT(*))\n"
            "   └─ filter(r)\n"
            "      └─ scan(r)\n");
}

TEST_F(ExecutorTest, ExplainGoldenNarrowingLeaves) {
  Must("CREATE RELATION e (K STRING, V INT, W INT)");
  // A range aggregate bound-scans the index and folds the narrowed
  // tuples without expanding them.
  EXPECT_EQ(Must("EXPLAIN SELECT COUNT(*), SUM(V) FROM e "
                 "WHERE V >= 3 AND V < 8"),
            "EXPLAIN\n"
            "select(e)\n"
            "└─ nfr_aggregate(COUNT(*), SUM(V))\n"
            "   └─ nfr_index_range_scan(e: V >= 3, V < 8)\n");
  // A `!=` aggregate scans every tuple and narrows K.
  EXPECT_EQ(Must("EXPLAIN SELECT K, SUM(W) FROM e WHERE K != k1 GROUP BY K"),
            "EXPLAIN\n"
            "select(e)\n"
            "└─ nfr_aggregate(K: SUM(W))\n"
            "   └─ nfr_scan(e: K != k1)\n");
  // Two ranged attributes: the first is bound-scanned, both narrow.
  EXPECT_EQ(Must("EXPLAIN SELECT * FROM e WHERE V > 1 AND W <= 5"),
            "EXPLAIN\n"
            "select(e)\n"
            "└─ index_range_scan(e: V > 1, W <= 5)\n");
  EXPECT_EQ(Must("EXPLAIN SELECT COUNT(*) FROM e WHERE W <= 5 AND V > 1"),
            "EXPLAIN\n"
            "select(e)\n"
            "└─ nfr_aggregate(COUNT(*))\n"
            "   └─ nfr_index_range_scan(e: W <= 5, V > 1)\n");
  // `=` plus a range on another attribute: the postings drive.
  EXPECT_EQ(Must("EXPLAIN SELECT COUNT(*) FROM e WHERE V < 4 AND K = k1"),
            "EXPLAIN\n"
            "select(e)\n"
            "└─ nfr_aggregate(COUNT(*))\n"
            "   └─ nfr_index_scan(e: K = k1, V < 4)\n");
  EXPECT_EQ(Must("EXPLAIN SELECT * FROM e WHERE K = k1 AND V >= 2"),
            "EXPLAIN\n"
            "select(e)\n"
            "└─ index_scan(e: K = k1, V >= 2)\n");
  // AND/OR/NOT within one attribute narrow that attribute alone.
  EXPECT_EQ(Must("EXPLAIN SELECT * FROM e WHERE (V = 1 OR V = 9) AND "
                 "NOT W = 2"),
            "EXPLAIN\n"
            "select(e)\n"
            "└─ scan(e: (V = 1 OR V = 9), NOT W = 2)\n");
}

TEST_F(ExecutorTest, AggregateFunctions) {
  Must("CREATE RELATION emp (Name STRING, Dept STRING, Sal INT)");
  Must("INSERT INTO emp VALUES (ada, cs, 120), (bob, cs, 80), "
       "(eve, math, 100)");
  EXPECT_EQ(Must("SELECT SUM(Sal) FROM emp"), "300");
  EXPECT_EQ(Must("SELECT MIN(Sal) FROM emp"), "80");
  EXPECT_EQ(Must("SELECT MAX(Sal) FROM emp"), "120");
  // COUNT(attr) counts distinct values (set semantics).
  EXPECT_EQ(Must("SELECT COUNT(Dept) FROM emp"), "2");
  EXPECT_EQ(Must("SELECT COUNT(*), SUM(Sal), MIN(Name) FROM emp"),
            "3\t300\tada");
  // Grouped, multiple aggregates.
  std::string grouped =
      Must("SELECT Dept, COUNT(*), SUM(Sal) FROM emp GROUP BY Dept");
  EXPECT_NE(grouped.find("cs\t2\t200"), std::string::npos);
  EXPECT_NE(grouped.find("math\t1\t100"), std::string::npos);
  EXPECT_NE(grouped.find("2 group(s)"), std::string::npos);
  // Index-backed restriction under an aggregate.
  EXPECT_EQ(Must("SELECT SUM(Sal) FROM emp WHERE Dept = cs"), "200");
  // SUM requires a numeric attribute (caught at plan time).
  EXPECT_FALSE(executor_->Execute("SELECT SUM(Name) FROM emp").ok());
}

TEST_F(ExecutorTest, OrderByAndLimit) {
  Must("CREATE RELATION t (Name STRING, Age INT)");
  Must("INSERT INTO t VALUES (ada, 36), (bob, 25), (eve, 31)");
  // Rows render in sort order, not the relation's canonical order.
  std::string out = Must("SELECT * FROM t ORDER BY Age DESC");
  EXPECT_NE(out.find("3 row(s)"), std::string::npos);
  EXPECT_LT(out.find("ada"), out.find("eve"));
  EXPECT_LT(out.find("eve"), out.find("bob"));
  std::string top = Must("SELECT Name FROM t ORDER BY Age LIMIT 1");
  EXPECT_NE(top.find("bob"), std::string::npos);
  EXPECT_EQ(top.find("ada"), std::string::npos);
  EXPECT_NE(top.find("1 row(s)"), std::string::npos);
  // LIMIT without ORDER BY caps the pipeline.
  EXPECT_NE(Must("SELECT * FROM t LIMIT 2").find("2 row(s)"),
            std::string::npos);
  // ORDER BY an aggregate orders the group rows.
  std::string grouped = Must("SELECT Name, COUNT(Age) FROM t "
                             "GROUP BY Name ORDER BY Name DESC");
  EXPECT_LT(grouped.find("eve"), grouped.find("bob"));
  EXPECT_FALSE(executor_->Execute("SELECT * FROM t ORDER BY Nope").ok());
}

TEST_F(ExecutorTest, FactorizedAggregationMatchesRowPipeline) {
  Must("CREATE RELATION sc (Student STRING, Course STRING) "
       "NEST Course, Student");
  Must("INSERT INTO sc VALUES (s1, c1), (s1, c2), (s2, c1), (s2, c2), "
       "(s3, c3)");
  // Factorized answers, unrestricted and narrowed by a `!=`, agree with
  // the row pipeline, which a predicate relating two attributes forces.
  EXPECT_EQ(Must("SELECT COUNT(*) FROM sc"), "5");
  EXPECT_EQ(Must("SELECT COUNT(*) FROM sc WHERE Student != zzz"), "5");
  EXPECT_EQ(Must("SELECT COUNT(*) FROM sc WHERE Student != zzz OR "
                 "Course != zzz"),
            "5");
  std::string factorized =
      Must("SELECT Student, COUNT(Course) FROM sc GROUP BY Student");
  std::string narrowed = Must(
      "SELECT Student, COUNT(Course) FROM sc WHERE Course != zzz "
      "GROUP BY Student");
  std::string row_based = Must(
      "SELECT Student, COUNT(Course) FROM sc WHERE Course != zzz OR "
      "Student != zzz GROUP BY Student");
  EXPECT_EQ(factorized, narrowed);
  EXPECT_EQ(factorized, row_based);
  // The factorized source borrows the stored NFR by reference: PROFILE
  // pins that no copy was materialized for the unrestricted aggregate.
  std::string profiled = Must("PROFILE SELECT COUNT(*) FROM sc");
  EXPECT_NE(profiled.find("nfr_scan(sc)"), std::string::npos);
  EXPECT_NE(profiled.find("materialized=0"), std::string::npos);
}

// Regression: a rewrite whose re-insert is rejected (here an FD
// violation) used to delete the original tuple and surface only the
// error — the row silently vanished. The executor must restore it.
TEST_F(ExecutorTest, UpdateFailureRestoresOriginalTuple) {
  Must("CREATE RELATION emp (Name STRING, Dept STRING) FD Name -> Dept");
  Must("INSERT INTO emp VALUES (ada, cs), (bob, math)");
  Result<std::string> out =
      executor_->Execute("UPDATE emp SET Name = ada WHERE Dept = math");
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kFailedPrecondition);
  // The original tuple survived the failed rewrite.
  EXPECT_EQ(Must("SELECT COUNT(*) FROM emp"), "2");
  EXPECT_NE(Must("SELECT * FROM emp WHERE Dept = math").find("bob"),
            std::string::npos);
}

// Regression: a DELETE with neither VALUES nor WHERE used to hit an
// NF2_CHECK and abort the process. The parser refuses the form, and a
// hand-built statement (the server protocol path) gets a clean error.
TEST_F(ExecutorTest, DeleteWithoutWhereOrValuesIsRejected) {
  Must("CREATE RELATION r (A STRING)");
  Must("INSERT INTO r VALUES (x)");
  EXPECT_FALSE(executor_->Execute("DELETE FROM r").ok());
  DeleteStatement del;
  del.name = "r";
  Statement stmt = std::move(del);
  Result<std::string> out = executor_->Execute(stmt);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(Must("SELECT * FROM r").find("1 row(s)"), std::string::npos);
}

// A SELECT planned against a pinned snapshot must not observe writes
// committed after the pin — including on the index-backed path, where
// literals resolve against the snapshot's frozen dictionary.
TEST_F(ExecutorTest, SnapshotBoundSelectIsStable) {
  Must("CREATE RELATION r (A STRING, B STRING) NEST A, B");
  Must("INSERT INTO r VALUES (a1, b1), (a2, b2)");
  std::shared_ptr<const DatabaseSnapshot> snap = db_->PinSnapshot();
  executor_->BindSnapshot(snap);
  EXPECT_EQ(Must("SELECT COUNT(*) FROM r WHERE A = a1"), "1");
  // Concurrently committed write: a new match for A = a1 carrying a
  // value the frozen dictionary has never interned.
  ASSERT_TRUE(
      db_->Insert("r", FlatTuple{Value::String("a1"), Value::String("zz")})
          .ok());
  EXPECT_EQ(Must("SELECT COUNT(*) FROM r WHERE A = a1"), "1");
  EXPECT_EQ(Must("SELECT * FROM r WHERE A = a1").find("zz"),
            std::string::npos);
  EXPECT_EQ(Must("SELECT COUNT(*) FROM r WHERE B = zz"), "0");
  executor_->ClearSnapshot();
  EXPECT_EQ(Must("SELECT COUNT(*) FROM r WHERE A = a1"), "2");
  EXPECT_EQ(Must("SELECT COUNT(*) FROM r WHERE B = zz"), "1");
}

// Acceptance pin: the §4 deltas PROFILE reports on the recons span are
// bit-identical to the relation's UpdateStats movement AND to the
// registry counters' movement — three views of one count.
TEST_F(ExecutorTest, ProfileCountsMatchUpdateStatsAndRegistry) {
  Must("CREATE RELATION sc (Student STRING, Course STRING) "
       "NEST Course, Student");
  Result<UpdateStats> before_stats = db_->RelationUpdateStats("sc");
  ASSERT_TRUE(before_stats.ok());
  MetricsSnapshot before = db_->MetricsSnapshot();

  std::string out =
      Must("PROFILE INSERT INTO sc VALUES (s1, c1), (s1, c2), (s2, c1)");
  EXPECT_NE(out.find("insert(sc) ["), std::string::npos);
  EXPECT_NE(out.find("rows_in=3"), std::string::npos);

  Result<UpdateStats> after_stats = db_->RelationUpdateStats("sc");
  ASSERT_TRUE(after_stats.ok());
  UpdateStats delta = *after_stats - *before_stats;
  EXPECT_GT(delta.recons_calls, 0u);
  EXPECT_GT(delta.compositions, 0u);
  EXPECT_NE(out.find(StrCat("compositions=", delta.compositions)),
            std::string::npos);
  EXPECT_NE(out.find(StrCat("decompositions=", delta.decompositions)),
            std::string::npos);
  EXPECT_NE(out.find(StrCat("recons_calls=", delta.recons_calls)),
            std::string::npos);
  EXPECT_NE(out.find(StrCat("candidate_scans=", delta.candidate_scans)),
            std::string::npos);

  MetricsSnapshot after = db_->MetricsSnapshot();
  EXPECT_EQ(after.counter("nf2_compo_total") -
                before.counter("nf2_compo_total"),
            delta.compositions);
  EXPECT_EQ(after.counter("nf2_unnest_total") -
                before.counter("nf2_unnest_total"),
            delta.decompositions);
  EXPECT_EQ(after.counter("nf2_recons_total") -
                before.counter("nf2_recons_total"),
            delta.recons_calls);
  EXPECT_EQ(after.counter("nf2_candt_scans_total") -
                before.counter("nf2_candt_scans_total"),
            delta.candidate_scans);
  // One engine-level insert per row.
  EXPECT_EQ(after.counter("nf2_inserts_total") -
                before.counter("nf2_inserts_total"),
            3u);
}

// Exact reply bytes for one statement of each kind. The other tests
// look for substrings; this one pins whole replies, so a change to how
// any result renders shows up here.
TEST_F(ExecutorTest, GoldenRepliesPinEveryStatementKind) {
  const std::vector<std::pair<std::string, std::string>> golden = {
      {"LIST", "no relations"},
      {"CREATE RELATION r (K STRING, V INT, G STRING) FD K -> V, G",
       "created relation r nest order [V, G, K]"},
      {"INSERT INTO r VALUES (k1, 5, g1), (k2, 3, g2), (k3, 8, g1), "
       "(k4, 1, g2)",
       "inserted 4 tuple(s) into r"},
      {"UPDATE r SET V = 9 WHERE K = k3", "updated 1 tuple(s) in r"},
      {"DELETE FROM r WHERE V < 2", "deleted 1 tuple(s) from r"},
      {"DELETE FROM r VALUES (k2, 3, g2)", "deleted 1 tuple(s) from r"},
      {"INSERT INTO r VALUES (k5, 3, g2)", "inserted 1 tuple(s) into r"},
      {"SELECT * FROM r",
       "+----+---+----+\n"
       "| K  | V | G  |\n"
       "+----+---+----+\n"
       "| k1 | 5 | g1 |\n"
       "| k3 | 9 | g1 |\n"
       "| k5 | 3 | g2 |\n"
       "+----+---+----+\n"
       "3 row(s)"},
      {"SELECT G FROM r",
       "+----+\n"
       "| G  |\n"
       "+----+\n"
       "| g1 |\n"
       "| g2 |\n"
       "+----+\n"
       "2 row(s)"},
      {"SELECT * FROM r ORDER BY V DESC LIMIT 2",
       "+----+---+----+\n"
       "| K  | V | G  |\n"
       "+----+---+----+\n"
       "| k3 | 9 | g1 |\n"
       "| k1 | 5 | g1 |\n"
       "+----+---+----+\n"
       "2 row(s)"},
      {"SELECT * FROM r WHERE V > 1000",
       "+---+---+---+\n"
       "| K | V | G |\n"
       "+---+---+---+\n"
       "+---+---+---+\n"
       "0 row(s)"},
      {"SELECT COUNT(*) FROM r", "3"},
      {"SELECT MIN(V) FROM r WHERE V > 1000", "null"},
      {"SELECT G, COUNT(*) FROM r GROUP BY G", "g1\t2\ng2\t1\n2 group(s)"},
      {"DESCRIBE r",
       "relation  : r\n"
       "schema    : (K STRING, V INT, G STRING)\n"
       "nest order: V then G then K\n"
       "FDs       : {{K}->{V,G}}\n"
       "size      : 3 NFR tuples, |R*|=3, reduction x1"},
      {"CREATE RELATION t (A STRING, B STRING) NEST A, B",
       "created relation t nest order [A, B]"},
      {"INSERT INTO t VALUES (a1, b1), (a2, b1), (a1, b2)",
       "inserted 3 tuple(s) into t"},
      {"SHOW t",
       "t\n"
       "+--------+----+\n"
       "| A      | B  |\n"
       "+--------+----+\n"
       "| a1     | b2 |\n"
       "| a1, a2 | b1 |\n"
       "+--------+----+\n"},
      {"NEST t ON B",
       "NEST t ON B\n"
       "+--------+----+\n"
       "| A      | B  |\n"
       "+--------+----+\n"
       "| a1     | b2 |\n"
       "| a1, a2 | b1 |\n"
       "+--------+----+\n"},
      {"UNNEST t ON A",
       "UNNEST t ON A\n"
       "+----+----+\n"
       "| A  | B  |\n"
       "+----+----+\n"
       "| a1 | b1 |\n"
       "| a1 | b2 |\n"
       "| a2 | b1 |\n"
       "+----+----+\n"},
      {"LIST", "r\nt"},
      {"BEGIN", "transaction started"},
      {"COMMIT", "transaction committed"},
      {"BEGIN", "transaction started"},
      {"ROLLBACK", "transaction rolled back"},
      {"CHECKPOINT", "checkpoint complete"},
      {"EXPLAIN SELECT * FROM r WHERE K = k1",
       "EXPLAIN\n"
       "select(r)\n"
       "└─ index_scan(r: K = k1)\n"},
  };
  for (const auto& [stmt, want] : golden) {
    EXPECT_EQ(Must(stmt), want) << stmt;
  }
  // STATS ends in wall-clock timings; everything before them is exact.
  EXPECT_TRUE(Must("STATS r").starts_with(
      "r: 3 NFR tuples (143 bytes) vs 3 1NF tuples (103 bytes); "
      "reduction x1 tuples, x0.72028 bytes; dict 16 values; updates "
      "{compositions=0 decompositions=0 recons_calls=6 candidate_scans=0 "
      "recons_ns="))
      << Must("STATS r");
  EXPECT_EQ(Must("DROP RELATION t"), "dropped relation t");
  EXPECT_EQ(Must("DROP RELATION r"), "dropped relation r");
  EXPECT_EQ(Must("LIST"), "no relations");
}

// PROFILE through a Session: the reply is the statement's own reply,
// the timed span tree, then one line saying whether the parse came
// from the statement cache.
TEST_F(ExecutorTest, GoldenProfileTrailerThroughASession) {
  server::SessionManager manager(db_.get());
  std::unique_ptr<server::Session> session = manager.NewSession();
  ASSERT_TRUE(
      session->Execute("CREATE RELATION t (A STRING, B STRING) NEST A, B")
          .ok());
  ASSERT_TRUE(
      session->Execute("INSERT INTO t VALUES (a1, b1), (a2, b1)").ok());
  for (const char* cache : {"miss", "hit"}) {
    Result<std::string> out =
        session->Execute("PROFILE SELECT COUNT(*) FROM t");
    ASSERT_TRUE(out.ok()) << out.status();
    EXPECT_TRUE(out->starts_with("2\n\nPROFILE\nselect(t) [")) << *out;
    EXPECT_NE(out->find("\n└─ nfr_aggregate(COUNT(*)) ["), std::string::npos)
        << *out;
    EXPECT_TRUE(out->ends_with(StrCat("\nstatement cache: ", cache)))
        << *out;
  }
}

TEST_F(ExecutorTest, MetricsTextSurfacesEngineCounters) {
  Must("CREATE RELATION r (A STRING, B STRING) NEST A, B");
  Must("INSERT INTO r VALUES (a1, b1)");
  std::string human = db_->MetricsText(/*prometheus=*/false);
  EXPECT_NE(human.find("nf2_wal_appends_total"), std::string::npos);
  EXPECT_NE(human.find("nf2_inserts_total 1"), std::string::npos);
  EXPECT_NE(human.find("nf2_relations 1"), std::string::npos);
  std::string prom = db_->MetricsText(/*prometheus=*/true);
  EXPECT_NE(prom.find("# TYPE nf2_inserts_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE nf2_insert_duration_ns histogram"),
            std::string::npos);
}

// ---------------------------------------------------------------------
// Narrowing oracle
// ---------------------------------------------------------------------

/// Random NFR relations and WHERE clauses. Every selection shape must
/// answer as expand-then-filter, Select(rel.Expand(), pred): the paper's
/// selection over the 1NF relation the stored NFR denotes (Theorem 1).
/// The clauses mix the six comparisons, AND/OR/NOT within one
/// attribute, conjunctions across attributes and, sometimes, one OR
/// across two attributes, which stays a residual filter.
class NarrowingOracleTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            StrCat("nf2_narrowing_oracle_", GetParam()))
               .string();
    std::filesystem::remove_all(dir_);
    Database::Options options;
    options.sync_wal = false;
    auto db = Database::Open(dir_, options);
    ASSERT_TRUE(db.ok()) << db.status();
    db_ = *std::move(db);
    executor_ = std::make_unique<Executor>(db_.get());
  }
  void TearDown() override {
    executor_.reset();
    db_.reset();
    std::filesystem::remove_all(dir_);
  }

  Result<StatementResult> Run(const std::string& query) {
    NF2_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(query));
    return executor_->Run(stmt);
  }

  /// A literal of attribute `attr`'s type, from its domain or one past
  /// it; now and then of the other type.
  Value Literal(Rng* rng, size_t attr) {
    const int64_t v = static_cast<int64_t>(rng->NextBelow(domain_[attr] + 1));
    const bool is_int =
        (types_[attr] == ValueType::kInt) != rng->NextBool(0.05);
    return is_int ? Value::Int(v) : Value::String(StrCat("s", v));
  }

  std::string Atom(Rng* rng, size_t attr) {
    static const char* const kOps[] = {"=", "!=", "<", "<=", ">", ">="};
    return StrCat(names_[attr], " ", kOps[rng->NextBelow(6)], " ",
                  Literal(rng, attr).ToString());
  }

  /// One conjunct over `attr` alone.
  std::string OneAttribute(Rng* rng, size_t attr) {
    switch (rng->NextBelow(5)) {
      case 0:
        return StrCat("(", Atom(rng, attr), " OR ", Atom(rng, attr), ")");
      case 1:
        return StrCat("NOT ", Atom(rng, attr));
      case 2:
        return StrCat("NOT (", Atom(rng, attr), " OR ", Atom(rng, attr),
                      ")");
      default:
        return Atom(rng, attr);
    }
  }

  std::string RandomWhere(Rng* rng) {
    std::vector<std::string> conjuncts;
    const size_t n = 1 + rng->NextBelow(3);
    for (size_t i = 0; i < n; ++i) {
      conjuncts.push_back(OneAttribute(rng, rng->NextBelow(degree_)));
    }
    if (rng->NextBool(0.25)) {
      const size_t a = rng->NextBelow(degree_);
      const size_t b = (a + 1 + rng->NextBelow(degree_ - 1)) % degree_;
      conjuncts.insert(conjuncts.begin() + rng->NextBelow(n + 1),
                       StrCat("(", Atom(rng, a), " OR ", Atom(rng, b), ")"));
    }
    return Join(conjuncts, " AND ");
  }

  FlatTuple RandomRow(Rng* rng) {
    std::vector<Value> row;
    for (size_t a = 0; a < degree_; ++a) {
      const int64_t v = static_cast<int64_t>(rng->NextBelow(domain_[a]));
      row.push_back(types_[a] == ValueType::kInt
                        ? Value::Int(v)
                        : Value::String(StrCat("s", v)));
    }
    return FlatTuple(std::move(row));
  }

  size_t degree_ = 0;
  std::vector<std::string> names_;
  std::vector<ValueType> types_;
  std::vector<uint64_t> domain_;
  std::string dir_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Executor> executor_;
};

/// COUNT(*), SUM(sum_attr), MIN/MAX/COUNT(attr) of `rows`, as the
/// executor renders them (MIN/MAX of nothing is NULL).
FlatTuple ExpectedAggregates(const std::vector<FlatTuple>& rows,
                             size_t sum_attr, size_t attr) {
  int64_t sum = 0;
  std::set<Value> distinct;
  for (const FlatTuple& r : rows) {
    sum += r.at(sum_attr).AsInt();
    distinct.insert(r.at(attr));
  }
  return FlatTuple(
      {Value::Int(static_cast<int64_t>(rows.size())), Value::Int(sum),
       distinct.empty() ? Value::Null() : *distinct.begin(),
       distinct.empty() ? Value::Null() : *distinct.rbegin(),
       Value::Int(static_cast<int64_t>(distinct.size()))});
}

TEST_P(NarrowingOracleTest, EveryShapeAnswersAsExpandThenFilter) {
  Rng rng(GetParam() * 2654435761u + 17);
  degree_ = 3 + rng.NextBelow(2);
  // Attribute 0 is an INT (for SUM), attribute 1 a STRING.
  std::vector<std::string> decls;
  for (size_t a = 0; a < degree_; ++a) {
    names_.push_back(StrCat("A", a));
    types_.push_back(a == 0 || (a > 1 && rng.NextBool())
                         ? ValueType::kInt
                         : ValueType::kString);
    domain_.push_back(2 + rng.NextBelow(3));
    decls.push_back(StrCat(names_[a], " ",
                           types_[a] == ValueType::kInt ? "INT" : "STRING"));
  }
  std::vector<std::string> order = names_;
  rng.Shuffle(&order);
  ASSERT_TRUE(Run(StrCat("CREATE RELATION t (", Join(decls, ", "),
                         ") NEST ", Join(order, ", ")))
                  .ok());
  Result<const RelationInfo*> info = db_->Info("t");
  ASSERT_TRUE(info.ok());
  const Schema& schema = (*info)->schema;
  FlatRelation flat(schema);
  uint64_t combos = 1;
  for (uint64_t d : domain_) combos *= d;

  for (int round = 0; round < 8; ++round) {
    // Top the relation up so it stays dense enough to nest.
    while (flat.size() < combos * 3 / 5) {
      FlatTuple row = RandomRow(&rng);
      if (flat.Insert(row)) {
        ASSERT_TRUE(db_->Insert("t", row).ok());
      }
    }
    Result<const NfrRelation*> stored = db_->Relation("t");
    ASSERT_TRUE(stored.ok());
    ASSERT_EQ((*stored)->Expand(), flat);
    // Multi-valued components: what narrowing has to get right.
    ASSERT_LT((*stored)->size(), flat.size());

    const std::string where = RandomWhere(&rng);
    SCOPED_TRACE(where);
    Result<Statement> parsed =
        ParseStatement(StrCat("SELECT * FROM t WHERE ", where));
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    Result<Predicate> pred =
        ResolveCondition(*std::get<SelectStatement>(*parsed).where, schema);
    ASSERT_TRUE(pred.ok()) << pred.status();
    const FlatRelation want = Select(flat, *pred);

    const size_t attr = rng.NextBelow(degree_);
    const size_t group = rng.NextBelow(degree_);
    const uint64_t limit = 1 + rng.NextBelow(4);
    for (bool snapshot : {false, true}) {
      SCOPED_TRACE(snapshot ? "snapshot" : "live");
      if (snapshot) executor_->BindSnapshot(db_->PinSnapshot());
      Result<StatementResult> all =
          Run(StrCat("SELECT * FROM t WHERE ", where));
      ASSERT_TRUE(all.ok()) << all.status();
      EXPECT_EQ(FlatRelation(schema, all->rows), want);
      EXPECT_EQ(all->rows.size(), want.size());

      Result<StatementResult> limited =
          Run(StrCat("SELECT * FROM t WHERE ", where, " LIMIT ", limit));
      ASSERT_TRUE(limited.ok()) << limited.status();
      EXPECT_EQ(limited->rows.size(), std::min<size_t>(limit, want.size()));
      for (const FlatTuple& row : limited->rows) {
        EXPECT_TRUE(want.Contains(row)) << row.ToString();
      }

      const std::string& a = names_[attr];
      Result<StatementResult> aggs =
          Run(StrCat("SELECT COUNT(*), SUM(A0), MIN(", a, "), MAX(", a,
                     "), COUNT(", a, ") FROM t WHERE ", where));
      ASSERT_TRUE(aggs.ok()) << aggs.status();
      ASSERT_EQ(aggs->rows.size(), 1u);
      EXPECT_EQ(aggs->rows[0], ExpectedAggregates(want.tuples(), 0, attr));

      const std::string& g = names_[group];
      Result<StatementResult> grouped =
          Run(StrCat("SELECT ", g, ", COUNT(*), SUM(A0), MIN(", a, "), MAX(",
                     a, "), COUNT(", a, ") FROM t WHERE ", where,
                     " GROUP BY ", g));
      ASSERT_TRUE(grouped.ok()) << grouped.status();
      std::map<Value, std::vector<FlatTuple>> groups;
      for (const FlatTuple& row : want.tuples()) {
        groups[row.at(group)].push_back(row);
      }
      std::vector<FlatTuple> want_grouped;
      for (const auto& [key, rows] : groups) {
        std::vector<Value> line{key};
        const FlatTuple aggregates = ExpectedAggregates(rows, 0, attr);
        for (const Value& v : aggregates.values()) line.push_back(v);
        want_grouped.push_back(FlatTuple(std::move(line)));
      }
      EXPECT_EQ(grouped->rows, want_grouped);
      executor_->ClearSnapshot();
    }

    if (round % 2 == 0) {
      Result<StatementResult> deleted =
          Run(StrCat("DELETE FROM t WHERE ", where));
      ASSERT_TRUE(deleted.ok()) << deleted.status();
      EXPECT_EQ(deleted->count, want.size());
      for (const FlatTuple& row : want.tuples()) flat.Erase(row);
    } else {
      const size_t set = rng.NextBelow(degree_);
      Value literal = Literal(&rng, set);
      while ((literal.type() == ValueType::kInt) !=
             (types_[set] == ValueType::kInt)) {
        literal = Literal(&rng, set);
      }
      Result<StatementResult> updated =
          Run(StrCat("UPDATE t SET ", names_[set], " = ", literal.ToString(),
                     " WHERE ", where));
      ASSERT_TRUE(updated.ok()) << updated.status();
      uint64_t changed = 0;
      std::vector<FlatTuple> rewritten;
      for (const FlatTuple& row : want.tuples()) {
        FlatTuple next = row;
        next.at(set) = literal;
        if (next == row) continue;
        ++changed;
        flat.Erase(row);
        rewritten.push_back(std::move(next));
      }
      for (FlatTuple& row : rewritten) flat.Insert(std::move(row));
      EXPECT_EQ(updated->count, changed);
    }
    stored = db_->Relation("t");
    ASSERT_TRUE(stored.ok());
    ASSERT_EQ((*stored)->Expand(), flat);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NarrowingOracleTest,
                         ::testing::Range<uint64_t>(0, 40));

}  // namespace
}  // namespace nf2
