#ifndef NF2_NFRQL_EXECUTOR_H_
#define NF2_NFRQL_EXECUTOR_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "engine/database.h"
#include "engine/snapshot.h"
#include "exec/read_view.h"
#include "nfrql/ast.h"
#include "nfrql/result.h"
#include "obs/trace.h"
#include "util/result.h"

namespace nf2 {

/// Executes NFRQL statements against a Database. Run returns each
/// statement's typed StatementResult (nfrql/result.h); Execute renders
/// it. Sessions call Run and render once, at the protocol edge.
///
/// Reads go through one ReadView: the snapshot bound by BindSnapshot,
/// else the live database. A bound snapshot answers every read of a
/// read-only statement from immutable state with zero engine locks.
/// Write/DDL/transaction statements always go to the live database
/// regardless of binding; the server never binds a snapshot for them.
///
/// A SELECT is PlanSelect over the view, drained by DrainPlan: the same
/// loop the shard router runs over its one-view-per-shard plans.
class Executor {
 public:
  explicit Executor(Database* db) : db_(db), view_(db) {}

  /// Executes an already-parsed statement.
  Result<StatementResult> Run(const Statement& stmt);

  /// Parses, runs and renders one statement.
  Result<std::string> Execute(std::string_view source);

  /// Render(Run(stmt)).
  Result<std::string> Execute(const Statement& stmt);

  /// Routes subsequent reads to `snapshot` until ClearSnapshot().
  void BindSnapshot(std::shared_ptr<const DatabaseSnapshot> snapshot) {
    view_ = ReadView(db_, std::move(snapshot));
  }
  void ClearSnapshot() { view_ = ReadView(db_); }

 private:
  Result<StatementResult> ExecCreate(const CreateStatement& stmt);
  Result<StatementResult> ExecDrop(const DropStatement& stmt);
  Result<StatementResult> ExecInsert(const InsertStatement& stmt);
  Result<StatementResult> ExecDelete(const DeleteStatement& stmt);
  Result<StatementResult> ExecUpdate(const UpdateStatement& stmt);
  Result<StatementResult> ExecSelect(const SelectStatement& stmt);
  Result<StatementResult> ExecCheckpoint();
  Result<StatementResult> ExecTxn(const TxnStatement& stmt);
  Result<StatementResult> ExecExplain(const ExplainStatement& stmt);

  Database* db_;
  ReadView view_;
  /// Non-null only while a PROFILE'd statement runs: the exec functions
  /// open TraceSpans into it (no-ops otherwise).
  Trace* trace_ = nullptr;
};

// The replies of the statements the shard router answers by
// recomposing a relation from every shard; the executor builds them
// the same way from one engine.

/// SHOW: the relation as a titled box table.
StatementResult ShowResult(const std::string& name, const NfrRelation& rel);

/// DESCRIBE: schema, nest order, dependencies and size.
StatementResult DescribeResult(const RelationInfo& info,
                               const RelationStats& stats);

/// NEST/UNNEST: `rel` restructured on `stmt`'s attributes, in order.
Result<StatementResult> NestResult(const NestStatement& stmt, NfrRelation rel);

}  // namespace nf2

#endif  // NF2_NFRQL_EXECUTOR_H_
