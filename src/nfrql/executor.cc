#include "nfrql/executor.h"

#include "core/format.h"
#include "core/nest.h"
#include "exec/plan.h"
#include "nfrql/parser.h"
#include "util/string_util.h"

namespace nf2 {

namespace {

Result<ValueType> ParseTypeName(const std::string& name) {
  std::string upper = ToUpper(name);
  if (upper == "STRING" || upper == "TEXT") return ValueType::kString;
  if (upper == "INT" || upper == "INTEGER") return ValueType::kInt;
  if (upper == "DOUBLE" || upper == "REAL") return ValueType::kDouble;
  if (upper == "BOOL" || upper == "BOOLEAN") return ValueType::kBool;
  if (upper == "SET") return ValueType::kSet;
  return Status::InvalidArgument(StrCat("unknown type '", name, "'"));
}

Result<AttrSet> ResolveAttrs(const Schema& schema,
                             const std::vector<std::string>& names) {
  AttrSet out;
  for (const std::string& name : names) {
    NF2_ASSIGN_OR_RETURN(size_t idx, schema.RequireIndex(name));
    out.Add(idx);
  }
  return out;
}

std::string OpLabel(const char* op, const std::string& name) {
  return StrCat(op, "(", name, ")");
}

/// Snapshots a relation's §4 counters on construction and attaches the
/// deltas (compositions, decompositions, ...) to `span` on destruction
/// — the PROFILE numbers come from the same UpdateStats the registry
/// mirrors, so they match `\metrics` exactly. Declare after the span it
/// annotates so it closes first.
class Section4Probe {
 public:
  Section4Probe(Database* db, std::string name, TraceSpan* span)
      : db_(db), name_(std::move(name)), span_(span) {
    if (span_ == nullptr) return;
    Result<UpdateStats> stats = db_->RelationUpdateStats(name_);
    if (stats.ok()) before_ = *stats;
  }
  ~Section4Probe() {
    if (span_ == nullptr) return;
    Result<UpdateStats> stats = db_->RelationUpdateStats(name_);
    if (!stats.ok()) return;
    UpdateStats d = *stats - before_;
    span_->AddAttr("compositions", static_cast<int64_t>(d.compositions));
    span_->AddAttr("decompositions",
                   static_cast<int64_t>(d.decompositions));
    span_->AddAttr("recons_calls", static_cast<int64_t>(d.recons_calls));
    span_->AddAttr("candidate_scans",
                   static_cast<int64_t>(d.candidate_scans));
  }

 private:
  Database* db_;
  std::string name_;
  TraceSpan* span_;
  UpdateStats before_;
};

/// The live rows of `name` that satisfy `where`, taken from the same
/// narrowing leaf a SELECT reads, in FlatRelation's sorted order.
Result<FlatRelation> MatchingRows(const Database* db, const Schema& schema,
                                  const std::string& name,
                                  const ConditionNode& where) {
  const ReadView live(db);
  NF2_ASSIGN_OR_RETURN(SelectPlan plan, PlanWhere(name, where, live));
  return FlatRelation(schema, DrainPlan(plan).rows);
}

/// Plan-tree label for statements EXPLAIN renders as a single operator.
std::string StatementLabel(const Statement& stmt) {
  return std::visit(
      [](const auto& s) -> std::string {
        using T = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<T, CreateStatement>) {
          return OpLabel("create", s.name);
        } else if constexpr (std::is_same_v<T, DropStatement>) {
          return OpLabel("drop", s.name);
        } else if constexpr (std::is_same_v<T, InsertStatement>) {
          return OpLabel("insert", s.name);
        } else if constexpr (std::is_same_v<T, DeleteStatement>) {
          return OpLabel("delete", s.name);
        } else if constexpr (std::is_same_v<T, UpdateStatement>) {
          return OpLabel("update", s.name);
        } else if constexpr (std::is_same_v<T, SelectStatement>) {
          return OpLabel("select", s.name);
        } else if constexpr (std::is_same_v<T, ShowStatement>) {
          return OpLabel("show", s.name);
        } else if constexpr (std::is_same_v<T, DescribeStatement>) {
          return OpLabel("describe", s.name);
        } else if constexpr (std::is_same_v<T, NestStatement>) {
          return OpLabel(s.unnest ? "unnest" : "nest", s.name);
        } else if constexpr (std::is_same_v<T, StatsStatement>) {
          return OpLabel("stats", s.name);
        } else if constexpr (std::is_same_v<T, ListStatement>) {
          return "list";
        } else if constexpr (std::is_same_v<T, CheckpointStatement>) {
          return "checkpoint";
        } else if constexpr (std::is_same_v<T, TxnStatement>) {
          return "txn";
        } else {
          return "explain";
        }
      },
      stmt);
}

/// Builds the EXPLAIN plan tree under `parent` — the same operator
/// structure the PROFILE spans produce, with only statically-known
/// attributes, so the output is deterministic.
void BuildPlan(const Statement& stmt, SpanNode* parent) {
  if (const auto* ins = std::get_if<InsertStatement>(&stmt)) {
    SpanNode* n = parent->AddChild(OpLabel("insert", ins->name));
    n->AddAttr("rows_in", static_cast<int64_t>(ins->rows.size()));
    n->AddChild("recons");
    return;
  }
  if (const auto* del = std::get_if<DeleteStatement>(&stmt)) {
    SpanNode* n = parent->AddChild(OpLabel("delete", del->name));
    if (!del->rows.empty()) {
      n->AddAttr("rows_in", static_cast<int64_t>(del->rows.size()));
    } else {
      n->AddChild(OpLabel("filter", del->name));
    }
    n->AddChild("recons");
    return;
  }
  if (const auto* upd = std::get_if<UpdateStatement>(&stmt)) {
    SpanNode* n = parent->AddChild(OpLabel("update", upd->name));
    n->AddChild(upd->where != nullptr ? OpLabel("filter", upd->name)
                                      : OpLabel("scan", upd->name));
    n->AddChild("recons");
    return;
  }
  // SELECT is handled by ExecExplain via the query planner — the plan
  // tree IS the operator tree the executor runs.
  parent->AddChild(StatementLabel(stmt));
}

/// Mirrors a compiled operator tree into span nodes under `parent`.
/// EXPLAIN passes with_stats=false (deterministic, labels only);
/// PROFILE passes true after execution so per-operator wall time,
/// rows_out, and operator stats become span attributes.
void AttachPlan(const PlanOp& op, SpanNode* parent, bool with_stats) {
  SpanNode* n = parent->AddChild(op.label());
  if (with_stats) {
    n->duration_ns = op.elapsed_ns();
    n->AddAttr("rows_out", static_cast<int64_t>(op.rows_out()));
    for (const auto& [key, value] : op.stats()) {
      n->AddAttr(key, value);
    }
  }
  for (const auto& child : op.children()) {
    AttachPlan(*child, n, with_stats);
  }
}

}  // namespace

StatementResult ShowResult(const std::string& name, const NfrRelation& rel) {
  return StatementResult::Message(RenderTable(rel, name));
}

StatementResult DescribeResult(const RelationInfo& info,
                               const RelationStats& stats) {
  std::vector<std::string> order_names;
  for (size_t p : info.nest_order) {
    order_names.push_back(info.schema.attribute(p).name);
  }
  std::string out = StrCat("relation  : ", info.name, "\n",
                           "schema    : ", info.schema.ToString(), "\n",
                           "nest order: ", Join(order_names, " then "),
                           "\n");
  if (!info.fds.empty()) {
    out += StrCat("FDs       : ", info.fd_set().ToString(info.schema), "\n");
  }
  if (!info.mvds.empty()) {
    out +=
        StrCat("MVDs      : ", info.mvd_set().ToString(info.schema), "\n");
  }
  out += StrCat("size      : ", stats.nfr_tuples, " NFR tuples, |R*|=",
                stats.flat_tuples, ", reduction x", stats.TupleReduction());
  return StatementResult::Message(std::move(out));
}

Result<StatementResult> NestResult(const NestStatement& stmt, NfrRelation rel) {
  for (const std::string& attr : stmt.attributes) {
    NF2_ASSIGN_OR_RETURN(size_t idx, rel.schema().RequireIndex(attr));
    rel = stmt.unnest ? UnnestOn(rel, idx) : NestOn(rel, idx);
  }
  return StatementResult::Message(
      RenderTable(rel, StrCat(stmt.unnest ? "UNNEST " : "NEST ", stmt.name,
                              " ON ", Join(stmt.attributes, ", "))));
}

Result<std::string> Executor::Execute(std::string_view source) {
  NF2_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(source));
  return Execute(stmt);
}

Result<std::string> Executor::Execute(const Statement& stmt) {
  return Render(Run(stmt));
}

Result<StatementResult> Executor::Run(const Statement& stmt) {
  return std::visit(
      [this](const auto& s) -> Result<StatementResult> {
        using T = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<T, CreateStatement>) {
          return ExecCreate(s);
        } else if constexpr (std::is_same_v<T, DropStatement>) {
          return ExecDrop(s);
        } else if constexpr (std::is_same_v<T, InsertStatement>) {
          return ExecInsert(s);
        } else if constexpr (std::is_same_v<T, DeleteStatement>) {
          return ExecDelete(s);
        } else if constexpr (std::is_same_v<T, UpdateStatement>) {
          return ExecUpdate(s);
        } else if constexpr (std::is_same_v<T, SelectStatement>) {
          return ExecSelect(s);
        } else if constexpr (std::is_same_v<T, ShowStatement>) {
          NF2_ASSIGN_OR_RETURN(const NfrRelation* rel, view_.Relation(s.name));
          return ShowResult(s.name, *rel);
        } else if constexpr (std::is_same_v<T, DescribeStatement>) {
          NF2_ASSIGN_OR_RETURN(BoundRelation bound, view_.Bind(s.name));
          NF2_ASSIGN_OR_RETURN(RelationStats stats, view_.Stats(s.name));
          return DescribeResult(*bound.info, stats);
        } else if constexpr (std::is_same_v<T, NestStatement>) {
          NF2_ASSIGN_OR_RETURN(const NfrRelation* rel, view_.Relation(s.name));
          return NestResult(s, *rel);
        } else if constexpr (std::is_same_v<T, ListStatement>) {
          std::vector<std::string> names = view_.List();
          return StatementResult::Message(
              names.empty() ? std::string("no relations") : Join(names, "\n"));
        } else if constexpr (std::is_same_v<T, StatsStatement>) {
          NF2_ASSIGN_OR_RETURN(RelationStats stats, view_.Stats(s.name));
          return StatementResult::Message(stats.ToString());
        } else if constexpr (std::is_same_v<T, TxnStatement>) {
          return ExecTxn(s);
        } else if constexpr (std::is_same_v<T, ExplainStatement>) {
          return ExecExplain(s);
        } else {
          return ExecCheckpoint();
        }
      },
      stmt);
}

Result<StatementResult> Executor::ExecCreate(const CreateStatement& stmt) {
  std::vector<Attribute> attrs;
  for (const auto& [name, type_name] : stmt.attributes) {
    NF2_ASSIGN_OR_RETURN(ValueType type, ParseTypeName(type_name));
    attrs.push_back({name, type});
  }
  Schema schema(std::move(attrs));
  Permutation order;
  if (!stmt.nest_order.empty()) {
    NF2_ASSIGN_OR_RETURN(order,
                         PermutationFromNames(schema, stmt.nest_order));
  }
  std::vector<Fd> fds;
  for (const auto& clause : stmt.fds) {
    NF2_ASSIGN_OR_RETURN(AttrSet lhs, ResolveAttrs(schema, clause.lhs));
    NF2_ASSIGN_OR_RETURN(AttrSet rhs, ResolveAttrs(schema, clause.rhs));
    fds.push_back(Fd{lhs, rhs});
  }
  std::vector<Mvd> mvds;
  for (const auto& clause : stmt.mvds) {
    NF2_ASSIGN_OR_RETURN(AttrSet lhs, ResolveAttrs(schema, clause.lhs));
    NF2_ASSIGN_OR_RETURN(AttrSet rhs, ResolveAttrs(schema, clause.rhs));
    mvds.push_back(Mvd{lhs, rhs});
  }
  NF2_RETURN_IF_ERROR(db_->CreateRelation(stmt.name, schema, order,
                                          std::move(fds), std::move(mvds)));
  NF2_ASSIGN_OR_RETURN(const RelationInfo* info, db_->Info(stmt.name));
  std::vector<std::string> order_names;
  for (size_t p : info->nest_order) {
    order_names.push_back(info->schema.attribute(p).name);
  }
  return StatementResult::Message(StrCat("created relation ", stmt.name,
                                        " nest order [",
                                        Join(order_names, ", "), "]"));
}

Result<StatementResult> Executor::ExecDrop(const DropStatement& stmt) {
  NF2_RETURN_IF_ERROR(db_->DropRelation(stmt.name));
  return StatementResult::Message(StrCat("dropped relation ", stmt.name));
}

Result<StatementResult> Executor::ExecInsert(const InsertStatement& stmt) {
  TraceSpan span(trace_, OpLabel("insert", stmt.name));
  span.AddAttr("rows_in", static_cast<int64_t>(stmt.rows.size()));
  TraceSpan apply(trace_, "recons");
  Section4Probe probe(db_, stmt.name,
                      trace_ == nullptr ? nullptr : &apply);
  size_t inserted = 0;
  for (const std::vector<Value>& row : stmt.rows) {
    NF2_RETURN_IF_ERROR(db_->Insert(stmt.name, FlatTuple(row)));
    ++inserted;
  }
  return StatementResult::Count(StatementResult::Verb::kInserted, inserted,
                                stmt.name);
}

Result<StatementResult> Executor::ExecDelete(const DeleteStatement& stmt) {
  TraceSpan span(trace_, OpLabel("delete", stmt.name));
  size_t deleted = 0;
  if (!stmt.rows.empty()) {
    span.AddAttr("rows_in", static_cast<int64_t>(stmt.rows.size()));
    TraceSpan apply(trace_, "recons");
    Section4Probe probe(db_, stmt.name,
                        trace_ == nullptr ? nullptr : &apply);
    for (const std::vector<Value>& row : stmt.rows) {
      NF2_RETURN_IF_ERROR(db_->Delete(stmt.name, FlatTuple(row)));
      ++deleted;
    }
  } else {
    NF2_ASSIGN_OR_RETURN(const RelationInfo* info, db_->Info(stmt.name));
    if (stmt.where == nullptr) {
      // Reachable through the server protocol (hand-built statements);
      // the parser also rejects this form. Refusing beats a crash and
      // beats silently deleting everything.
      return Status::InvalidArgument(
          "DELETE needs a VALUES list or a WHERE clause");
    }
    FlatRelation matching(info->schema);
    {
      TraceSpan filter(trace_, OpLabel("filter", stmt.name));
      NF2_ASSIGN_OR_RETURN(
          matching, MatchingRows(db_, info->schema, stmt.name, *stmt.where));
      filter.AddAttr("rows_out", static_cast<int64_t>(matching.size()));
    }
    TraceSpan apply(trace_, "recons");
    Section4Probe probe(db_, stmt.name,
                        trace_ == nullptr ? nullptr : &apply);
    for (const FlatTuple& t : matching.tuples()) {
      NF2_RETURN_IF_ERROR(db_->Delete(stmt.name, t));
      ++deleted;
    }
  }
  return StatementResult::Count(StatementResult::Verb::kDeleted, deleted,
                                stmt.name);
}

Result<StatementResult> Executor::ExecUpdate(const UpdateStatement& stmt) {
  TraceSpan span(trace_, OpLabel("update", stmt.name));
  NF2_ASSIGN_OR_RETURN(const RelationInfo* info, db_->Info(stmt.name));
  std::vector<std::pair<size_t, Value>> sets;
  for (const auto& [attr, literal] : stmt.sets) {
    NF2_ASSIGN_OR_RETURN(size_t idx, info->schema.RequireIndex(attr));
    sets.emplace_back(idx, literal);
  }
  FlatRelation matching(info->schema);
  if (stmt.where != nullptr) {
    TraceSpan filter(trace_, OpLabel("filter", stmt.name));
    NF2_ASSIGN_OR_RETURN(
        matching, MatchingRows(db_, info->schema, stmt.name, *stmt.where));
    filter.AddAttr("rows_out", static_cast<int64_t>(matching.size()));
  } else {
    TraceSpan scan(trace_, OpLabel("scan", stmt.name));
    NF2_ASSIGN_OR_RETURN(matching, db_->Scan(stmt.name));
    scan.AddAttr("rows_out", static_cast<int64_t>(matching.size()));
  }
  // Set semantics: delete each matching tuple, insert its rewrite.
  // Rewrites that collide with existing tuples simply merge.
  TraceSpan apply(trace_, "recons");
  Section4Probe probe(db_, stmt.name,
                      trace_ == nullptr ? nullptr : &apply);
  size_t updated = 0;
  for (const FlatTuple& old_tuple : matching.tuples()) {
    FlatTuple new_tuple = old_tuple;
    for (const auto& [idx, literal] : sets) {
      new_tuple.at(idx) = literal;
    }
    if (new_tuple == old_tuple) continue;
    NF2_RETURN_IF_ERROR(db_->Delete(stmt.name, old_tuple));
    Status inserted = db_->Insert(stmt.name, new_tuple);
    if (!inserted.ok() &&
        inserted.code() != StatusCode::kAlreadyExists) {
      // The old tuple is already deleted; re-insert it before
      // surfacing the error so a rejected rewrite (FD violation, type
      // mismatch) never silently loses the original row.
      Status restored = db_->Insert(stmt.name, old_tuple);
      if (!restored.ok()) {
        return Status::Internal(StrCat(
            "update failed (", inserted.message(),
            ") and restoring the original tuple also failed: ",
            restored.message()));
      }
      return inserted;
    }
    ++updated;
  }
  return StatementResult::Count(StatementResult::Verb::kUpdated, updated,
                                stmt.name);
}

Result<StatementResult> Executor::ExecSelect(const SelectStatement& stmt) {
  TraceSpan span(trace_, OpLabel("select", stmt.name));
  NF2_ASSIGN_OR_RETURN(SelectPlan plan, PlanSelect(stmt, view_));
  if (trace_ != nullptr) plan.root->EnableTiming();
  StatementResult result = DrainPlan(plan);
  if (span.node() != nullptr) {
    AttachPlan(*plan.root, span.node(), /*with_stats=*/true);
  }
  return result;
}

Result<StatementResult> Executor::ExecCheckpoint() {
  TraceSpan span(trace_, "checkpoint");
  NF2_RETURN_IF_ERROR(db_->Checkpoint());
  return StatementResult::Message("checkpoint complete");
}

Result<StatementResult> Executor::ExecExplain(const ExplainStatement& stmt) {
  NF2_CHECK(stmt.inner != nullptr);
  const Statement& inner = stmt.inner->stmt;
  if (!stmt.profile) {
    Trace plan_tree;
    if (const auto* sel = std::get_if<SelectStatement>(&inner)) {
      // SELECT: run the real planner so EXPLAIN shows exactly the
      // operator tree execution would use (index_scan vs scan, ...).
      NF2_ASSIGN_OR_RETURN(SelectPlan plan, PlanSelect(*sel, view_));
      SpanNode* root =
          plan_tree.mutable_root()->AddChild(OpLabel("select", sel->name));
      AttachPlan(*plan.root, root, /*with_stats=*/false);
    } else {
      BuildPlan(inner, plan_tree.mutable_root());
    }
    return StatementResult::Message(
        StrCat("EXPLAIN\n", plan_tree.Render(TraceRender::kPlanOnly)));
  }
  Trace trace;
  trace_ = &trace;
  Result<StatementResult> result = Run(inner);
  trace_ = nullptr;
  NF2_RETURN_IF_ERROR(result.status());
  if (trace.root().children.empty()) {
    // Statements without dedicated instrumentation still report as one
    // (untimed) operator rather than an empty profile.
    trace.mutable_root()->AddChild(StatementLabel(inner));
  }
  result->profile = trace.Render(TraceRender::kWithTimes);
  return result;
}

Result<StatementResult> Executor::ExecTxn(const TxnStatement& stmt) {
  switch (stmt.kind) {
    case TxnStatement::Kind::kBegin:
      NF2_RETURN_IF_ERROR(db_->Begin());
      return StatementResult::Message("transaction started");
    case TxnStatement::Kind::kCommit:
      NF2_RETURN_IF_ERROR(db_->Commit());
      return StatementResult::Message("transaction committed");
    case TxnStatement::Kind::kRollback:
      NF2_RETURN_IF_ERROR(db_->Rollback());
      return StatementResult::Message("transaction rolled back");
  }
  return Status::Internal("unhandled txn kind");
}

}  // namespace nf2
