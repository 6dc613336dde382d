#include "shard/router.h"

#include <chrono>
#include <map>
#include <set>
#include <thread>
#include <utility>

#include "core/nest.h"
#include "engine/statistics.h"
#include "exec/planner.h"
#include "nfrql/executor.h"
#include "nfrql/parser.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace nf2 {
namespace shard {

namespace {

/// Folds one shard's affected-row count into `total`; the first shard's
/// result supplies the verb and relation.
void AddCount(StatementResult shard_result,
              std::optional<StatementResult>* total) {
  if (total->has_value()) {
    (*total)->count += shard_result.count;
  } else {
    *total = std::move(shard_result);
  }
}

/// Rows an executed plan's leaves handed up (NFR tuples under a
/// factorized aggregate).
uint64_t LeafRows(const PlanOp& op) {
  if (op.children().empty()) return op.rows_out();
  uint64_t rows = 0;
  for (const auto& child : op.children()) rows += LeafRows(*child);
  return rows;
}

/// Injects a shard="<i>" label into every sample line of a Prometheus
/// text exposition (comment lines pass through).
std::string AddShardLabel(const std::string& text, size_t index) {
  const std::string label = StrCat("shard=\"", index, "\"");
  std::string out;
  out.reserve(text.size());
  size_t start = 0;
  while (start <= text.size()) {
    size_t nl = text.find('\n', start);
    if (nl == std::string::npos) nl = text.size();
    std::string line = text.substr(start, nl - start);
    if (!line.empty() && line[0] != '#') {
      size_t space = line.find(' ');
      size_t brace = line.find('{');
      if (space != std::string::npos) {
        if (brace != std::string::npos && brace < space) {
          line.insert(brace + 1, StrCat(label, ","));
        } else {
          line.insert(space, StrCat("{", label, "}"));
        }
      }
    }
    out += line;
    if (nl == text.size()) break;
    out += '\n';
    start = nl + 1;
  }
  return out;
}

}  // namespace

Result<std::unique_ptr<ShardRouter>> ShardRouter::Open(const std::string& dir,
                                                       Options options,
                                                       Env* env) {
  NF2_RETURN_IF_ERROR(
      EnsureShardMarker(env, dir, options.shards).status());
  auto router = std::unique_ptr<ShardRouter>(new ShardRouter());
  router->dir_ = dir;
  router->env_ = env;

  // Shards recover independently, so open them in parallel — recovery
  // (WAL replay, table reads) dominates cold start.
  std::vector<Result<std::unique_ptr<Database>>> opened;
  opened.reserve(options.shards);
  for (size_t i = 0; i < options.shards; ++i) {
    opened.emplace_back(Status::Internal("shard open did not run"));
  }
  if (options.parallel_open) {
    std::vector<std::thread> threads;
    threads.reserve(options.shards);
    for (size_t i = 0; i < options.shards; ++i) {
      threads.emplace_back([&, i]() {
        opened[i] = Database::Open(ShardDir(dir, i), options.db, env);
      });
    }
    for (std::thread& t : threads) t.join();
  } else {
    for (size_t i = 0; i < options.shards; ++i) {
      opened[i] = Database::Open(ShardDir(dir, i), options.db, env);
    }
  }
  for (size_t i = 0; i < options.shards; ++i) {
    if (!opened[i].ok()) {
      return Status(opened[i].status().code(),
                    StrCat("shard ", i, ": ", opened[i].status().message()));
    }
    router->dbs_.push_back(*std::move(opened[i]));
  }

  // Heal a crashed DDL fan-out: a relation missing on any shard is
  // dropped from the shards that have it. This completes a crashed DROP
  // and rolls back a crashed CREATE — either way the catalogs converge,
  // which the routing layer depends on.
  std::map<std::string, size_t> presence;
  for (const auto& db : router->dbs_) {
    for (const std::string& name : db->ListRelations()) ++presence[name];
  }
  for (const auto& [name, count] : presence) {
    if (count == router->dbs_.size()) continue;
    NF2_LOG(Warning) << "relation '" << name << "' exists on " << count
                     << " of " << router->dbs_.size()
                     << " shards (interrupted DDL fan-out); dropping the "
                        "stragglers";
    for (const auto& db : router->dbs_) {
      if (!db->Info(name).ok()) continue;
      Status dropped = db->DropRelation(name);
      if (!dropped.ok()) {
        return Status(dropped.code(),
                      StrCat("healing interrupted DDL for '", name,
                             "': ", dropped.message()));
      }
    }
  }

  for (const auto& db : router->dbs_) {
    router->managers_.push_back(std::make_unique<server::SessionManager>(
        db.get(), options.statement_cache_capacity));
  }

  MetricsRegistry* reg = &router->metrics_;
  reg->GetGauge("nf2_router_shards", "Number of engine shards")
      ->Set(static_cast<int64_t>(router->dbs_.size()));
  router->metric_point_ = reg->GetCounter(
      "nf2_router_point_total", "Statements routed to exactly one shard");
  router->metric_scatter_ = reg->GetCounter(
      "nf2_router_scatter_total", "Statements scattered to all shards");
  router->metric_merge_rows_ =
      reg->GetCounter("nf2_router_merge_rows_total",
                      "Rows the per-shard access paths of scattered "
                      "SELECTs handed to the router's plan (NFR tuples "
                      "under a factorized aggregate)");
  router->metric_ddl_fanout_ = reg->GetCounter(
      "nf2_router_ddl_fanout_total", "DDL statements fanned out");
  router->metric_ddl_rollbacks_ =
      reg->GetCounter("nf2_router_ddl_rollbacks_total",
                      "DDL fan-outs rolled back after a shard failure");
  return router;
}

std::unique_ptr<server::ClientSession> ShardRouter::NewClientSession() {
  return std::make_unique<RouterSession>(
      next_session_id_.fetch_add(1, std::memory_order_relaxed), this);
}

void ShardRouter::ShutdownCheckpoint() {
  for (const auto& manager : managers_) manager->ShutdownCheckpoint();
}

RouterSession::RouterSession(uint64_t id, ShardRouter* router)
    : id_(id), router_(router) {
  sessions_.reserve(router_->managers_.size());
  for (const auto& manager : router_->managers_) {
    sessions_.push_back(manager->NewSession());
  }
}

RouterSession::~RouterSession() { Abort(); }

void RouterSession::Abort() {
  for (const auto& session : sessions_) session->Abort();
  own_txn_ = false;
}

Result<std::string> RouterSession::Execute(std::string_view statement) {
  const std::string trimmed = Trim(statement);
  // Meta commands always go through the router so `\metrics` includes
  // the router-level registry (scatter-gather counters, replication
  // lag on a follower) even with a single shard.
  if (!trimmed.empty() && trimmed[0] == '\\') return ExecuteMeta(trimmed);
  // One shard: forward verbatim (statement cache, batch snapshot
  // sharing — everything behaves exactly like the unsharded server).
  // A blank statement has nothing to route; shard 0 answers it exactly
  // as a single engine does.
  if (sessions_.size() == 1 || trimmed.empty()) {
    return sessions_[0]->Execute(statement);
  }
  NF2_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(trimmed));
  return Render(Dispatch(stmt));
}

std::vector<Result<std::string>> RouterSession::ExecuteBatch(
    const std::vector<std::string>& statements) {
  if (sessions_.size() == 1) return sessions_[0]->ExecuteBatch(statements);
  // Statement-at-a-time: each statement classifies and routes on its
  // own, and a failing statement reports its error in place (the kBatch
  // contract) without disturbing the other statements' replies.
  std::vector<Result<std::string>> results;
  results.reserve(statements.size());
  for (const std::string& statement : statements) {
    results.push_back(Execute(statement));
  }
  return results;
}

std::optional<RouterSession::PartitionInfo> RouterSession::Partition(
    const std::string& name) const {
  std::shared_ptr<const DatabaseSnapshot> snap =
      router_->dbs_[0]->PinSnapshot();
  std::shared_ptr<const DatabaseSnapshot::RelationVersion> version =
      snap->FindVersion(name);
  if (version == nullptr) return std::nullopt;
  PartitionInfo out;
  out.attr = PartitionAttr(version->info);
  out.attr_name = version->info.schema.attribute(out.attr).name;
  out.degree = version->info.schema.degree();
  return out;
}

std::vector<ReadView> RouterSession::ReadViews() const {
  std::vector<ReadView> out;
  out.reserve(router_->dbs_.size());
  for (const auto& db : router_->dbs_) {
    out.emplace_back(db.get(), own_txn_ ? nullptr : db->PinSnapshot());
  }
  return out;
}

Result<StatementResult> RouterSession::Dispatch(const Statement& stmt) {
  return std::visit(
      [&](const auto& s) -> Result<StatementResult> {
        using T = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<T, CreateStatement>) {
          return RouteCreate(s, stmt);
        } else if constexpr (std::is_same_v<T, DropStatement>) {
          // A relation left half-dropped by a shard's failure is healed
          // at the next Open.
          router_->metric_ddl_fanout_->Increment();
          return FanOut(stmt);
        } else if constexpr (std::is_same_v<T, InsertStatement>) {
          return RouteRows(s, stmt);
        } else if constexpr (std::is_same_v<T, DeleteStatement>) {
          return RouteDelete(s, stmt);
        } else if constexpr (std::is_same_v<T, UpdateStatement>) {
          return RouteUpdate(s, stmt);
        } else if constexpr (std::is_same_v<T, SelectStatement>) {
          return RouteSelect(s, stmt);
        } else if constexpr (std::is_same_v<T, ShowStatement>) {
          NF2_ASSIGN_OR_RETURN(Recomposed r, Recompose(ReadViews(), s.name));
          return ShowResult(s.name, r.relation);
        } else if constexpr (std::is_same_v<T, DescribeStatement>) {
          NF2_ASSIGN_OR_RETURN(Recomposed r, Recompose(ReadViews(), s.name));
          return DescribeResult(r.info, ComputeRelationStats(r.relation));
        } else if constexpr (std::is_same_v<T, NestStatement>) {
          NF2_ASSIGN_OR_RETURN(Recomposed r, Recompose(ReadViews(), s.name));
          return NestResult(s, std::move(r.relation));
        } else if constexpr (std::is_same_v<T, ListStatement>) {
          // Catalogs are identical across shards (DDL fan-out), so
          // shard 0 answers for everyone.
          return sessions_[0]->ExecuteParsed(stmt);
        } else if constexpr (std::is_same_v<T, StatsStatement>) {
          return RouteStats(s);
        } else if constexpr (std::is_same_v<T, TxnStatement>) {
          return RouteTxn(s, stmt);
        } else if constexpr (std::is_same_v<T, ExplainStatement>) {
          return RouteExplain(s, stmt);
        } else {
          return FanOut(stmt);
        }
      },
      stmt);
}

Result<StatementResult> RouterSession::FanOut(const Statement& whole) {
  Result<StatementResult> out = Status::Internal("no shards");
  for (size_t i = 0; i < sessions_.size(); ++i) {
    Result<StatementResult> res = sessions_[i]->ExecuteParsed(whole);
    if (i == 0 || (out.ok() && !res.ok())) out = std::move(res);
  }
  return out;
}

template <typename RowsStatement>
Result<StatementResult> RouterSession::RouteRows(const RowsStatement& s,
                                                 const Statement& whole) {
  std::optional<PartitionInfo> part = Partition(s.name);
  if (!part.has_value() || s.rows.empty()) {
    // Unknown relation, no rows, or (below) a malformed row: shard 0
    // answers, so the reply is exactly the single-engine one.
    return sessions_[0]->ExecuteParsed(whole);
  }
  std::vector<RowsStatement> subs(sessions_.size());
  for (const std::vector<Value>& row : s.rows) {
    if (row.size() != part->degree) {
      return sessions_[0]->ExecuteParsed(whole);
    }
    subs[ShardOf(row[part->attr], sessions_.size())].rows.push_back(row);
  }
  router_->metric_point_->Increment();
  std::optional<StatementResult> total;
  for (size_t i = 0; i < subs.size(); ++i) {
    if (subs[i].rows.empty()) continue;
    subs[i].name = s.name;
    const Statement sub = std::move(subs[i]);
    // Shards apply their rows in shard order, each in listed order, and
    // the first failure stops the statement. A failing row therefore
    // keeps the earlier shards' rows and its own shard's rows listed
    // before it, where a single engine keeps exactly the rows listed
    // before it (DESIGN.md §13).
    NF2_ASSIGN_OR_RETURN(StatementResult applied,
                         sessions_[i]->ExecuteParsed(sub));
    AddCount(std::move(applied), &total);
  }
  return *std::move(total);
}

Result<StatementResult> RouterSession::ScatterMutation(const Statement& whole) {
  router_->metric_scatter_->Increment();
  std::optional<StatementResult> total;
  for (const auto& session : sessions_) {
    NF2_ASSIGN_OR_RETURN(StatementResult applied,
                         session->ExecuteParsed(whole));
    AddCount(std::move(applied), &total);
  }
  return *std::move(total);
}

Result<StatementResult> RouterSession::RouteDelete(const DeleteStatement& s,
                                                   const Statement& whole) {
  if (!s.rows.empty()) return RouteRows(s, whole);
  std::optional<PartitionInfo> part = Partition(s.name);
  if (!part.has_value() || s.where == nullptr) {
    return sessions_[0]->ExecuteParsed(whole);
  }
  std::optional<Value> eq = EqualityConjunct(s.where.get(), part->attr_name);
  if (eq.has_value()) {
    router_->metric_point_->Increment();
    return sessions_[ShardOf(*eq, sessions_.size())]->ExecuteParsed(whole);
  }
  return ScatterMutation(whole);
}

Result<StatementResult> RouterSession::RouteUpdate(const UpdateStatement& s,
                                                   const Statement& whole) {
  std::optional<PartitionInfo> part = Partition(s.name);
  if (!part.has_value()) return sessions_[0]->ExecuteParsed(whole);
  for (const auto& [attr, literal] : s.sets) {
    if (attr == part->attr_name) {
      // The rewrite would move tuples to a different shard; a
      // cross-shard delete+insert is not atomic today.
      return Status::Unimplemented(
          StrCat("UPDATE of partition attribute '", attr,
                 "' is not supported with more than one shard"));
    }
  }
  if (s.where != nullptr) {
    std::optional<Value> eq =
        EqualityConjunct(s.where.get(), part->attr_name);
    if (eq.has_value()) {
      router_->metric_point_->Increment();
      return sessions_[ShardOf(*eq, sessions_.size())]->ExecuteParsed(whole);
    }
  }
  return ScatterMutation(whole);
}

Result<StatementResult> RouterSession::RouteSelect(const SelectStatement& s,
                                                   const Statement& whole) {
  std::optional<PartitionInfo> part = Partition(s.name);
  if (!part.has_value()) return sessions_[0]->ExecuteParsed(whole);
  std::optional<Value> eq = EqualityConjunct(s.where.get(), part->attr_name);
  // A JOIN always scatters: the joined relation's rows live on every
  // shard.
  if (eq.has_value() && s.joins.empty()) {
    // Every matching row lives on the shard the pinned value hashes to
    // — aggregates included (empty elsewhere).
    router_->metric_point_->Increment();
    return sessions_[ShardOf(*eq, sessions_.size())]->ExecuteParsed(whole);
  }
  router_->metric_scatter_->Increment();
  const std::vector<ReadView> views = ReadViews();
  std::vector<const CatalogView*> shards;
  shards.reserve(views.size());
  for (const ReadView& view : views) shards.push_back(&view);
  NF2_ASSIGN_OR_RETURN(SelectPlan plan, PlanSelect(s, shards));
  StatementResult result = DrainPlan(plan);
  router_->metric_merge_rows_->Increment(LeafRows(*plan.root));
  return result;
}

Result<StatementResult> RouterSession::RouteCreate(const CreateStatement& s,
                                                   const Statement& whole) {
  router_->metric_ddl_fanout_->Increment();
  Result<StatementResult> reply = Status::Internal("no shards");
  for (size_t i = 0; i < sessions_.size(); ++i) {
    Result<StatementResult> res = sessions_[i]->ExecuteParsed(whole);
    if (!res.ok()) {
      // All-or-nothing: undo the shards that already created it.
      router_->metric_ddl_rollbacks_->Increment();
      DropStatement drop;
      drop.name = s.name;
      Statement drop_stmt = std::move(drop);
      for (size_t j = 0; j < i; ++j) {
        Result<StatementResult> undone = sessions_[j]->ExecuteParsed(drop_stmt);
        if (!undone.ok()) {
          NF2_LOG(Warning)
              << "CREATE rollback of '" << s.name << "' failed on shard "
              << j << ": " << undone.status().ToString()
              << " (the next Open heals the straggler)";
        }
      }
      return res.status();
    }
    if (i == 0) reply = std::move(res);
  }
  return reply;
}

Result<StatementResult> RouterSession::RouteTxn(const TxnStatement& s,
                                                const Statement& whole) {
  if (s.kind == TxnStatement::Kind::kBegin) {
    Result<StatementResult> started = Status::Internal("no shards");
    for (size_t i = 0; i < sessions_.size(); ++i) {
      Result<StatementResult> res = sessions_[i]->ExecuteParsed(whole);
      if (!res.ok()) {
        // Release the shards that did start a transaction.
        TxnStatement rollback;
        rollback.kind = TxnStatement::Kind::kRollback;
        Statement rollback_stmt = rollback;
        for (size_t j = 0; j < i; ++j) {
          (void)sessions_[j]->ExecuteParsed(rollback_stmt);
        }
        return res.status();
      }
      if (i == 0) started = std::move(res);
    }
    own_txn_ = true;
    return started;
  }
  Result<StatementResult> ended = FanOut(whole);
  own_txn_ = false;
  if (!ended.ok()) {
    // A shard may still hold its transaction open; keep live reads so
    // this session continues to see its own writes there.
    for (const auto& db : router_->dbs_) {
      if (db->in_transaction()) own_txn_ = true;
    }
  }
  return ended;
}

Result<StatementResult> RouterSession::RouteExplain(const ExplainStatement& s,
                                                    const Statement& whole) {
  NF2_CHECK(s.inner != nullptr);
  const Statement& inner = s.inner->stmt;
  if (const auto* sel = std::get_if<SelectStatement>(&inner)) {
    // Routed as RouteSelect routes it: a JOIN always scatters.
    std::optional<PartitionInfo> part = Partition(sel->name);
    if (part.has_value() && sel->joins.empty()) {
      std::optional<Value> eq =
          EqualityConjunct(sel->where.get(), part->attr_name);
      if (eq.has_value()) {
        return sessions_[ShardOf(*eq, sessions_.size())]->ExecuteParsed(
            whole);
      }
    }
    if (s.profile) {
      return Status::Unimplemented(
          "PROFILE of a scattered statement is not supported; pin the "
          "partition attribute or run with --shards 1");
    }
    NF2_ASSIGN_OR_RETURN(StatementResult plan,
                         sessions_[0]->ExecuteParsed(whole));
    plan.scatter_shards = sessions_.size();
    return plan;
  }
  if (s.profile) {
    // PROFILE executes its statement; running it on one shard would
    // apply a fan-out statement once instead of N times.
    return Status::Unimplemented(
        "PROFILE is only supported for point-routed SELECTs with more "
        "than one shard");
  }
  return sessions_[0]->ExecuteParsed(whole);
}

Result<RouterSession::Recomposed> RouterSession::Recompose(
    const std::vector<ReadView>& views, const std::string& name) const {
  // Theorem 2 makes this well-defined: the union of the shards' R* has
  // exactly one canonical form under the shared nest order, so
  // re-nesting the concatenated expansions IS the global relation.
  Recomposed out;
  std::vector<FlatTuple> rows;
  for (size_t i = 0; i < views.size(); ++i) {
    NF2_ASSIGN_OR_RETURN(BoundRelation bound, views[i].Bind(name));
    if (i == 0) out.info = *bound.info;
    FlatRelation expanded = bound.relation->relation().Expand();
    for (const FlatTuple& t : expanded.tuples()) rows.push_back(t);
  }
  FlatRelation flat(out.info.schema, std::move(rows));
  out.relation = CanonicalForm(flat, out.info.nest_order);
  return out;
}

Result<StatementResult> RouterSession::RouteStats(const StatsStatement& s) {
  const std::vector<ReadView> views = ReadViews();
  NF2_ASSIGN_OR_RETURN(Recomposed r, Recompose(views, s.name));
  RelationStats stats = ComputeRelationStats(r.relation);
  stats.name = s.name;
  // Maintenance counters and dictionary sizes are per shard; report
  // their sums (each shard ran its own §4 chains).
  for (const ReadView& view : views) {
    Result<RelationStats> shard_stats = view.Stats(s.name);
    if (!shard_stats.ok()) continue;
    stats.dict_values += shard_stats->dict_values;
    stats.update_stats.compositions += shard_stats->update_stats.compositions;
    stats.update_stats.decompositions +=
        shard_stats->update_stats.decompositions;
    stats.update_stats.recons_calls += shard_stats->update_stats.recons_calls;
    stats.update_stats.candidate_scans +=
        shard_stats->update_stats.candidate_scans;
    stats.update_stats.find_candidate_ns +=
        shard_stats->update_stats.find_candidate_ns;
    stats.update_stats.recons_ns += shard_stats->update_stats.recons_ns;
  }
  return StatementResult::Message(stats.ToString());
}

Result<std::string> RouterSession::ExecuteMeta(const std::string& command) {
  const std::string lower = ToLower(command);
  if (lower == "\\shards") return RenderShards();
  if (lower == "\\metrics" || lower == "\\metrics prom") {
    return RenderMetrics(/*prometheus=*/lower.ends_with("prom"));
  }
  // Everything else (\sleep, unknown-command errors) behaves like the
  // single-engine session.
  return sessions_[0]->Execute(command);
}

std::string RouterSession::RenderShards() const {
  std::string out;
  for (size_t i = 0; i < router_->dbs_.size(); ++i) {
    Database* db = router_->dbs_[i].get();
    uint64_t wal_bytes = 0;
    Result<uint64_t> size = router_->env_->FileSize(db->wal_path());
    if (size.ok()) wal_bytes = *size;
    std::string age = "never";
    if (std::optional<std::chrono::steady_clock::time_point> t =
            db->last_checkpoint_time()) {
      age = StrCat(std::chrono::duration_cast<std::chrono::seconds>(
                       std::chrono::steady_clock::now() - *t)
                       .count(),
                   "s ago");
    }
    out += StrCat("shard-", i, ": ", db->PinSnapshot()->relation_count(),
                  " relation(s), wal ", wal_bytes,
                  " bytes, last checkpoint ", age, "\n");
  }
  out += StrCat(router_->dbs_.size(), " shard(s)");
  return out;
}

std::string RouterSession::RenderMetrics(bool prometheus) const {
  std::string out = prometheus ? router_->metrics_.ToPrometheusText()
                               : router_->metrics_.ToString();
  for (size_t i = 0; i < router_->dbs_.size(); ++i) {
    const std::string shard_text =
        router_->dbs_[i]->MetricsText(prometheus);
    if (prometheus) {
      out += AddShardLabel(shard_text, i);
    } else {
      out += StrCat("--- shard-", i, " ---\n", shard_text);
    }
  }
  return out;
}

}  // namespace shard
}  // namespace nf2
