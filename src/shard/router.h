#ifndef NF2_SHARD_ROUTER_H_
#define NF2_SHARD_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engine/database.h"
#include "exec/read_view.h"
#include "server/session.h"
#include "shard/shard_map.h"
#include "util/result.h"

namespace nf2 {
namespace shard {

class RouterSession;

/// A hash-partitioned engine group behind a scatter-gather router
/// (DESIGN.md §13): N in-process shards, each a full Database —
/// own WAL, checkpoint lane, MVCC snapshot chain, engine gate — living
/// at <dir>/shard-<i>. ShardRouter plugs into Server as a
/// SessionProvider: each connection gets a RouterSession that
/// classifies every statement, routes point operations (the WHERE
/// pins the partition attribute, or INSERT/DELETE VALUES rows hash
/// individually) to exactly one shard, and scatters everything else.
/// Scattered mutations add up the shards' counts; a scattered SELECT is
/// one plan over every shard's access paths (PlanSelect over
/// ReadViews()), so it answers as a single engine would. Results
/// render once.
///
/// With shards == 1 every call forwards verbatim to the one underlying
/// SessionManager — byte-identical to the unsharded server.
///
/// DDL fans out all-or-nothing: CREATE applies shard by shard and
/// rolls back the shards that succeeded if any shard refuses; a crash
/// mid-fan-out is healed at the next Open, which drops any relation
/// that does not exist on every shard (completing a crashed DROP,
/// rolling back a crashed CREATE — either way the shards converge).
class ShardRouter : public server::SessionProvider {
 public:
  struct Options {
    /// Number of shards (>= 1). Pinned by the SHARDS marker file on
    /// first open; later opens must match.
    size_t shards = 1;
    /// Per-shard engine options.
    Database::Options db;
    /// Per-shard parsed-statement cache capacity.
    size_t statement_cache_capacity = server::kDefaultStatementCacheCapacity;
    /// Open the shards on parallel threads (recovery dominates cold
    /// start). Crash tests turn this off: FaultInjectionEnv is
    /// single-threaded.
    bool parallel_open = true;
  };

  /// Opens (creating if needed) all shards under `dir`, in parallel,
  /// then heals DDL-fan-out stragglers as described above.
  static Result<std::unique_ptr<ShardRouter>> Open(const std::string& dir,
                                                   Options options, Env* env);
  static Result<std::unique_ptr<ShardRouter>> Open(const std::string& dir,
                                                   Options options) {
    return Open(dir, options, Env::Default());
  }

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  // SessionProvider:
  std::unique_ptr<server::ClientSession> NewClientSession() override;
  MetricsRegistry* metrics_registry() override { return &metrics_; }
  void ShutdownCheckpoint() override;

  size_t shard_count() const { return dbs_.size(); }
  Database* shard_db(size_t i) { return dbs_[i].get(); }
  server::SessionManager* shard_sessions(size_t i) {
    return managers_[i].get();
  }
  const std::string& dir() const { return dir_; }

 private:
  friend class RouterSession;
  ShardRouter() = default;

  std::string dir_;
  Env* env_ = nullptr;
  /// Router-level registry: the server's nf2_server_* metrics and the
  /// nf2_router_* counters land here; per-shard engine metrics stay in
  /// each shard's own registry (rendered with shard labels by
  /// `\metrics`).
  MetricsRegistry metrics_;
  std::vector<std::unique_ptr<Database>> dbs_;
  std::vector<std::unique_ptr<server::SessionManager>> managers_;
  std::atomic<uint64_t> next_session_id_{1};

  Counter* metric_point_ = nullptr;
  Counter* metric_scatter_ = nullptr;
  Counter* metric_merge_rows_ = nullptr;
  Counter* metric_ddl_fanout_ = nullptr;
  Counter* metric_ddl_rollbacks_ = nullptr;
};

/// One client's fan-out session: a per-shard engine Session for every
/// shard (transaction ownership and gating per shard come from those),
/// plus the router's classification logic. Not internally
/// synchronized — one statement (or batch) at a time, like Session.
class RouterSession : public server::ClientSession {
 public:
  RouterSession(uint64_t id, ShardRouter* router);
  ~RouterSession() override;

  uint64_t id() const override { return id_; }
  Result<std::string> Execute(std::string_view statement) override;
  std::vector<Result<std::string>> ExecuteBatch(
      const std::vector<std::string>& statements) override;
  void Abort() override;

 private:
  /// Partition metadata resolved from shard 0's published snapshot
  /// (catalogs are identical across shards by the DDL fan-out
  /// invariant).
  struct PartitionInfo {
    size_t attr = 0;
    std::string attr_name;
    size_t degree = 0;
  };
  std::optional<PartitionInfo> Partition(const std::string& name) const;

  /// One view per shard: live while this session owns the fan-out
  /// transaction (read-your-own-writes), pinned snapshots otherwise.
  std::vector<ReadView> ReadViews() const;

  Result<StatementResult> Dispatch(const Statement& stmt);
  /// Runs `whole` on every shard, even after a failure, so the shards
  /// converge (DROP, COMMIT/ROLLBACK, CHECKPOINT): the first error,
  /// else shard 0's result.
  Result<StatementResult> FanOut(const Statement& whole);
  /// INSERT and DELETE ... VALUES: each row goes to the shard its
  /// partition value hashes to; the shards' counts add up.
  template <typename RowsStatement>
  Result<StatementResult> RouteRows(const RowsStatement& s,
                                    const Statement& whole);
  /// Runs a mutation on every shard in order, adding up their counts.
  Result<StatementResult> ScatterMutation(const Statement& whole);
  Result<StatementResult> RouteDelete(const DeleteStatement& s,
                                      const Statement& whole);
  Result<StatementResult> RouteUpdate(const UpdateStatement& s,
                                      const Statement& whole);
  /// Point-routes a SELECT whose WHERE pins the partition attribute
  /// (never a JOIN: the joined relation's rows live on every shard);
  /// otherwise plans it once over ReadViews() and drains it here.
  Result<StatementResult> RouteSelect(const SelectStatement& s,
                                      const Statement& whole);
  Result<StatementResult> RouteCreate(const CreateStatement& s,
                                      const Statement& whole);
  Result<StatementResult> RouteTxn(const TxnStatement& s,
                                   const Statement& whole);
  Result<StatementResult> RouteExplain(const ExplainStatement& s,
                                       const Statement& whole);
  /// Relation `name` as a single engine would hold it, re-nested from
  /// every shard's view (SHOW, DESCRIBE, NEST, STATS).
  struct Recomposed {
    RelationInfo info;
    NfrRelation relation;
  };
  Result<Recomposed> Recompose(const std::vector<ReadView>& views,
                               const std::string& name) const;
  Result<StatementResult> RouteStats(const StatsStatement& s);

  Result<std::string> ExecuteMeta(const std::string& command);
  std::string RenderShards() const;
  std::string RenderMetrics(bool prometheus) const;

  uint64_t id_;
  ShardRouter* router_;
  std::vector<std::unique_ptr<server::Session>> sessions_;
  /// True while this session holds the fan-out transaction (BEGIN
  /// succeeded on every shard).
  bool own_txn_ = false;
};

}  // namespace shard
}  // namespace nf2

#endif  // NF2_SHARD_ROUTER_H_
