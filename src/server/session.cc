#include "server/session.h"

#include <chrono>
#include <thread>

#include "nfrql/parser.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace nf2 {
namespace server {

namespace {

uint64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

void Observe(Histogram* h, uint64_t ns) {
  if (h != nullptr) h->Observe(ns);
}

void Increment(Counter* c, uint64_t n = 1) {
  if (c != nullptr) c->Increment(n);
}

/// PROFILE output grows one trailer line reporting whether the parse
/// was served from the statement cache — the per-request view of the
/// nf2_stmtcache_* counters.
Result<StatementResult> WithCacheNote(Result<StatementResult> out,
                                      const Statement& stmt, bool cache_hit) {
  if (!out.ok()) return out;
  const auto* explain = std::get_if<ExplainStatement>(&stmt);
  if (explain != nullptr && explain->profile) out->cache_hit = cache_hit;
  return out;
}

}  // namespace

std::shared_ptr<const Statement> StatementCache::Lookup(
    const std::string& key, uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    Increment(metrics_.misses);
    return nullptr;
  }
  if (it->second->epoch != epoch) {
    // Parsed under an older catalog epoch: a DDL happened since. Drop
    // the entry and report a miss — the caller re-parses and re-inserts
    // under the current epoch.
    lru_.erase(it->second);
    index_.erase(it);
    Increment(metrics_.invalidations);
    Increment(metrics_.misses);
    if (metrics_.entries != nullptr) {
      metrics_.entries->Set(static_cast<int64_t>(lru_.size()));
    }
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  Increment(metrics_.hits);
  return it->second->stmt;
}

void StatementCache::Insert(const std::string& key,
                            std::shared_ptr<const Statement> stmt,
                            uint64_t epoch) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->stmt = std::move(stmt);
    it->second->epoch = epoch;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(Entry{key, std::move(stmt), epoch});
  index_.emplace(key, lru_.begin());
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    Increment(metrics_.evictions);
  }
  if (metrics_.entries != nullptr) {
    metrics_.entries->Set(static_cast<int64_t>(lru_.size()));
  }
}

size_t StatementCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

SessionManager::SessionManager(Database* db, size_t statement_cache_capacity)
    : db_(db),
      stmt_cache_(statement_cache_capacity,
                  StatementCacheMetrics::ForRegistry(db->metrics())) {
  MetricsRegistry* reg = db_->metrics();
  gate_.set_metrics(GateMetrics::ForRegistry(reg));
  metric_sessions_total_ =
      reg->GetCounter("nf2_server_sessions_total", "Sessions ever opened");
  metric_sessions_active_ =
      reg->GetGauge("nf2_server_sessions_active", "Sessions currently open");
  metric_txn_conflicts_ = reg->GetCounter(
      "nf2_server_txn_conflicts_total",
      "Mutating statements rejected because another session's "
      "transaction was open");
  metric_read_stmt_ns_ = reg->GetHistogram(
      "nf2_server_read_stmt_ns",
      "Latency of read-only statements, including lock wait (ns)");
  metric_write_stmt_ns_ = reg->GetHistogram(
      "nf2_server_write_stmt_ns",
      "Latency of mutating statements, including lock wait (ns)");
}

std::unique_ptr<Session> SessionManager::NewSession() {
  uint64_t id = next_session_id_.fetch_add(1, std::memory_order_relaxed);
  metric_sessions_total_->Increment();
  metric_sessions_active_->Add(1);
  return std::unique_ptr<Session>(new Session(id, this));
}

std::unique_ptr<ClientSession> SessionManager::NewClientSession() {
  return NewSession();
}

void SessionManager::ShutdownCheckpoint() {
  // Serialize against in-flight writers; an open transaction (whose
  // session died without COMMIT) must not be made durable.
  auto lock = gate_.LockExclusive();
  if (db_->in_transaction()) return;
  Status s = db_->Checkpoint();
  if (!s.ok()) {
    NF2_LOG(Warning) << "shutdown checkpoint failed: " << s;
  }
}

Session::Session(uint64_t id, SessionManager* manager)
    : id_(id), manager_(manager), db_(manager->db_), executor_(db_) {}

Session::~Session() {
  Abort();
  manager_->metric_sessions_active_->Add(-1);
}

Result<Session::ParsedStatement> Session::ParseCached(
    const std::string& trimmed) {
  const std::string key = StatementCacheKey(trimmed);
  StatementCache* cache = &manager_->stmt_cache_;
  const uint64_t epoch = db_->catalog_epoch();
  const bool cacheable = key.size() <= kMaxCachedStatementBytes;
  if (cacheable) {
    if (std::shared_ptr<const Statement> cached =
            cache->Lookup(key, epoch)) {
      return ParsedStatement{std::move(cached), /*cache_hit=*/true};
    }
  }
  NF2_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(trimmed));
  auto shared = std::make_shared<const Statement>(std::move(stmt));
  if (cacheable) cache->Insert(key, shared, epoch);
  return ParsedStatement{std::move(shared), /*cache_hit=*/false};
}

Result<std::string> Session::Execute(std::string_view statement) {
  const std::string trimmed = Trim(std::string(statement));
  if (trimmed.empty()) {
    return Status::InvalidArgument("empty statement");
  }
  if (trimmed[0] == '\\') {
    return ExecuteMeta(trimmed);
  }
  NF2_ASSIGN_OR_RETURN(ParsedStatement parsed, ParseCached(trimmed));
  if (IsReadOnlyStatement(*parsed.stmt)) {
    return Render(ExecuteRead(parsed, db_->PinSnapshot()));
  }
  return Render(ExecuteWrite(parsed));
}

Result<StatementResult> Session::ExecuteParsed(const Statement& stmt) {
  // Non-owning view: the router keeps `stmt` alive for the call, and
  // nothing below retains the pointer past it.
  ParsedStatement parsed;
  parsed.stmt =
      std::shared_ptr<const Statement>(&stmt, [](const Statement*) {});
  if (IsReadOnlyStatement(stmt)) {
    return ExecuteRead(parsed, db_->PinSnapshot());
  }
  return ExecuteWrite(parsed);
}

Result<StatementResult> Session::ExecuteRead(
    const ParsedStatement& parsed,
    const std::shared_ptr<const DatabaseSnapshot>& snapshot) {
  const auto start = std::chrono::steady_clock::now();
  // Read-your-own-writes: the transaction owner's reads must see its
  // uncommitted operations, which no snapshot contains, so they go to
  // the live database. That is race-free without any lock because every
  // other session's writes are rejected while this transaction is open.
  // Everyone else executes against the pinned snapshot: zero gate
  // acquisitions, read-committed.
  const bool own_txn =
      manager_->txn_owner_.load(std::memory_order_acquire) == id_;
  if (!own_txn) executor_.BindSnapshot(snapshot);
  Result<StatementResult> out = executor_.Run(*parsed.stmt);
  executor_.ClearSnapshot();
  Observe(manager_->metric_read_stmt_ns_, ElapsedNs(start));
  return WithCacheNote(std::move(out), *parsed.stmt, parsed.cache_hit);
}

Result<StatementResult> Session::ExecuteWrite(const ParsedStatement& parsed) {
  const Statement& stmt = *parsed.stmt;
  const auto start = std::chrono::steady_clock::now();
  auto lock = manager_->gate_.LockExclusive();
  const uint64_t owner =
      manager_->txn_owner_.load(std::memory_order_relaxed);
  if (owner != 0 && owner != id_) {
    manager_->metric_txn_conflicts_->Increment();
    return Status::Unavailable(
        StrCat("session ", owner,
               " holds the open transaction; retry after it commits"));
  }
  Result<StatementResult> out = executor_.Run(stmt);
  // Track the transaction slot from engine truth rather than from the
  // statement kind: a failed op inside an open transaction leaves it
  // open, COMMIT/ROLLBACK (and only they) release it. The release
  // store pairs with the acquire load in ExecuteRead's
  // read-your-own-writes check.
  manager_->txn_owner_.store(db_->in_transaction() ? id_ : 0,
                             std::memory_order_release);
  Observe(manager_->metric_write_stmt_ns_, ElapsedNs(start));
  return WithCacheNote(std::move(out), stmt, parsed.cache_hit);
}

std::vector<Result<std::string>> Session::ExecuteBatch(
    const std::vector<std::string>& statements) {
  std::vector<Result<std::string>> results(
      statements.size(), Status::Internal("statement not executed"));

  // The pending run of consecutive read-only statements, flushed
  // against one pinned snapshot — every statement of the run observes
  // the same published version, so a whole-read batch is a consistent
  // point-in-time view no concurrent writer can tear.
  std::vector<ParsedStatement> run;
  std::vector<size_t> run_slots;
  auto flush_reads = [&] {
    if (run.empty()) return;
    const std::shared_ptr<const DatabaseSnapshot> snapshot =
        db_->PinSnapshot();
    for (size_t k = 0; k < run.size(); ++k) {
      results[run_slots[k]] = Render(ExecuteRead(run[k], snapshot));
    }
    run.clear();
    run_slots.clear();
  };

  for (size_t i = 0; i < statements.size(); ++i) {
    const std::string trimmed = Trim(statements[i]);
    if (trimmed.empty()) {
      results[i] = Status::InvalidArgument("empty statement");
      continue;
    }
    if (trimmed[0] == '\\') {
      // Meta commands do their own locking; the read run must be done
      // first so in-order execution is preserved.
      flush_reads();
      results[i] = ExecuteMeta(trimmed);
      continue;
    }
    Result<ParsedStatement> parsed = ParseCached(trimmed);
    if (!parsed.ok()) {
      results[i] = parsed.status();
      continue;
    }
    if (IsReadOnlyStatement(*parsed->stmt)) {
      run.push_back(*std::move(parsed));
      run_slots.push_back(i);
      continue;
    }
    flush_reads();
    results[i] = Render(ExecuteWrite(*parsed));
  }
  flush_reads();
  return results;
}

Result<std::string> Session::ExecuteMeta(const std::string& command) {
  const std::string lower = ToLower(command);
  if (lower == "\\metrics" || lower == "\\metrics prom") {
    // Lock-free: MetricsText sources its derived gauges (dictionary
    // size, relation count) from the published snapshot, so scraping
    // never contends with writers.
    const auto start = std::chrono::steady_clock::now();
    std::string text = db_->MetricsText(/*prometheus=*/lower.ends_with("prom"));
    Observe(manager_->metric_read_stmt_ns_, ElapsedNs(start));
    return text;
  }
  if (lower == "\\shards") {
    // Single-engine answer; the shard router overrides this with one
    // line per shard (shard/router.cc).
    return std::string(
        "single engine (no shards); start nf2d with --shards N");
  }
  if (lower.starts_with("\\sleep ") || lower == "\\sleep") {
    // Testing aid: occupy a worker for N ms (the server tests use it to
    // fill the request queue deterministically).
    const std::string arg =
        lower.size() > 7 ? Trim(lower.substr(7)) : std::string();
    if (arg.empty()) {
      // An absent argument must not silently mean "sleep 0" — reject it
      // so a typo'd test never reports a sleep that did not happen.
      return Status::InvalidArgument(
          "\\sleep takes milliseconds, e.g. \\sleep 50");
    }
    int ms = 0;
    for (char c : arg) {
      if (c < '0' || c > '9') {
        return Status::InvalidArgument("\\sleep takes milliseconds");
      }
      ms = ms * 10 + (c - '0');
      if (ms > 10000) return Status::InvalidArgument("\\sleep capped at 10s");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    return StrCat("slept ", ms, " ms");
  }
  return Status::InvalidArgument(
      StrCat("unknown meta command '", command, "'"));
}

void Session::Abort() {
  auto lock = manager_->gate_.LockExclusive();
  if (manager_->txn_owner_.load(std::memory_order_relaxed) != id_) return;
  if (db_->in_transaction()) {
    Status s = db_->Rollback();
    if (!s.ok()) {
      NF2_LOG(Warning) << "session " << id_
                       << ": rollback on abort failed: " << s;
    }
  }
  manager_->txn_owner_.store(0, std::memory_order_release);
}

}  // namespace server
}  // namespace nf2
