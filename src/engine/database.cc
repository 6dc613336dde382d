#include "engine/database.h"

#include <cctype>
#include <filesystem>
#include <string_view>

#include "dependency/design.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace nf2 {

namespace {
constexpr char kCatalogFile[] = "catalog.nf2";
constexpr char kWalFile[] = "wal.log";
constexpr uint32_t kDictionaryMagic = 0x4e463244;  // "NF2D".

std::string SanitizedFileName(const std::string& name) {
  std::string out;
  for (char c : name) {
    out += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
  }
  return out + ".tbl";
}
}  // namespace

Database::~Database() {
  // Best-effort durability on clean shutdown; an open transaction is
  // rolled back first (destruction is not a commit).
  if (in_txn_) {
    Status rb = Rollback();
    if (!rb.ok()) {
      NF2_LOG(Warning) << "rollback on close failed: " << rb;
    }
  }
  // Only checkpoint a fully-recovered database: after a failed Recover
  // the catalog may list relations that were never loaded, and writing
  // that state out would destroy the recoverable files.
  if (wal_ != nullptr && recovered_) {
    Status s = Checkpoint();
    if (!s.ok()) {
      NF2_LOG(Warning) << "checkpoint on close failed: " << s;
    }
  }
}

std::string Database::TablePath(const std::string& table_file) const {
  return (std::filesystem::path(dir_) / table_file).string();
}

std::string Database::CatalogPath() const {
  return (std::filesystem::path(dir_) / kCatalogFile).string();
}

std::string Database::DictionaryPath() const {
  return (std::filesystem::path(dir_) / catalog_.dictionary_file()).string();
}

std::string Database::ManifestPath() const {
  return (std::filesystem::path(dir_) / catalog_.manifest_file()).string();
}

Status Database::SaveDictionary() const {
  BufferWriter out;
  out.PutU32(kDictionaryMagic);
  EncodeValueDictionary(*dict_, &out);
  out.PutU32(Crc32(out.data()));
  // Never truncate the live dictionary in place: every checkpointed
  // table encodes against it, so losing it to a mid-write crash would
  // orphan all of them.
  return env_->WriteFileAtomic(DictionaryPath(), out.data());
}

Status Database::LoadDictionary() {
  if (!env_->FileExists(DictionaryPath())) {
    return Status::NotFound(
        StrCat("dictionary not found at ", DictionaryPath()));
  }
  NF2_ASSIGN_OR_RETURN(std::string contents,
                       env_->ReadFileToString(DictionaryPath()));
  if (contents.size() < 12) {
    return Status::Corruption("dictionary file too small");
  }
  std::string_view body(contents.data(), contents.size() - 4);
  BufferReader crc_reader(
      std::string_view(contents.data() + contents.size() - 4, 4));
  NF2_ASSIGN_OR_RETURN(uint32_t stored_crc, crc_reader.GetU32());
  if (Crc32(body) != stored_crc) {
    return Status::Corruption("dictionary crc mismatch");
  }
  BufferReader in(body);
  NF2_ASSIGN_OR_RETURN(uint32_t magic, in.GetU32());
  if (magic != kDictionaryMagic) {
    return Status::Corruption("bad dictionary magic");
  }
  NF2_ASSIGN_OR_RETURN(dict_, DecodeValueDictionary(&in));
  return Status::OK();
}

CanonicalRelation Database::MakeRelation(const Schema& schema,
                                         const Permutation& order) const {
  CanonicalRelation rel(schema, order,
                        CanonicalRelation::SearchMode::kIndexed, dict_);
  // Mirror the relation's §4 counters into the engine-wide registry so
  // the database totals stay bit-identical to the per-relation sums.
  rel.set_metrics(UpdatePathMetrics::ForRegistry(&metrics_));
  return rel;
}

Result<std::unique_ptr<Database>> Database::Open(const std::string& dir,
                                                 Options options, Env* env) {
  NF2_RETURN_IF_ERROR(env->CreateDirs(dir));
  std::unique_ptr<Database> db(new Database());
  db->dir_ = dir;
  db->options_ = options;
  db->env_ = env;
  db->dict_ = std::make_shared<ValueDictionary>();
  // Sweep leftovers of atomic writes cut by a crash: a "*.tmp" sibling
  // is never live state — the rename that would have published it
  // never happened.
  NF2_ASSIGN_OR_RETURN(std::vector<std::string> entries, env->ListDir(dir));
  for (const std::string& entry : entries) {
    if (entry.size() > 4 && entry.ends_with(".tmp")) {
      Status s = env->RemoveFile(
          (std::filesystem::path(dir) / entry).string());
      if (!s.ok()) {
        NF2_LOG(Warning) << "cannot remove stray temp file " << entry
                         << ": " << s;
      }
    }
  }
  // Register the engine-level metric handles once, up front — every
  // later increment is a relaxed atomic on a stable pointer.
  MetricsRegistry* reg = &db->metrics_;
  db->metric_checkpoints_ = reg->GetCounter(
      "nf2_checkpoints_total", "Checkpoints completed");
  db->metric_recoveries_ = reg->GetCounter(
      "nf2_recoveries_total", "Recovery runs completed at Open");
  db->metric_inserts_ = reg->GetCounter(
      "nf2_inserts_total", "Tuple inserts applied");
  db->metric_deletes_ = reg->GetCounter(
      "nf2_deletes_total", "Tuple deletes applied");
  db->metric_checkpoint_ns_ = reg->GetHistogram(
      "nf2_checkpoint_duration_ns", "Wall time per checkpoint (ns)");
  db->metric_recovery_ns_ = reg->GetHistogram(
      "nf2_recovery_duration_ns", "Wall time per recovery (ns)");
  db->metric_insert_ns_ = reg->GetHistogram(
      "nf2_insert_duration_ns", "Wall time per applied insert (ns)");
  db->metric_delete_ns_ = reg->GetHistogram(
      "nf2_delete_duration_ns", "Wall time per applied delete (ns)");
  db->metric_dict_values_ = reg->GetGauge(
      "nf2_dict_values", "Distinct atoms in the shared dictionary");
  db->metric_relations_ = reg->GetGauge(
      "nf2_relations", "Relations in the catalog");
  db->metric_snapshots_published_ = reg->GetCounter(
      "nf2_snapshot_published_total", "Snapshots published at commits");
  db->ckpt_metrics_ = CheckpointMetrics::ForRegistry(reg);
  db->snapshot_tracker_ = std::make_shared<SnapshotTracker>();
  db->snapshot_tracker_->BindGauges(
      reg->GetGauge("nf2_snapshot_pinned",
                    "Snapshot versions currently alive (pinned)"),
      reg->GetGauge("nf2_snapshot_oldest_age_ms",
                    "Age of the oldest live snapshot version (ms)"));
  WriteAheadLog::Options wal_options;
  wal_options.sync_on_commit = options.sync_wal;
  wal_options.metrics = reg;
  NF2_ASSIGN_OR_RETURN(
      db->wal_,
      WriteAheadLog::Open(env, (std::filesystem::path(dir) / kWalFile).string(),
                          wal_options));
  {
    TraceSpan span(nullptr, "recover", db->metric_recovery_ns_);
    NF2_RETURN_IF_ERROR(db->Recover());
  }
  db->metric_recoveries_->Increment();
  return db;
}

Status Database::Recover() {
  // 1. Catalog + shared dictionary + checkpointed tables. A missing
  // dictionary file is fine (pre-dictionary database or nothing
  // checkpointed yet): re-interning during table load rebuilds it.
  if (env_->FileExists(CatalogPath())) {
    NF2_ASSIGN_OR_RETURN(catalog_,
                         Catalog::LoadFromFile(env_, CatalogPath()));
  }
  if (env_->FileExists(DictionaryPath())) {
    NF2_RETURN_IF_ERROR(LoadDictionary());
    saved_dict_size_ = dict_->size();
  }
  // The page-version manifest (DESIGN.md §12) is the only way a table
  // file is read. Corrupt fails closed — guessing a page mapping could
  // silently mix page versions. Missing is fine for a fresh database;
  // a relation that needs it fails below.
  {
    Result<Manifest> loaded = LoadManifest(env_, ManifestPath());
    if (loaded.ok()) {
      manifest_ = std::move(*loaded);
      // Fold the manifest's persisted WAL position into the reopened
      // log before the first Append: the truncate that committed this
      // checkpoint emptied the file, so the file alone cannot tell the
      // log how far the (epoch, lsn) sequence had advanced.
      wal_->AdoptDurablePosition(manifest_.wal_epoch,
                                 manifest_.wal_base_lsn);
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      return loaded.status();
    }
  }
  // Every checkpoint saves the catalog before the manifest, so mappings
  // without a catalog mean the catalog was lost: finishing "DROPs" below
  // would delete every table file.
  if (!manifest_.tables.empty() && !env_->FileExists(CatalogPath())) {
    return Status::Corruption(
        StrCat(catalog_.manifest_file(), " maps ", manifest_.tables.size(),
               " table file(s) but ", kCatalogFile, " is missing"));
  }
  std::set<std::string> created_in_log;
  for (const WalRecord& record : wal_->recovered_records()) {
    if (record.type == WalOpType::kCreateRelation) {
      created_in_log.insert(record.relation);
    }
  }
  std::set<std::string> owned_files;
  for (const std::string& name : catalog_.Names()) {
    NF2_ASSIGN_OR_RETURN(const RelationInfo* info, catalog_.Get(name));
    owned_files.insert(info->table_file);
    CanonicalRelation rel = MakeRelation(info->schema, info->nest_order);
    auto mit = manifest_.tables.find(info->table_file);
    if (mit != manifest_.tables.end()) {
      // CRC-verified read through the durable mapping; a missing or
      // damaged file is Corruption.
      NF2_ASSIGN_OR_RETURN(
          MappedTable stored,
          ReadTableMapped(env_, TablePath(info->table_file), mit->second));
      // Trust but verify: the stored form must be the canonical form of
      // its own expansion (cheap for the usual sizes; guards against
      // partial writes).
      NF2_ASSIGN_OR_RETURN(
          CanonicalRelation rebuilt,
          CanonicalRelation::FromFlat(
              stored.relation.Expand(), info->nest_order,
              CanonicalRelation::SearchMode::kIndexed, dict_));
      if (!rebuilt.relation().EqualsAsSet(stored.relation)) {
        return Status::Corruption(
            StrCat("table for '", name, "' is not in canonical form"));
      }
      rebuilt.set_metrics(UpdatePathMetrics::ForRegistry(&metrics_));
      rel = std::move(rebuilt);
    } else if (created_in_log.count(name) == 0) {
      // Unmapped relations start empty and replay rebuilds them, which
      // needs their CREATE record. Without it the manifest that mapped
      // the relation is gone (or the datadir predates the manifest).
      return Status::Corruption(
          StrCat("relation '", name, "' has no mapping in ",
                 catalog_.manifest_file(),
                 " and no CREATE record in the log: the manifest was "
                 "lost, or the database predates it"));
    }
    relations_.emplace(name, std::move(rel));
  }
  // A mapping no catalog relation owns is what a DROP cut between its
  // catalog and manifest saves leaves behind: finish that DROP.
  std::vector<std::string> orphaned;
  for (const auto& [file, entry] : manifest_.tables) {
    if (owned_files.count(file) == 0) orphaned.push_back(file);
  }
  for (const std::string& file : orphaned) {
    NF2_RETURN_IF_ERROR(RemoveTableFile(file));
  }
  // 2. Replay the WAL through the §4 algorithms. The records were read
  // (and the torn tail cut) once, at WriteAheadLog::Open — no second
  // scan of the log file. Insert/delete records inside a transaction
  // are buffered and applied only when the commit record is seen;
  // aborted or crash-cut transactions are discarded.
  //
  // Only applied data and DDL operations count toward
  // ops_since_checkpoint_: transaction markers and checkpoint records
  // are bookkeeping, and counting them would make the auto-checkpoint
  // cadence drift after every recovery.
  const std::vector<WalRecord>& records = wal_->recovered_records();
  bool replay_in_txn = false;
  std::vector<WalRecord> pending;
  auto apply_data_record = [&](const WalRecord& record) -> Status {
    BufferReader reader(record.payload);
    NF2_ASSIGN_OR_RETURN(FlatTuple tuple, DecodeFlatTuple(&reader));
    if (record.type == WalOpType::kInsert) {
      Status s = ApplyInsert(record.relation, tuple);
      // AlreadyExists: the op landed in a checkpoint before the crash.
      // NotFound: the relation was dropped later in this same log (the
      // drop saved the catalog eagerly, superseding these records).
      if (!s.ok() && s.code() != StatusCode::kAlreadyExists &&
          s.code() != StatusCode::kNotFound) {
        return s;
      }
    } else {
      Status s = ApplyDelete(record.relation, tuple);
      if (!s.ok() && s.code() != StatusCode::kNotFound) return s;
    }
    ++ops_since_checkpoint_;
    return Status::OK();
  };
  for (const WalRecord& record : records) {
    switch (record.type) {
      case WalOpType::kInsert:
      case WalOpType::kDelete: {
        if (replay_in_txn) {
          pending.push_back(record);
        } else {
          NF2_RETURN_IF_ERROR(apply_data_record(record));
        }
        break;
      }
      case WalOpType::kCreateRelation: {
        ++ops_since_checkpoint_;
        if (catalog_.Has(record.relation)) break;  // Already applied.
        BufferReader reader(record.payload);
        NF2_ASSIGN_OR_RETURN(RelationInfo info, DecodeRelationInfo(&reader));
        NF2_RETURN_IF_ERROR(catalog_.Add(info));
        relations_.emplace(info.name,
                           MakeRelation(info.schema, info.nest_order));
        break;
      }
      case WalOpType::kDropRelation: {
        ++ops_since_checkpoint_;
        if (!catalog_.Has(record.relation)) break;
        NF2_ASSIGN_OR_RETURN(const RelationInfo* info,
                             catalog_.Get(record.relation));
        const std::string table_file = info->table_file;
        NF2_RETURN_IF_ERROR(catalog_.Remove(record.relation));
        relations_.erase(record.relation);
        // DropRelation's durable order, so the mapping is gone before a
        // replayed or later CREATE of the same name.
        if (manifest_.tables.count(table_file) > 0) {
          NF2_RETURN_IF_ERROR(catalog_.SaveToFile(env_, CatalogPath()));
          NF2_RETURN_IF_ERROR(RemoveTableFile(table_file));
        }
        break;
      }
      case WalOpType::kTxnBegin:
        replay_in_txn = true;
        pending.clear();
        break;
      case WalOpType::kTxnCommit:
        for (const WalRecord& buffered : pending) {
          NF2_RETURN_IF_ERROR(apply_data_record(buffered));
        }
        pending.clear();
        replay_in_txn = false;
        break;
      case WalOpType::kTxnAbort:
        pending.clear();
        replay_in_txn = false;
        break;
      case WalOpType::kCheckpoint:
        break;
    }
  }
  // A transaction cut off by a crash is implicitly aborted — but only
  // in RAM so far. The log still ends inside the unterminated region,
  // so post-restart autocommit appends would land between its kTxnBegin
  // and nothing, and a SECOND recovery would discard them as part of
  // the crash-cut transaction. Terminate the region durably now.
  if (replay_in_txn) {
    NF2_RETURN_IF_ERROR(
        wal_->Append({0, WalOpType::kTxnAbort, "", ""}).status());
  }
  // The recovered records were consumed above; a long-lived process
  // must not pin the whole pre-checkpoint log in RAM.
  wal_->ReleaseRecoveredRecords();
  // Publishing here makes the recovered state visible to snapshot
  // readers before the database is served.
  PublishSnapshot();
  recovered_ = true;
  return Status::OK();
}

void Database::PublishSnapshot() {
  // Every copy below shares chunks with the writer's structures
  // (core/cow_vector.h): the writer clones a chunk before its next
  // write, so nothing a snapshot reaches is ever written again. The
  // dictionary copy carries no rank table: readers never ask for order.
  if (frozen_dict_ == nullptr || frozen_dict_->size() != dict_->size()) {
    frozen_dict_ = std::make_shared<const ValueDictionary>(*dict_);
  }
  std::shared_ptr<const DatabaseSnapshot> prev =
      snapshot_.load(std::memory_order_relaxed);
  DatabaseSnapshot::VersionMap versions;
  for (const auto& [name, rel] : relations_) {
    // COW at relation granularity: share the previous version unless
    // this relation was mutated since the last publish.
    if (prev != nullptr && dirty_relations_.count(name) == 0) {
      if (auto reuse = prev->FindVersion(name)) {
        versions.emplace(name, std::move(reuse));
        continue;
      }
    }
    Result<const RelationInfo*> info = catalog_.Get(name);
    NF2_CHECK(info.ok()) << "relation '" << name << "' missing from catalog";
    versions.emplace(
        name, std::make_shared<const DatabaseSnapshot::RelationVersion>(
                  DatabaseSnapshot::RelationVersion{
                      **info, std::make_shared<const CanonicalRelation>(
                                  rel)}));
  }
  dirty_relations_.clear();
  ++published_version_;
  WalPosition wal_pos = wal_ != nullptr ? wal_->position() : WalPosition{};
  snapshot_.store(std::make_shared<const DatabaseSnapshot>(
                      published_version_, std::move(versions), frozen_dict_,
                      snapshot_tracker_, wal_pos.epoch, wal_pos.lsn),
                  std::memory_order_release);
  metric_snapshots_published_->Increment();
}

Status Database::Begin() {
  if (in_txn_) {
    return Status::FailedPrecondition("transaction already open");
  }
  NF2_RETURN_IF_ERROR(
      wal_->Append({0, WalOpType::kTxnBegin, "", ""}).status());
  in_txn_ = true;
  undo_log_.clear();
  return Status::OK();
}

Status Database::Commit() {
  if (!in_txn_) {
    return Status::FailedPrecondition("no open transaction");
  }
  NF2_RETURN_IF_ERROR(
      wal_->Append({0, WalOpType::kTxnCommit, "", ""}).status());
  in_txn_ = false;
  undo_log_.clear();
  // Commit is a publish boundary: the transaction's writes become
  // visible to snapshot readers here, atomically, and not before.
  PublishSnapshot();
  // The marker itself is not an operation; the transaction's data ops
  // were already counted as they ran.
  return MaybeAutoCheckpoint();
}

Status Database::Rollback() {
  if (!in_txn_) {
    return Status::FailedPrecondition("no open transaction");
  }
  // Undo in reverse order through the same §4 algorithms.
  for (size_t i = undo_log_.size(); i-- > 0;) {
    const UndoEntry& entry = undo_log_[i];
    Status s = entry.was_insert
                   ? ApplyDelete(entry.relation, entry.tuple)
                   : ApplyInsert(entry.relation, entry.tuple);
    NF2_CHECK(s.ok()) << "rollback failed to undo "
                      << entry.tuple.ToString() << ": " << s;
  }
  undo_log_.clear();
  in_txn_ = false;
  NF2_RETURN_IF_ERROR(
      wal_->Append({0, WalOpType::kTxnAbort, "", ""}).status());
  // Publish the restored state: the aborted transaction's relations
  // are in dirty_relations_ (marked as its ops ran), so their
  // pre-transaction content is copied again for readers.
  PublishSnapshot();
  return Status::OK();
}

Status Database::CreateRelation(const std::string& name, Schema schema,
                                Permutation nest_order, std::vector<Fd> fds,
                                std::vector<Mvd> mvds) {
  if (in_txn_) {
    return Status::FailedPrecondition(
        "DDL is not allowed inside a transaction");
  }
  if (catalog_.Has(name)) {
    return Status::AlreadyExists(StrCat("relation '", name, "' exists"));
  }
  if (name.empty()) {
    return Status::InvalidArgument("relation name must be non-empty");
  }
  for (const Fd& fd : fds) {
    if (!fd.lhs.Union(fd.rhs).IsSubsetOf(AttrSet::All(schema.degree()))) {
      return Status::InvalidArgument("FD references unknown attributes");
    }
  }
  for (const Mvd& mvd : mvds) {
    if (!mvd.lhs.Union(mvd.rhs).IsSubsetOf(AttrSet::All(schema.degree()))) {
      return Status::InvalidArgument("MVD references unknown attributes");
    }
  }
  if (nest_order.empty()) {
    nest_order = AdvisePermutation(schema.degree(),
                                   FdSet(schema.degree(), fds),
                                   MvdSet(schema.degree(), mvds));
  }
  if (!IsValidPermutation(nest_order, schema.degree())) {
    return Status::InvalidArgument("nest order is not a permutation");
  }
  RelationInfo info;
  info.name = name;
  info.schema = std::move(schema);
  info.nest_order = std::move(nest_order);
  info.fds = std::move(fds);
  info.mvds = std::move(mvds);
  info.table_file = SanitizedFileName(name);

  BufferWriter payload;
  EncodeRelationInfo(info, &payload);
  // The WAL record (fsync'd — DDL is a commit point) is all CREATE
  // makes durable besides the catalog: until a checkpoint maps the
  // relation's table file, recovery starts it empty and replay, which
  // needs this record, rebuilds it.
  NF2_RETURN_IF_ERROR(
      wal_->Append({0, WalOpType::kCreateRelation, name, payload.data()})
          .status());
  relations_.emplace(name, MakeRelation(info.schema, info.nest_order));
  NF2_RETURN_IF_ERROR(catalog_.Add(std::move(info)));
  ++ops_since_checkpoint_;
  // DDL invalidates cached plans (the statement-cache epoch key) and
  // is itself a publish boundary.
  catalog_epoch_.fetch_add(1, std::memory_order_release);
  PublishSnapshot();
  return catalog_.SaveToFile(env_, CatalogPath());
}

Status Database::DropRelation(const std::string& name) {
  if (in_txn_) {
    return Status::FailedPrecondition(
        "DDL is not allowed inside a transaction");
  }
  NF2_ASSIGN_OR_RETURN(const RelationInfo* info, catalog_.Get(name));
  const std::string table_file = info->table_file;
  NF2_RETURN_IF_ERROR(
      wal_->Append({0, WalOpType::kDropRelation, name, ""}).status());
  NF2_RETURN_IF_ERROR(catalog_.Remove(name));
  relations_.erase(name);
  ckpt_dirty_.erase(name);
  ++ops_since_checkpoint_;
  catalog_epoch_.fetch_add(1, std::memory_order_release);
  PublishSnapshot();
  // Durable in this order: the catalog, then a manifest without the
  // file's mapping, and only then is the file removed.
  NF2_RETURN_IF_ERROR(catalog_.SaveToFile(env_, CatalogPath()));
  return RemoveTableFile(table_file);
}

Status Database::RemoveTableFile(const std::string& table_file) {
  if (manifest_.tables.count(table_file) > 0) {
    Manifest next = manifest_;
    next.tables.erase(table_file);
    NF2_RETURN_IF_ERROR(SaveManifestAtomic(env_, ManifestPath(), next));
    manifest_ = std::move(next);
  }
  const std::string path = TablePath(table_file);
  if (env_->FileExists(path)) {
    Status removed = env_->RemoveFile(path);  // Best effort.
    if (!removed.ok()) {
      NF2_LOG(Warning) << "cannot remove dropped table file " << path
                       << ": " << removed;
    }
  }
  return Status::OK();
}

std::vector<std::string> Database::ListRelations() const {
  return catalog_.Names();
}

Result<const NfrRelation*> Database::Relation(
    const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound(StrCat("relation '", name, "' not found"));
  }
  return &it->second.relation();
}

Result<const CanonicalRelation*> Database::Canonical(
    const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound(StrCat("relation '", name, "' not found"));
  }
  return &it->second;
}

Result<const RelationInfo*> Database::Info(const std::string& name) const {
  return catalog_.Get(name);
}

Status Database::ApplyInsert(const std::string& name,
                             const FlatTuple& tuple) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound(StrCat("relation '", name, "' not found"));
  }
  Status s = it->second.Insert(tuple);
  if (s.ok()) ckpt_dirty_.insert(name);
  return s;
}

Status Database::ApplyDelete(const std::string& name,
                             const FlatTuple& tuple) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound(StrCat("relation '", name, "' not found"));
  }
  Status s = it->second.Delete(tuple);
  if (s.ok()) ckpt_dirty_.insert(name);
  return s;
}

Status Database::CheckFdsForInsert(const RelationInfo& info,
                                   const CanonicalRelation& rel,
                                   const FlatTuple& tuple) const {
  for (const Fd& fd : info.fds) {
    if (fd.IsTrivial()) continue;
    std::vector<size_t> lhs = fd.lhs.ToVector();
    std::vector<size_t> rhs = fd.rhs.Difference(fd.lhs).ToVector();
    // An existing NFR tuple whose components contain every LHS value of
    // `tuple` expands to some simple tuple agreeing with it on the LHS;
    // the FD then demands its RHS components be exactly the inserted
    // RHS values. The postings of the first LHS value give the
    // candidates, membership filters the rest (as the planner's
    // narrowing leaf does), so the check never scans the relation.
    NfrRelation found;
    const NfrRelation* candidates = &rel.relation();
    if (!lhs.empty()) {
      found = rel.TuplesContaining(lhs[0], tuple.at(lhs[0]));
      candidates = &found;
    }
    for (const NfrTuple& s : candidates->tuples()) {
      bool shares_lhs = true;
      for (size_t a : lhs) {
        if (!s.at(a).Contains(tuple.at(a))) {
          shares_lhs = false;
          break;
        }
      }
      if (!shares_lhs) continue;
      for (size_t a : rhs) {
        if (!s.at(a).IsSingleton() || s.at(a).single() != tuple.at(a)) {
          return Status::FailedPrecondition(
              StrCat("inserting ", tuple.ToString(), " violates FD ",
                     fd.ToString(info.schema), " of relation '", info.name,
                     "'"));
        }
      }
    }
  }
  return Status::OK();
}

Status Database::Insert(const std::string& name, const FlatTuple& tuple) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound(StrCat("relation '", name, "' not found"));
  }
  // Validate before logging so the WAL carries only applicable ops.
  if (tuple.degree() != it->second.schema().degree()) {
    return Status::InvalidArgument("tuple degree mismatch");
  }
  if (it->second.Contains(tuple)) {
    return Status::AlreadyExists(
        StrCat("tuple ", tuple.ToString(), " already present"));
  }
  if (options_.enforce_fds) {
    NF2_ASSIGN_OR_RETURN(const RelationInfo* info, catalog_.Get(name));
    NF2_RETURN_IF_ERROR(CheckFdsForInsert(*info, it->second, tuple));
  }
  BufferWriter payload;
  EncodeFlatTuple(tuple, &payload);
  {
    TraceSpan span(nullptr, "insert", metric_insert_ns_);
    NF2_RETURN_IF_ERROR(
        wal_->Append({0, WalOpType::kInsert, name, payload.data()})
            .status());
    NF2_RETURN_IF_ERROR(it->second.Insert(tuple));
  }
  metric_inserts_->Increment();
  if (in_txn_) {
    undo_log_.push_back(UndoEntry{true, name, tuple});
  }
  ++ops_since_checkpoint_;
  dirty_relations_.insert(name);
  ckpt_dirty_.insert(name);
  // Autocommit is a publish boundary; inside a transaction the write
  // stays invisible to snapshot readers until Commit.
  if (!in_txn_) PublishSnapshot();
  return MaybeAutoCheckpoint();
}

Status Database::Delete(const std::string& name, const FlatTuple& tuple) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound(StrCat("relation '", name, "' not found"));
  }
  if (!it->second.Contains(tuple)) {
    return Status::NotFound(
        StrCat("tuple ", tuple.ToString(), " not present"));
  }
  BufferWriter payload;
  EncodeFlatTuple(tuple, &payload);
  {
    TraceSpan span(nullptr, "delete", metric_delete_ns_);
    NF2_RETURN_IF_ERROR(
        wal_->Append({0, WalOpType::kDelete, name, payload.data()})
            .status());
    NF2_RETURN_IF_ERROR(it->second.Delete(tuple));
  }
  metric_deletes_->Increment();
  if (in_txn_) {
    undo_log_.push_back(UndoEntry{false, name, tuple});
  }
  ++ops_since_checkpoint_;
  dirty_relations_.insert(name);
  ckpt_dirty_.insert(name);
  if (!in_txn_) PublishSnapshot();
  return MaybeAutoCheckpoint();
}

Result<bool> Database::Contains(const std::string& name,
                                const FlatTuple& tuple) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound(StrCat("relation '", name, "' not found"));
  }
  return it->second.Contains(tuple);
}

Result<FlatRelation> Database::Scan(const std::string& name) const {
  NF2_ASSIGN_OR_RETURN(const NfrRelation* rel, Relation(name));
  return rel->Expand();
}

Status Database::Checkpoint() {
  if (in_txn_) {
    return Status::FailedPrecondition(
        "cannot checkpoint with an open transaction");
  }
  // Incremental, page-level checkpoint (DESIGN.md §12). Only relations
  // mutated since the last checkpoint are serialized, and of those only
  // the pages whose CRC changed are written — into physical slots the
  // DURABLE manifest does not reference (shadow paging), so every page
  // the old manifest maps stays intact until the new manifest lands.
  // The commit sequence is:
  //   1. dictionary (only if it grew — it is append-only, so tables on
  //      disk always encode against a superset),
  //   2. per-table page deltas, each fdatasync'd,
  //   3. catalog,
  //   4. SaveManifestAtomic — the rename that flips all page mappings
  //      at once,
  //   5. WAL truncate — the commit point.
  // A crash before 4 recovers from the old manifest plus a full
  // (idempotent) replay; a crash between 4 and 5 from the new manifest
  // plus the same replay, which converges because inserts ignore
  // AlreadyExists and deletes ignore NotFound.
  TraceSpan span(nullptr, "checkpoint", metric_checkpoint_ns_);
  Manifest next = manifest_;
  ++next.checkpoint_seq;
  if (dict_->size() != saved_dict_size_) {
    NF2_RETURN_IF_ERROR(SaveDictionary());
    saved_dict_size_ = dict_->size();
  }
  next.dict_size = dict_->size();
  CheckpointDeltaStats total;
  uint64_t tables_skipped = 0;
  std::set<std::string> live_files;
  for (const std::string& name : catalog_.Names()) {
    NF2_ASSIGN_OR_RETURN(const RelationInfo* info, catalog_.Get(name));
    auto it = relations_.find(name);
    NF2_CHECK(it != relations_.end());
    live_files.insert(info->table_file);
    TableManifest& entry = next.tables[info->table_file];
    if (ckpt_dirty_.count(name) == 0 && !entry.pages.empty()) {
      // Clean since the last checkpoint and already mapped: nothing to
      // diff, nothing to write.
      total.pages_skipped += entry.pages.size();
      ++tables_skipped;
      continue;
    }
    NF2_ASSIGN_OR_RETURN(
        CheckpointDeltaStats stats,
        CheckpointTableDelta(env_, TablePath(info->table_file), info->schema,
                             info->nest_order, it->second.relation(),
                             &entry, next.checkpoint_seq));
    total += stats;
  }
  // A mapping for a file no longer in the catalog (left by a DROP whose
  // manifest save failed) must not survive into the durable manifest.
  for (auto mit = next.tables.begin(); mit != next.tables.end();) {
    if (live_files.count(mit->first) == 0) {
      mit = next.tables.erase(mit);
    } else {
      ++mit;
    }
  }
  NF2_RETURN_IF_ERROR(catalog_.SaveToFile(env_, CatalogPath()));
  // Persist the position the log will be at AFTER the truncate below:
  // Reset() bumps the epoch and keeps next_lsn_, so a recovery that
  // sees this manifest (crash after step 4, or any later reopen of the
  // truncated log) adopts exactly the position a crash-free run holds.
  next.wal_epoch = wal_->epoch() + 1;
  next.wal_base_lsn = wal_->next_lsn();
  NF2_RETURN_IF_ERROR(SaveManifestAtomic(env_, ManifestPath(), next));
  NF2_RETURN_IF_ERROR(wal_->Reset());
  manifest_ = std::move(next);
  ckpt_dirty_.clear();
  ops_since_checkpoint_ = 0;
  last_checkpoint_ns_.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now().time_since_epoch())
                                .count(),
                            std::memory_order_relaxed);
  metric_checkpoints_->Increment();
  if (ckpt_metrics_.pages_written != nullptr && total.pages_written > 0) {
    ckpt_metrics_.pages_written->Increment(total.pages_written);
  }
  if (ckpt_metrics_.pages_skipped != nullptr && total.pages_skipped > 0) {
    ckpt_metrics_.pages_skipped->Increment(total.pages_skipped);
  }
  if (ckpt_metrics_.bytes_written != nullptr && total.bytes_written > 0) {
    ckpt_metrics_.bytes_written->Increment(total.bytes_written);
  }
  if (ckpt_metrics_.tables_skipped != nullptr && tables_skipped > 0) {
    ckpt_metrics_.tables_skipped->Increment(tables_skipped);
  }
  return Status::OK();
}

Status Database::MaybeAutoCheckpoint() {
  if (in_txn_) return Status::OK();
  if (options_.auto_checkpoint_every > 0 &&
      ops_since_checkpoint_ >= options_.auto_checkpoint_every) {
    return Checkpoint();
  }
  return Status::OK();
}

std::string Database::wal_path() const {
  return (std::filesystem::path(dir_) / kWalFile).string();
}

Status Database::VerifyIntegrity() const {
  for (const auto& [name, rel] : relations_) {
    NF2_ASSIGN_OR_RETURN(const RelationInfo* info, catalog_.Get(name));
    NF2_RETURN_IF_ERROR(rel.relation().Validate());
    NfrRelation canonical =
        CanonicalForm(rel.relation().Expand(), info->nest_order);
    if (!rel.relation().EqualsAsSet(canonical)) {
      return Status::Corruption(
          StrCat("relation '", name, "' is not in canonical form"));
    }
    if (!info->fd_set().SatisfiedBy(rel.relation().Expand())) {
      return Status::FailedPrecondition(
          StrCat("relation '", name, "' violates a declared FD"));
    }
  }
  return Status::OK();
}

::nf2::MetricsSnapshot Database::MetricsSnapshot() const {
  // Derived gauges are refreshed lazily, at observation time — keeping
  // them current on every insert would put map lookups on the hot
  // path. They read the PUBLISHED snapshot, not the live maps, so
  // `\metrics` stays lock-free against concurrent writers (and reports
  // committed state, consistent with what snapshot readers see).
  std::shared_ptr<const DatabaseSnapshot> snap = PinSnapshot();
  if (snap != nullptr) {
    if (metric_dict_values_ != nullptr) {
      metric_dict_values_->Set(
          static_cast<int64_t>(snap->dictionary()->size()));
    }
    if (metric_relations_ != nullptr) {
      metric_relations_->Set(static_cast<int64_t>(snap->relation_count()));
    }
  }
  if (snapshot_tracker_ != nullptr) snapshot_tracker_->RefreshGauges();
  return metrics_.Snapshot();
}

Result<UpdateStats> Database::RelationUpdateStats(
    const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound(StrCat("relation '", name, "' not found"));
  }
  return it->second.stats();
}

std::string Database::MetricsText(bool prometheus) const {
  std::shared_ptr<const DatabaseSnapshot> snap = PinSnapshot();
  if (snap != nullptr) {
    if (metric_dict_values_ != nullptr) {
      metric_dict_values_->Set(
          static_cast<int64_t>(snap->dictionary()->size()));
    }
    if (metric_relations_ != nullptr) {
      metric_relations_->Set(static_cast<int64_t>(snap->relation_count()));
    }
  }
  if (snapshot_tracker_ != nullptr) snapshot_tracker_->RefreshGauges();
  return prometheus ? metrics_.ToPrometheusText() : metrics_.ToString();
}

Result<RelationStats> Database::Stats(const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound(StrCat("relation '", name, "' not found"));
  }
  RelationStats stats = ComputeRelationStats(it->second.relation());
  stats.name = name;
  stats.update_stats = it->second.stats();
  stats.dict_values = it->second.dictionary()->size();
  return stats;
}

}  // namespace nf2
