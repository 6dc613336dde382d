#ifndef NF2_ENGINE_SNAPSHOT_H_
#define NF2_ENGINE_SNAPSHOT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "core/update.h"
#include "engine/statistics.h"
#include "obs/metrics.h"
#include "util/result.h"

namespace nf2 {

/// Bookkeeping shared by a Database and every snapshot it has
/// published: which snapshot versions are still alive (pinned by the
/// database itself or by in-flight readers) and when each was
/// published, surfaced as the nf2_snapshot_{pinned,oldest_age_ms}
/// gauges. Registration happens in DatabaseSnapshot's constructor /
/// destructor, so "alive" is exactly "some shared_ptr still holds it".
///
/// Thread-safe: publish runs on a writer while readers drop pins
/// concurrently. The mutex guards only this small map — never the data
/// path.
class SnapshotTracker {
 public:
  SnapshotTracker() = default;
  SnapshotTracker(const SnapshotTracker&) = delete;
  SnapshotTracker& operator=(const SnapshotTracker&) = delete;

  /// Binds the gauges the tracker refreshes; null handles are skipped.
  void BindGauges(Gauge* pinned, Gauge* oldest_age_ms);

  void Register(uint64_t version);
  void Unregister(uint64_t version);

  /// Recomputes both gauges from the live set — called at metrics
  /// observation time, not on the pin/unpin hot path.
  void RefreshGauges();

  /// Number of snapshot versions currently alive.
  size_t alive() const;

 private:
  mutable std::mutex mu_;
  std::map<uint64_t, std::chrono::steady_clock::time_point> live_;
  Gauge* pinned_ = nullptr;
  Gauge* oldest_age_ms_ = nullptr;
};

/// An immutable, consistent view of a whole Database at one publish
/// point — what read-only statements execute against (DESIGN.md §9).
///
/// Structure: relation name → shared RelationVersion (catalog info +
/// the canonical NFR as of the publish), plus the frozen dictionary
/// those relations' interned ids resolve through. Publishing is
/// copy-on-write at three levels: a relation untouched since the
/// previous snapshot shares its RelationVersion pointer; a mutated one
/// is copied, and the copy shares every chunk of its tuples, encoded
/// mirror and index postings the commit did not touch
/// (core/cow_vector.h); inside a chunk the writer did clone, every
/// component set is still shared (ValueSet's COW rep). The dictionary
/// is copied the same way, so a publish costs chunk pointers plus the
/// chunks the commit touched, never a pass over |R|.
///
/// Concurrency contract: everything reachable from a snapshot is
/// immutable — its chunks are ones the writer will never write again
/// (it clones a shared chunk on its first write), the dictionary is a
/// copy readers ask only Find, value and size (its rank cache is empty
/// and would be filled by a write), and point and range queries go
/// through the index in id space (the narrowing leaf's PostingsById
/// and ContainingInRange with the frozen dictionary) rather than any
/// live structure. Pinning is one atomic shared_ptr load; dropping the
/// last pin frees the version. A snapshot must not outlive its Database
/// (it holds metric handles into the database's registry, like
/// Database::Relation() pointers always have).
class DatabaseSnapshot {
 public:
  /// One relation as of the publish point.
  struct RelationVersion {
    RelationInfo info;
    std::shared_ptr<const CanonicalRelation> relation;
  };
  using VersionMap =
      std::map<std::string, std::shared_ptr<const RelationVersion>>;

  DatabaseSnapshot(uint64_t version, VersionMap relations,
                   std::shared_ptr<const ValueDictionary> dictionary,
                   std::shared_ptr<SnapshotTracker> tracker,
                   uint64_t wal_epoch = 0, uint64_t wal_lsn = 0);
  ~DatabaseSnapshot();
  DatabaseSnapshot(const DatabaseSnapshot&) = delete;
  DatabaseSnapshot& operator=(const DatabaseSnapshot&) = delete;

  /// Monotone publish sequence number (1 = the snapshot Recover()
  /// publishes).
  uint64_t version() const { return version_; }

  /// WAL position (epoch, last applied lsn) at publish — how far the
  /// durable log this snapshot reflects had advanced. A follower
  /// reports these as its replication position (`\replica`).
  uint64_t wal_epoch() const { return wal_epoch_; }
  uint64_t wal_lsn() const { return wal_lsn_; }

  /// The frozen dictionary (never null; may be empty). Readers ask it
  /// only what DictionaryView offers (Find, value, size) — the view
  /// CatalogView hands the planner.
  const std::shared_ptr<const ValueDictionary>& dictionary() const {
    return dictionary_;
  }

  // Read API mirroring Database, answered entirely from this snapshot.

  /// Names of all relations, sorted (map order).
  std::vector<std::string> ListRelations() const;

  /// Catalog metadata for `name`.
  Result<const RelationInfo*> Info(const std::string& name) const;

  /// The stored canonical NFR (valid for the snapshot's lifetime).
  Result<const NfrRelation*> Relation(const std::string& name) const;

  /// Size/maintenance statistics as of the publish point.
  Result<RelationStats> Stats(const std::string& name) const;

  size_t relation_count() const { return relations_.size(); }

  /// The shared version entry for `name`, or null when absent — what
  /// Database::PublishSnapshot() reuses for relations untouched since
  /// this snapshot (the COW share).
  std::shared_ptr<const RelationVersion> FindVersion(
      const std::string& name) const;

 private:
  Result<const RelationVersion*> Find(const std::string& name) const;

  const uint64_t version_;
  const uint64_t wal_epoch_;
  const uint64_t wal_lsn_;
  const VersionMap relations_;
  const std::shared_ptr<const ValueDictionary> dictionary_;
  const std::shared_ptr<SnapshotTracker> tracker_;
};

}  // namespace nf2

#endif  // NF2_ENGINE_SNAPSHOT_H_
