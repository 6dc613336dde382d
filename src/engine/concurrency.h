#ifndef NF2_ENGINE_CONCURRENCY_H_
#define NF2_ENGINE_CONCURRENCY_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "nfrql/ast.h"
#include "obs/metrics.h"

namespace nf2 {

/// Reader/writer gate over one Database — the writer-serialization
/// layer the server (src/server/) drives, usable on its own by any
/// embedder.
///
/// Locking discipline (DESIGN.md §8/§9): every mutating statement —
/// including BEGIN/COMMIT/ROLLBACK and CHECKPOINT — serializes under
/// the exclusive lock for the duration of that one statement. Theorem
/// A-4 is what makes the single writer lock viable: the §4 composition
/// count per insert/delete is bounded by a function of the degree
/// alone, independent of |R|, so writer critical sections stay short
/// no matter how large the relation grows.
///
/// Statements classified read-only by IsReadOnlyStatement do NOT come
/// here at all since the MVCC snapshot read path landed: they pin an
/// immutable DatabaseSnapshot (engine/snapshot.h) and execute with
/// zero gate traffic. The shared mode is retained for embedders that
/// want to freeze the live engine state briefly (the server's shutdown
/// sequence peeks at open transactions this way), so the gate keeps
/// its writer preference: a waiting writer bars new shared entrants,
/// bounding writer admission by the holders already in flight.
///
/// Writer-side obligation: never write memory a published snapshot
/// can reach. Database::PublishSnapshot() shares chunks with the writer
/// (core/cow_vector.h), and the writer clones a shared chunk before its
/// first write to it, so snapshot readers see only genuinely immutable
/// data. Nothing lazy needs forcing first: snapshot readers ask their
/// dictionary copy only what DictionaryView offers (Find, value, size),
/// and the rank table stays lazy on the writer.
class EngineGate {
 public:
  EngineGate() = default;
  EngineGate(const EngineGate&) = delete;
  EngineGate& operator=(const EngineGate&) = delete;

  /// RAII guard for one reader; unlocks on destruction.
  class SharedLock {
   public:
    explicit SharedLock(EngineGate* gate) : gate_(gate) {
      gate_->AcquireShared();
    }
    ~SharedLock() {
      if (gate_ != nullptr) gate_->ReleaseShared();
    }
    SharedLock(SharedLock&& other) noexcept : gate_(other.gate_) {
      other.gate_ = nullptr;
    }
    SharedLock(const SharedLock&) = delete;
    SharedLock& operator=(const SharedLock&) = delete;
    SharedLock& operator=(SharedLock&&) = delete;

   private:
    EngineGate* gate_;
  };

  /// RAII guard for the writer; unlocks on destruction.
  class ExclusiveLock {
   public:
    explicit ExclusiveLock(EngineGate* gate) : gate_(gate) {
      gate_->AcquireExclusive();
    }
    ~ExclusiveLock() {
      if (gate_ != nullptr) gate_->ReleaseExclusive();
    }
    ExclusiveLock(ExclusiveLock&& other) noexcept : gate_(other.gate_) {
      other.gate_ = nullptr;
    }
    ExclusiveLock(const ExclusiveLock&) = delete;
    ExclusiveLock& operator=(const ExclusiveLock&) = delete;
    ExclusiveLock& operator=(ExclusiveLock&&) = delete;

   private:
    EngineGate* gate_;
  };

  /// Shared (reader) lock — held for the duration of one read-only
  /// statement.
  SharedLock LockShared() { return SharedLock(this); }

  /// Exclusive (writer) lock — held for the duration of one mutating
  /// statement.
  ExclusiveLock LockExclusive() { return ExclusiveLock(this); }

  /// Mirrors acquisitions (and writer wait time) into the given metric
  /// handles. Call before the gate sees traffic; an all-null set (the
  /// default) records nothing.
  void set_metrics(const GateMetrics& metrics) { metrics_ = metrics; }

 private:
  void AcquireShared();
  void ReleaseShared();
  void AcquireExclusive();
  void ReleaseExclusive();

  std::mutex mu_;
  std::condition_variable reader_cv_;
  std::condition_variable writer_cv_;
  // All guarded by mu_.
  uint64_t active_readers_ = 0;
  uint64_t waiting_writers_ = 0;
  bool writer_active_ = false;
  GateMetrics metrics_;  // Handles are themselves thread-safe.
};

/// True when executing `stmt` cannot mutate engine state, so it may run
/// under a shared lock: SELECT, SHOW, DESCRIBE, NEST/UNNEST views,
/// LIST, STATS, and EXPLAIN of anything (EXPLAIN never executes).
/// PROFILE executes its inner statement and classifies as that
/// statement does. Everything else — INSERT/DELETE/UPDATE, DDL,
/// CHECKPOINT, BEGIN/COMMIT/ROLLBACK — requires the exclusive lock.
bool IsReadOnlyStatement(const Statement& stmt);

}  // namespace nf2

#endif  // NF2_ENGINE_CONCURRENCY_H_
