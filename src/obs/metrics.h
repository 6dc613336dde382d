#ifndef NF2_OBS_METRICS_H_
#define NF2_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace nf2 {

/// A monotonically increasing counter. Increment is a relaxed atomic
/// add — safe under concurrent writers, never allocating, never
/// locking. Relaxed ordering is deliberate: metrics are statistical
/// observations, not synchronization points.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A gauge: a value that can go up and down (resident pages, dictionary
/// size). Set/Add are relaxed atomics like Counter.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A fixed-bucket latency histogram over nanosecond observations.
/// Buckets are powers of two: bucket i counts observations in
/// [2^i, 2^(i+1)) ns, with the first bucket absorbing [0, 2) and the
/// last absorbing everything >= 2^(kBuckets-1) (~34 s). Observe is a
/// handful of relaxed atomic adds — no locks, no allocation.
class Histogram {
 public:
  static constexpr size_t kBuckets = 36;

  void Observe(uint64_t ns) {
    buckets_[BucketIndex(ns)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(ns, std::memory_order_relaxed);
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Inclusive upper bound of bucket `i` (UINT64_MAX for the last).
  static uint64_t BucketUpperBound(size_t i);
  /// Index of the bucket an observation of `ns` lands in.
  static size_t BucketIndex(uint64_t ns);

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// A point-in-time copy of every metric in a registry, with by-name
/// lookup — what `Database::MetricsSnapshot()` hands to benchmarks and
/// what the text renderers are generated from.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    int64_t value = 0;
  };
  struct HistogramValue {
    std::string name;
    uint64_t count = 0;
    uint64_t sum = 0;
    std::vector<uint64_t> buckets;  // Non-empty buckets only: see bounds.
    std::vector<uint64_t> bounds;   // Upper bound per retained bucket.

    /// sum / count (0 when empty).
    double Mean() const;
    /// Upper bound of the bucket containing quantile q in [0, 1].
    uint64_t ApproxQuantile(double q) const;
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  /// Value of a counter by name; 0 when absent.
  uint64_t counter(std::string_view name) const;
  /// Value of a gauge by name; 0 when absent.
  int64_t gauge(std::string_view name) const;
  /// Histogram by name; nullptr when absent.
  const HistogramValue* histogram(std::string_view name) const;
};

/// A registry of named metrics. Registration (GetCounter & co.) takes a
/// mutex and may allocate; it is meant to run once at wiring time, with
/// the returned pointer cached by the instrumented component — the
/// pointers are stable for the registry's lifetime, and the hot-path
/// operations on them are lock-free and allocation-free.
///
/// Names follow the Prometheus convention: `nf2_<area>_<what>[_total]`,
/// snake_case, with `_ns` marking nanosecond-valued metrics (see
/// DESIGN.md §7 for the catalog and the text-exposition caveats).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the counter registered under `name`, creating it on first
  /// use. `help` is kept from the first registration.
  Counter* GetCounter(const std::string& name, const std::string& help = "");
  Gauge* GetGauge(const std::string& name, const std::string& help = "");
  Histogram* GetHistogram(const std::string& name,
                          const std::string& help = "");

  /// A consistent-enough copy of every metric (each value is read
  /// atomically; the set is not a global atomic snapshot).
  MetricsSnapshot Snapshot() const;

  /// Human-readable dump, one metric per line, histograms with
  /// count/mean/p50/p99.
  std::string ToString() const;

  /// Prometheus text exposition format (version 0.0.4): HELP/TYPE
  /// headers, cumulative `_bucket{le=...}` series for histograms.
  std::string ToPrometheusText() const;

 private:
  struct CounterEntry {
    std::string help;
    std::unique_ptr<Counter> metric;
  };
  struct GaugeEntry {
    std::string help;
    std::unique_ptr<Gauge> metric;
  };
  struct HistogramEntry {
    std::string help;
    std::unique_ptr<Histogram> metric;
  };

  mutable std::mutex mu_;
  std::map<std::string, CounterEntry> counters_;
  std::map<std::string, GaugeEntry> gauges_;
  std::map<std::string, HistogramEntry> histograms_;
};

/// Pre-resolved counter handles for the incremental checkpoint path
/// (storage/checkpoint.h). Null pointers are skipped, so the delta
/// writer can run without a registry (unit tests).
struct CheckpointMetrics {
  Counter* pages_written = nullptr;   // nf2_checkpoint_pages_written_total
  Counter* pages_skipped = nullptr;   // nf2_checkpoint_pages_skipped_total
  Counter* bytes_written = nullptr;   // nf2_checkpoint_bytes_total
  Counter* tables_skipped = nullptr;  // nf2_checkpoint_tables_skipped_total

  /// Handles bound to the canonical nf2_checkpoint_* names in `registry`.
  static CheckpointMetrics ForRegistry(MetricsRegistry* registry);
};

/// Pre-resolved handles for the server's parsed-statement cache
/// (server/session.h). Null pointers are skipped, so a cache built
/// without a registry (unit tests) records nothing.
struct StatementCacheMetrics {
  Counter* hits = nullptr;           // nf2_stmtcache_hits_total
  Counter* misses = nullptr;         // nf2_stmtcache_misses_total
  Counter* evictions = nullptr;      // nf2_stmtcache_evictions_total
  Counter* invalidations = nullptr;  // nf2_stmtcache_invalidations_total
  Gauge* entries = nullptr;          // nf2_stmtcache_entries

  /// Handles bound to the canonical nf2_stmtcache_* names in `registry`.
  static StatementCacheMetrics ForRegistry(MetricsRegistry* registry);
};

/// Pre-resolved handles for the EngineGate (engine/concurrency.h).
/// Null pointers are skipped, so a gate built without a registry
/// (tests, embedders) records nothing. Since the snapshot read path
/// landed, read-only statements acquire NO gate mode at all — these
/// counters are how tests assert that (a read-only batch leaves both
/// acquire counters unchanged).
struct GateMetrics {
  Counter* shared_acquires = nullptr;  // nf2_gate_shared_acquires_total
  Counter* write_acquires = nullptr;   // nf2_gate_write_acquires_total
  Histogram* write_wait_ns = nullptr;  // nf2_gate_write_wait_ns

  /// Handles bound to the canonical nf2_gate_* names in `registry`.
  static GateMetrics ForRegistry(MetricsRegistry* registry);
};

/// Pre-resolved counter handles for the §4 update hot paths
/// (CanonicalRelation). Null pointers are skipped, so a relation
/// without a registry (unit tests, ad-hoc algebra) pays one branch.
struct UpdatePathMetrics {
  Counter* compositions = nullptr;     // nf2_compo_total
  Counter* decompositions = nullptr;   // nf2_unnest_total
  Counter* recons_calls = nullptr;     // nf2_recons_total
  Counter* candidate_scans = nullptr;  // nf2_candt_scans_total
  Counter* find_candidate_ns = nullptr;  // nf2_candt_ns_total
  Counter* recons_ns = nullptr;          // nf2_recons_ns_total

  /// Handles bound to the canonical §4 metric names in `registry`.
  static UpdatePathMetrics ForRegistry(MetricsRegistry* registry);
};

}  // namespace nf2

#endif  // NF2_OBS_METRICS_H_
