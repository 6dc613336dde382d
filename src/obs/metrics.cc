#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>

#include "util/string_util.h"

namespace nf2 {

uint64_t Histogram::BucketUpperBound(size_t i) {
  if (i + 1 >= kBuckets) return std::numeric_limits<uint64_t>::max();
  return uint64_t{1} << (i + 1);
}

size_t Histogram::BucketIndex(uint64_t ns) {
  if (ns < 2) return 0;
  size_t index = std::bit_width(ns) - 1;
  return std::min(index, kBuckets - 1);
}

double MetricsSnapshot::HistogramValue::Mean() const {
  if (count == 0) return 0.0;
  return static_cast<double>(sum) / static_cast<double>(count);
}

uint64_t MetricsSnapshot::HistogramValue::ApproxQuantile(double q) const {
  if (count == 0) return 0;
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count));
  if (rank >= count) rank = count - 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen > rank) return bounds[i];
  }
  return bounds.empty() ? 0 : bounds.back();
}

uint64_t MetricsSnapshot::counter(std::string_view name) const {
  for (const CounterValue& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

int64_t MetricsSnapshot::gauge(std::string_view name) const {
  for (const GaugeValue& g : gauges) {
    if (g.name == name) return g.value;
  }
  return 0;
}

const MetricsSnapshot::HistogramValue* MetricsSnapshot::histogram(
    std::string_view name) const {
  for (const HistogramValue& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(name, CounterEntry{help, std::make_unique<Counter>()})
             .first;
  }
  return it->second.metric.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, GaugeEntry{help, std::make_unique<Gauge>()})
             .first;
  }
  return it->second.metric.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name,
                      HistogramEntry{help, std::make_unique<Histogram>()})
             .first;
  }
  return it->second.metric.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot out;
  for (const auto& [name, entry] : counters_) {
    out.counters.push_back({name, entry.metric->value()});
  }
  for (const auto& [name, entry] : gauges_) {
    out.gauges.push_back({name, entry.metric->value()});
  }
  for (const auto& [name, entry] : histograms_) {
    MetricsSnapshot::HistogramValue h;
    h.name = name;
    h.count = entry.metric->count();
    h.sum = entry.metric->sum();
    // Keep only the populated prefix structure: empty buckets between
    // populated ones are retained (cumulative rendering needs them),
    // the empty tail is dropped.
    size_t last = 0;
    for (size_t i = 0; i < Histogram::kBuckets; ++i) {
      if (entry.metric->bucket(i) > 0) last = i + 1;
    }
    for (size_t i = 0; i < last; ++i) {
      h.buckets.push_back(entry.metric->bucket(i));
      h.bounds.push_back(Histogram::BucketUpperBound(i));
    }
    out.histograms.push_back(std::move(h));
  }
  return out;
}

namespace {

std::string Fixed(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

/// 1234567 ns -> "1.23ms"; keeps raw ns for small values.
std::string HumanNs(double ns) {
  if (ns >= 1e9) return StrCat(Fixed(ns / 1e9, 2), "s");
  if (ns >= 1e6) return StrCat(Fixed(ns / 1e6, 2), "ms");
  if (ns >= 1e3) return StrCat(Fixed(ns / 1e3, 2), "us");
  return StrCat(Fixed(ns, 0), "ns");
}

/// Histograms named *_ns hold nanoseconds; everything else (batch
/// sizes, counts) renders as a plain number.
std::string HumanHistValue(const std::string& name, double v) {
  if (name.ends_with("_ns")) return HumanNs(v);
  return Fixed(v, v == static_cast<double>(static_cast<int64_t>(v)) ? 0 : 2);
}

}  // namespace

std::string MetricsRegistry::ToString() const {
  MetricsSnapshot snap = Snapshot();
  std::string out;
  for (const auto& c : snap.counters) {
    out += StrCat(c.name, " ", c.value, "\n");
  }
  for (const auto& g : snap.gauges) {
    out += StrCat(g.name, " ", g.value, "\n");
  }
  for (const auto& h : snap.histograms) {
    out += StrCat(
        h.name, " count=", h.count, " mean=", HumanHistValue(h.name, h.Mean()),
        " p50<=",
        HumanHistValue(h.name, static_cast<double>(h.ApproxQuantile(0.5))),
        " p99<=",
        HumanHistValue(h.name, static_cast<double>(h.ApproxQuantile(0.99))),
        "\n");
  }
  return out;
}

std::string MetricsRegistry::ToPrometheusText() const {
  std::string out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, entry] : counters_) {
    if (!entry.help.empty()) {
      out += StrCat("# HELP ", name, " ", entry.help, "\n");
    }
    out += StrCat("# TYPE ", name, " counter\n");
    out += StrCat(name, " ", entry.metric->value(), "\n");
  }
  for (const auto& [name, entry] : gauges_) {
    if (!entry.help.empty()) {
      out += StrCat("# HELP ", name, " ", entry.help, "\n");
    }
    out += StrCat("# TYPE ", name, " gauge\n");
    out += StrCat(name, " ", entry.metric->value(), "\n");
  }
  for (const auto& [name, entry] : histograms_) {
    if (!entry.help.empty()) {
      out += StrCat("# HELP ", name, " ", entry.help, "\n");
    }
    out += StrCat("# TYPE ", name, " histogram\n");
    uint64_t cumulative = 0;
    for (size_t i = 0; i < Histogram::kBuckets; ++i) {
      uint64_t in_bucket = entry.metric->bucket(i);
      cumulative += in_bucket;
      // Emit a sparse ladder: bucket boundaries that hold observations
      // (plus the mandatory +Inf), skipping long empty runs.
      if (in_bucket == 0 && i + 1 < Histogram::kBuckets) continue;
      if (i + 1 < Histogram::kBuckets) {
        out += StrCat(name, "_bucket{le=\"", Histogram::BucketUpperBound(i),
                      "\"} ", cumulative, "\n");
      }
    }
    out += StrCat(name, "_bucket{le=\"+Inf\"} ", entry.metric->count(), "\n");
    out += StrCat(name, "_sum ", entry.metric->sum(), "\n");
    out += StrCat(name, "_count ", entry.metric->count(), "\n");
  }
  return out;
}

CheckpointMetrics CheckpointMetrics::ForRegistry(MetricsRegistry* registry) {
  CheckpointMetrics out;
  if (registry == nullptr) return out;
  out.pages_written = registry->GetCounter(
      "nf2_checkpoint_pages_written_total",
      "pages written by incremental checkpoints");
  out.pages_skipped = registry->GetCounter(
      "nf2_checkpoint_pages_skipped_total",
      "pages skipped by incremental checkpoints (CRC unchanged)");
  out.bytes_written = registry->GetCounter(
      "nf2_checkpoint_bytes_total",
      "bytes written to table files by incremental checkpoints");
  out.tables_skipped = registry->GetCounter(
      "nf2_checkpoint_tables_skipped_total",
      "clean tables skipped wholesale by incremental checkpoints");
  return out;
}

StatementCacheMetrics StatementCacheMetrics::ForRegistry(
    MetricsRegistry* registry) {
  StatementCacheMetrics out;
  if (registry == nullptr) return out;
  out.hits = registry->GetCounter("nf2_stmtcache_hits_total",
                                  "statement-cache hits (parse skipped)");
  out.misses = registry->GetCounter("nf2_stmtcache_misses_total",
                                    "statement-cache misses (full parse)");
  out.evictions = registry->GetCounter(
      "nf2_stmtcache_evictions_total",
      "statement-cache entries evicted by the LRU capacity bound");
  out.invalidations = registry->GetCounter(
      "nf2_stmtcache_invalidations_total",
      "whole-cache invalidations triggered by DDL");
  out.entries = registry->GetGauge("nf2_stmtcache_entries",
                                   "statements currently cached");
  return out;
}

GateMetrics GateMetrics::ForRegistry(MetricsRegistry* registry) {
  GateMetrics out;
  if (registry == nullptr) return out;
  out.shared_acquires = registry->GetCounter(
      "nf2_gate_shared_acquires_total",
      "shared (reader) acquisitions of the engine gate");
  out.write_acquires = registry->GetCounter(
      "nf2_gate_write_acquires_total",
      "exclusive (writer) acquisitions of the engine gate");
  out.write_wait_ns = registry->GetHistogram(
      "nf2_gate_write_wait_ns",
      "time a writer waited to acquire the exclusive gate (ns)");
  return out;
}

UpdatePathMetrics UpdatePathMetrics::ForRegistry(MetricsRegistry* registry) {
  UpdatePathMetrics out;
  if (registry == nullptr) return out;
  out.compositions = registry->GetCounter(
      "nf2_compo_total", "compo() applications (paper Def. 1)");
  out.decompositions = registry->GetCounter(
      "nf2_unnest_total", "unnest() applications (paper Def. 2)");
  out.recons_calls = registry->GetCounter(
      "nf2_recons_total", "invocations of the paper's procedure recons");
  out.candidate_scans = registry->GetCounter(
      "nf2_candt_scans_total", "tuples examined while searching candt");
  out.find_candidate_ns = registry->GetCounter(
      "nf2_candt_ns_total", "wall time inside FindCandidate (ns)");
  out.recons_ns = registry->GetCounter(
      "nf2_recons_ns_total", "wall time inside top-level Recons (ns)");
  return out;
}

}  // namespace nf2
