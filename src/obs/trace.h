#ifndef NF2_OBS_TRACE_H_
#define NF2_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace nf2 {

/// One node of a span tree: a named, timed region with integer
/// attributes (rows in/out, composition counts) and child spans.
struct SpanNode {
  std::string name;
  uint64_t duration_ns = 0;
  std::vector<std::pair<std::string, int64_t>> attrs;
  std::vector<std::unique_ptr<SpanNode>> children;

  SpanNode* AddChild(std::string child_name);
  void AddAttr(std::string key, int64_t value);
};

/// How a span tree is rendered. PROFILE output includes wall times;
/// EXPLAIN output (a plan tree built from the same nodes, never timed)
/// suppresses them so the text is deterministic and golden-testable.
enum class TraceRender { kWithTimes, kPlanOnly };

/// Collects a tree of TraceSpans for one traced request (a PROFILE'd
/// statement). Single-threaded by design: spans open and close in
/// stack order on the executing thread.
class Trace {
 public:
  Trace() : root_(std::make_unique<SpanNode>()) {
    root_->name = "(root)";
    stack_.push_back(root_.get());
  }
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// The synthetic root; its children are the top-level spans.
  const SpanNode& root() const { return *root_; }
  SpanNode* mutable_root() { return root_.get(); }

  /// Box-drawing tree of all top-level spans.
  std::string Render(TraceRender mode = TraceRender::kWithTimes) const;

 private:
  friend class TraceSpan;
  std::unique_ptr<SpanNode> root_;
  std::vector<SpanNode*> stack_;  // Innermost open span last.
};

/// A scoped timer that opens a span on construction and closes it on
/// destruction, recording the elapsed wall time into the span and,
/// optionally, into a registry histogram. A null `trace` (with or
/// without a histogram) makes the span a pure histogram probe; null
/// both is a no-op — instrumented code never needs an if around it.
class TraceSpan {
 public:
  explicit TraceSpan(Trace* trace, std::string name,
                     Histogram* histogram = nullptr);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches an attribute to the open span (ignored when untraced).
  void AddAttr(std::string key, int64_t value);

  /// The underlying span node (null when untraced) — lets callers that
  /// build subtree structure out of band (the query pipeline attaches
  /// per-operator nodes after execution) hang children off this span.
  SpanNode* node() const { return node_; }

  /// Nanoseconds elapsed since construction.
  uint64_t ElapsedNs() const;

 private:
  Trace* trace_;
  SpanNode* node_ = nullptr;  // Null when trace_ is null.
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace nf2

#endif  // NF2_OBS_TRACE_H_
