#include "obs/trace.h"

#include <cstdio>

#include "util/logging.h"
#include "util/string_util.h"

namespace nf2 {

SpanNode* SpanNode::AddChild(std::string child_name) {
  children.push_back(std::make_unique<SpanNode>());
  children.back()->name = std::move(child_name);
  return children.back().get();
}

void SpanNode::AddAttr(std::string key, int64_t value) {
  attrs.emplace_back(std::move(key), value);
}

namespace {

std::string HumanNs(uint64_t ns) {
  char buf[64];
  double v = static_cast<double>(ns);
  if (v >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2fs", v / 1e9);
  } else if (v >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fms", v / 1e6);
  } else if (v >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fus", v / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%lluns",
                  static_cast<unsigned long long>(ns));
  }
  return buf;
}

void RenderNode(const SpanNode& node, const std::string& prefix,
                bool is_last, bool is_root, TraceRender mode,
                std::string* out) {
  if (!is_root) {
    *out += prefix;
    *out += is_last ? "└─ " : "├─ ";
  }
  *out += node.name;
  if (mode == TraceRender::kWithTimes) {
    *out += StrCat(" [", HumanNs(node.duration_ns), "]");
  }
  for (const auto& [key, value] : node.attrs) {
    *out += StrCat(" ", key, "=", value);
  }
  *out += "\n";
  std::string child_prefix =
      is_root ? prefix : StrCat(prefix, is_last ? "   " : "│  ");
  for (size_t i = 0; i < node.children.size(); ++i) {
    RenderNode(*node.children[i], child_prefix,
               i + 1 == node.children.size(), /*is_root=*/false, mode, out);
  }
}

}  // namespace

std::string Trace::Render(TraceRender mode) const {
  std::string out;
  for (const auto& child : root_->children) {
    // Each top-level span prints flush-left as its own tree.
    RenderNode(*child, "", /*is_last=*/true, /*is_root=*/true, mode, &out);
  }
  return out;
}

TraceSpan::TraceSpan(Trace* trace, std::string name, Histogram* histogram)
    : trace_(trace),
      histogram_(histogram),
      start_(std::chrono::steady_clock::now()) {
  if (trace_ != nullptr) {
    NF2_CHECK(!trace_->stack_.empty());
    node_ = trace_->stack_.back()->AddChild(std::move(name));
    trace_->stack_.push_back(node_);
  }
}

TraceSpan::~TraceSpan() {
  uint64_t elapsed = ElapsedNs();
  if (node_ != nullptr) {
    node_->duration_ns = elapsed;
    NF2_CHECK(trace_->stack_.back() == node_)
        << "TraceSpan destruction out of stack order";
    trace_->stack_.pop_back();
  }
  if (histogram_ != nullptr) {
    histogram_->Observe(elapsed);
  }
}

void TraceSpan::AddAttr(std::string key, int64_t value) {
  if (node_ != nullptr) {
    node_->AddAttr(std::move(key), value);
  }
}

uint64_t TraceSpan::ElapsedNs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

}  // namespace nf2
