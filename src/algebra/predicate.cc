#include "algebra/predicate.h"

#include "util/logging.h"
#include "util/string_util.h"

namespace nf2 {

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

namespace {
enum class NodeKind { kTrue, kCompare, kAnd, kOr, kNot };

bool ApplyOp(CompareOp op, const Value& lhs, const Value& rhs) {
  int c = lhs.Compare(rhs);
  switch (op) {
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kNe:
      return c != 0;
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kGe:
      return c >= 0;
  }
  return false;
}

/// The comparison that holds exactly when `op` does not.
CompareOp Negate(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return CompareOp::kNe;
    case CompareOp::kNe:
      return CompareOp::kEq;
    case CompareOp::kLt:
      return CompareOp::kGe;
    case CompareOp::kLe:
      return CompareOp::kGt;
    case CompareOp::kGt:
      return CompareOp::kLe;
    case CompareOp::kGe:
      return CompareOp::kLt;
  }
  return op;
}
}  // namespace

struct Predicate::Node {
  NodeKind kind = NodeKind::kTrue;
  // kCompare:
  size_t attr = 0;
  CompareOp op = CompareOp::kEq;
  Value value;
  // kAnd/kOr/kNot:
  std::shared_ptr<const Node> left;
  std::shared_ptr<const Node> right;
};

Predicate Predicate::Compare(size_t attr, CompareOp op, Value value) {
  auto node = std::make_shared<Node>();
  node->kind = NodeKind::kCompare;
  node->attr = attr;
  node->op = op;
  node->value = std::move(value);
  return Predicate(std::move(node));
}

Predicate Predicate::And(Predicate a, Predicate b) {
  auto node = std::make_shared<Node>();
  node->kind = NodeKind::kAnd;
  node->left = std::move(a.node_);
  node->right = std::move(b.node_);
  return Predicate(std::move(node));
}

Predicate Predicate::Or(Predicate a, Predicate b) {
  auto node = std::make_shared<Node>();
  node->kind = NodeKind::kOr;
  node->left = std::move(a.node_);
  node->right = std::move(b.node_);
  return Predicate(std::move(node));
}

Predicate Predicate::Not(Predicate a) {
  auto node = std::make_shared<Node>();
  node->kind = NodeKind::kNot;
  node->left = std::move(a.node_);
  return Predicate(std::move(node));
}

Predicate Predicate::True() { return Predicate(std::make_shared<Node>()); }

bool Predicate::EvalFlat(const FlatTuple& t) const {
  struct Impl {
    static bool Eval(const Node* node, const FlatTuple& t) {
      switch (node->kind) {
        case NodeKind::kTrue:
          return true;
        case NodeKind::kCompare:
          NF2_CHECK(node->attr < t.degree())
              << "predicate attribute out of range";
          return ApplyOp(node->op, t.at(node->attr), node->value);
        case NodeKind::kAnd:
          return Eval(node->left.get(), t) && Eval(node->right.get(), t);
        case NodeKind::kOr:
          return Eval(node->left.get(), t) || Eval(node->right.get(), t);
        case NodeKind::kNot:
          return !Eval(node->left.get(), t);
      }
      return false;
    }
  };
  return Impl::Eval(node_.get(), t);
}

bool Predicate::EvalNfrAny(const NfrTuple& t) const {
  // NOT is pushed down to the leaves (De Morgan, and `NOT A < v` is
  // `A >= v`), so every leaf asks "does some value satisfy it" of the
  // comparison a row would actually face. Negating an existential leaf
  // instead would ask "does no value satisfy it", which rejects a
  // tuple as soon as one of its values fails the comparison.
  struct Impl {
    static bool Eval(const Node* node, const NfrTuple& t, bool negated) {
      switch (node->kind) {
        case NodeKind::kTrue:
          return !negated;
        case NodeKind::kCompare: {
          NF2_CHECK(node->attr < t.degree())
              << "predicate attribute out of range";
          const CompareOp op = negated ? Negate(node->op) : node->op;
          for (const Value& v : t.at(node->attr).values()) {
            if (ApplyOp(op, v, node->value)) return true;
          }
          return false;
        }
        case NodeKind::kAnd:
        case NodeKind::kOr:
          if ((node->kind == NodeKind::kAnd) != negated) {
            return Eval(node->left.get(), t, negated) &&
                   Eval(node->right.get(), t, negated);
          }
          return Eval(node->left.get(), t, negated) ||
                 Eval(node->right.get(), t, negated);
        case NodeKind::kNot:
          return Eval(node->left.get(), t, !negated);
      }
      return false;
    }
  };
  return Impl::Eval(node_.get(), t, /*negated=*/false);
}

bool Predicate::MatchesExpansion(const NfrTuple& t) const {
  for (const FlatTuple& flat : t.Expand()) {
    if (EvalFlat(flat)) return true;
  }
  return false;
}

size_t Predicate::MaxAttr() const {
  struct Impl {
    static size_t Max(const Node* node) {
      switch (node->kind) {
        case NodeKind::kTrue:
          return 0;
        case NodeKind::kCompare:
          return node->attr;
        case NodeKind::kAnd:
        case NodeKind::kOr:
          return std::max(Max(node->left.get()), Max(node->right.get()));
        case NodeKind::kNot:
          return Max(node->left.get());
      }
      return 0;
    }
  };
  return Impl::Max(node_.get());
}

std::optional<size_t> Predicate::SoleAttr() const {
  struct Impl {
    // Folds every comparison's attribute into `attr`; false once two
    // differ.
    static bool Same(const Node* node, std::optional<size_t>* attr) {
      switch (node->kind) {
        case NodeKind::kTrue:
          return true;
        case NodeKind::kCompare:
          if (attr->has_value() && **attr != node->attr) return false;
          *attr = node->attr;
          return true;
        case NodeKind::kAnd:
        case NodeKind::kOr:
          return Same(node->left.get(), attr) &&
                 Same(node->right.get(), attr);
        case NodeKind::kNot:
          return Same(node->left.get(), attr);
      }
      return false;
    }
  };
  std::optional<size_t> attr;
  return Impl::Same(node_.get(), &attr) ? attr : std::nullopt;
}

bool Predicate::EvalValue(const Value& v) const {
  struct Impl {
    static bool Eval(const Node* node, const Value& v) {
      switch (node->kind) {
        case NodeKind::kTrue:
          return true;
        case NodeKind::kCompare:
          return ApplyOp(node->op, v, node->value);
        case NodeKind::kAnd:
          return Eval(node->left.get(), v) && Eval(node->right.get(), v);
        case NodeKind::kOr:
          return Eval(node->left.get(), v) || Eval(node->right.get(), v);
        case NodeKind::kNot:
          return !Eval(node->left.get(), v);
      }
      return false;
    }
  };
  return Impl::Eval(node_.get(), v);
}

std::string Predicate::ToString(const Schema& schema) const {
  struct Impl {
    static std::string Str(const Node* node, const Schema& schema) {
      switch (node->kind) {
        case NodeKind::kTrue:
          return "TRUE";
        case NodeKind::kCompare: {
          std::string name = node->attr < schema.degree()
                                 ? schema.attribute(node->attr).name
                                 : StrCat("#", node->attr);
          return StrCat(name, " ", CompareOpToString(node->op), " ",
                        node->value.ToString());
        }
        case NodeKind::kAnd:
          return StrCat("(", Str(node->left.get(), schema), " AND ",
                        Str(node->right.get(), schema), ")");
        case NodeKind::kOr:
          return StrCat("(", Str(node->left.get(), schema), " OR ",
                        Str(node->right.get(), schema), ")");
        case NodeKind::kNot:
          return StrCat("NOT ", Str(node->left.get(), schema));
      }
      return "?";
    }
  };
  return Impl::Str(node_.get(), schema);
}

}  // namespace nf2
