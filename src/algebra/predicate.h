#ifndef NF2_ALGEBRA_PREDICATE_H_
#define NF2_ALGEBRA_PREDICATE_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/schema.h"
#include "core/tuple.h"

namespace nf2 {

/// Comparison operators for predicate leaves.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CompareOpToString(CompareOp op);

/// A boolean expression tree over tuples: comparisons of one attribute
/// against a constant, combined with AND/OR/NOT.
///
/// Evaluation has two semantics:
///  - EvalFlat: ordinary 1NF evaluation.
///  - EvalNfrAny: an over-approximation of "SOME simple tuple in the
///    NFR tuple's expansion satisfies the predicate" — never false when
///    one does. NOT is pushed down to the comparisons (De Morgan, and
///    `NOT A < v` is `A >= v`); each comparison then holds when some
///    value of its component satisfies it. The answer is exact when
///    every AND joins sub-predicates over disjoint attributes (the
///    expansion is a cross product, so per-attribute existence is
///    independent); `A = a1 AND A = a2` on A = {a1, a2} answers true
///    although no row satisfies it. MatchesExpansion tests the
///    expansion exactly.
class Predicate {
 public:
  /// Leaf: attribute `attr` compared against `value`.
  static Predicate Compare(size_t attr, CompareOp op, Value value);
  static Predicate Eq(size_t attr, Value value) {
    return Compare(attr, CompareOp::kEq, std::move(value));
  }
  static Predicate Ne(size_t attr, Value value) {
    return Compare(attr, CompareOp::kNe, std::move(value));
  }
  static Predicate Lt(size_t attr, Value value) {
    return Compare(attr, CompareOp::kLt, std::move(value));
  }
  static Predicate Le(size_t attr, Value value) {
    return Compare(attr, CompareOp::kLe, std::move(value));
  }
  static Predicate Gt(size_t attr, Value value) {
    return Compare(attr, CompareOp::kGt, std::move(value));
  }
  static Predicate Ge(size_t attr, Value value) {
    return Compare(attr, CompareOp::kGe, std::move(value));
  }

  /// Connectives.
  static Predicate And(Predicate a, Predicate b);
  static Predicate Or(Predicate a, Predicate b);
  static Predicate Not(Predicate a);

  /// The always-true predicate (selects everything).
  static Predicate True();

  /// 1NF evaluation.
  bool EvalFlat(const FlatTuple& t) const;

  /// Existential NFR evaluation, an over-approximation (see class
  /// comment for when it is exact).
  bool EvalNfrAny(const NfrTuple& t) const;

  /// Exact existential check by expanding `t`. Exponential in the
  /// number of compound components; components of NFR tuples are small
  /// in practice.
  bool MatchesExpansion(const NfrTuple& t) const;

  /// Largest attribute index referenced (0 when none).
  size_t MaxAttr() const;

  /// The one attribute every comparison references, or nullopt when
  /// the comparisons reference two or more (or there are none).
  std::optional<size_t> SoleAttr() const;

  /// EvalFlat of a predicate over SoleAttr() alone, on a row holding
  /// `v` at that attribute: every comparison reads `v`. Narrowing a
  /// component to the values this admits selects exactly (Theorem 1).
  bool EvalValue(const Value& v) const;

  /// "(A = s1 AND B < 4)"-style rendering.
  std::string ToString(const Schema& schema) const;

 private:
  struct Node;
  explicit Predicate(std::shared_ptr<const Node> node)
      : node_(std::move(node)) {}

  std::shared_ptr<const Node> node_;
};

}  // namespace nf2

#endif  // NF2_ALGEBRA_PREDICATE_H_
