#ifndef NF2_CORE_TUPLE_H_
#define NF2_CORE_TUPLE_H_

#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <string>
#include <vector>

#include "core/schema.h"
#include "core/value.h"
#include "core/value_set.h"

namespace nf2 {

/// An ordinary 1NF tuple `[D1(e1) ... Dn(en)]`: one atomic value per
/// attribute. The paper calls these "simple tuples"; the unique 1NF
/// relation underlying an NFR R is written R* (Theorem 1).
class FlatTuple {
 public:
  FlatTuple() = default;
  explicit FlatTuple(std::vector<Value> values) : values_(std::move(values)) {}
  FlatTuple(std::initializer_list<Value> values) : values_(values) {}

  size_t degree() const { return values_.size(); }
  const std::vector<Value>& values() const { return values_; }
  const Value& at(size_t i) const;
  Value& at(size_t i);

  bool operator==(const FlatTuple& other) const {
    return values_ == other.values_;
  }
  bool operator!=(const FlatTuple& other) const {
    return values_ != other.values_;
  }
  /// Lexicographic order; used to keep FlatRelation canonical.
  bool operator<(const FlatTuple& other) const;

  size_t Hash() const;

  /// "(s1, c1, b1)"-style rendering.
  std::string ToString() const;

 private:
  std::vector<Value> values_;
};

std::ostream& operator<<(std::ostream& os, const FlatTuple& tuple);

/// An NFR tuple `[E1(e11,...,e1r1) ... En(en1,...,enrn)]` (§3.1): one
/// non-empty *set* of atomic values per attribute. It denotes the set of
/// simple tuples obtained by picking one element per component — i.e.
/// its expansion is the full cross product of the component sets.
class NfrTuple {
 public:
  NfrTuple() = default;
  explicit NfrTuple(std::vector<ValueSet> components)
      : components_(std::move(components)) {}
  NfrTuple(std::initializer_list<ValueSet> components)
      : components_(components) {}

  /// Promotes a simple tuple to an all-singleton NFR tuple.
  static NfrTuple FromFlat(const FlatTuple& flat);

  size_t degree() const { return components_.size(); }
  const std::vector<ValueSet>& components() const { return components_; }
  const ValueSet& at(size_t i) const;
  ValueSet& at(size_t i);

  /// True when every component is a singleton (a simple tuple in NFR
  /// clothing).
  bool IsSimple() const;

  /// True when every component is non-empty (an invariant of well-formed
  /// NFR tuples; decomposition must never produce an empty component).
  bool IsWellFormed() const;

  /// Number of simple tuples this tuple denotes: the product of
  /// component sizes. May be large; saturates at uint64 max.
  uint64_t ExpandedCount() const;

  /// All denoted simple tuples, in lexicographic order.
  std::vector<FlatTuple> Expand() const;

  /// True when `flat` is one of the denoted simple tuples, i.e. each of
  /// its values is a member of the corresponding component.
  bool ExpansionContains(const FlatTuple& flat) const;

  /// Def. 1 precondition: this and `other` are set-theoretically equal on
  /// every component except position `c`.
  bool AgreesExcept(const NfrTuple& other, size_t c) const;

  /// True when each component of this tuple is a subset of `other`'s.
  bool IsComponentwiseSubsetOf(const NfrTuple& other) const;

  bool operator==(const NfrTuple& other) const {
    return components_ == other.components_;
  }
  bool operator!=(const NfrTuple& other) const {
    return components_ != other.components_;
  }
  /// Lexicographic order on components; gives relations a canonical
  /// printing/comparison order.
  bool operator<(const NfrTuple& other) const;

  size_t Hash() const;

  /// Paper-style rendering with attribute names:
  /// "[Student(s2,s3) Course(c1,c2)]". Without a schema, positions are
  /// rendered as E1..En.
  std::string ToString(const Schema& schema) const;
  std::string ToString() const;

 private:
  std::vector<ValueSet> components_;
};

std::ostream& operator<<(std::ostream& os, const NfrTuple& tuple);

}  // namespace nf2

namespace std {
template <>
struct hash<nf2::FlatTuple> {
  size_t operator()(const nf2::FlatTuple& t) const { return t.Hash(); }
};
template <>
struct hash<nf2::NfrTuple> {
  size_t operator()(const nf2::NfrTuple& t) const { return t.Hash(); }
};
}  // namespace std

#endif  // NF2_CORE_TUPLE_H_
