#ifndef NF2_CORE_VALUE_SET_H_
#define NF2_CORE_VALUE_SET_H_

#include <initializer_list>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/value.h"

namespace nf2 {

/// A finite set of atomic values — one tuple component of an NFR tuple
/// (the `Ei(ei1, ..., eiri)` pieces of the paper's notation, §3.1).
///
/// Logically a sorted, duplicate-free vector: NFR components are small
/// in practice, and the sorted representation makes set-equality (the
/// precondition of composition, Def. 1) a linear scan and keeps the
/// printed form canonical.
///
/// Physically copy-on-write: the element vector lives behind a
/// shared_ptr-to-const, so copying a ValueSet is a refcount bump and
/// copying an NFR tuple shares every component instead of deep-copying
/// it. This is the innermost of the three copy-on-write levels a
/// snapshot publish rests on (DESIGN.md §9): when the writer clones a
/// chunk of tuples the snapshot shares (core/cow_vector.h), each tuple
/// copy still shares its component reps. A published rep is immutable
/// forever — every mutating operation builds a fresh vector and swaps
/// the pointer — so concurrently reading two ValueSets that share a rep
/// is race-free by construction (engine/snapshot.h relies on exactly
/// this).
class ValueSet {
 public:
  /// Constructs the empty set (no allocation: the null rep is empty).
  ValueSet() = default;

  /// Constructs the singleton {v}.
  explicit ValueSet(Value v);

  /// Constructs from arbitrary values; duplicates are collapsed.
  ValueSet(std::initializer_list<Value> values);
  explicit ValueSet(std::vector<Value> values);

  /// Trusted constructor for callers that already hold the elements in
  /// ascending order without duplicates (the dictionary decode path) —
  /// skips the O(k log k) payload sort.
  static ValueSet FromSortedUnique(std::vector<Value> values);

  /// Number of elements.
  size_t size() const { return rep_ == nullptr ? 0 : rep_->size(); }
  bool empty() const { return rep_ == nullptr || rep_->empty(); }
  bool IsSingleton() const { return size() == 1; }

  /// Elements in ascending order. The reference is into the current
  /// rep: like the reference a vector would hand out, it is invalidated
  /// by the next mutation of THIS set (other sets sharing the rep keep
  /// it alive).
  const std::vector<Value>& values() const {
    return rep_ == nullptr ? EmptyRep() : *rep_;
  }
  const Value& operator[](size_t i) const { return values()[i]; }

  /// The single element of a singleton set (fatal otherwise).
  const Value& single() const;

  /// Membership test (binary search).
  bool Contains(const Value& v) const;

  /// Inserts `v`; returns false if it was already present.
  bool Insert(const Value& v);

  /// Removes `v`; returns false if it was absent.
  bool Erase(const Value& v);

  /// Set algebra. All return new sets.
  ValueSet Union(const ValueSet& other) const;
  ValueSet Intersect(const ValueSet& other) const;
  ValueSet Difference(const ValueSet& other) const;

  /// True when every element of this set is in `other`.
  bool IsSubsetOf(const ValueSet& other) const;

  /// True when the two sets share no element.
  bool IsDisjointFrom(const ValueSet& other) const;

  bool operator==(const ValueSet& other) const {
    // Shared-rep fast path: COW copies compare pointer-equal.
    return rep_ == other.rep_ || values() == other.values();
  }
  bool operator!=(const ValueSet& other) const { return !(*this == other); }
  /// Lexicographic order on the sorted element sequences.
  bool operator<(const ValueSet& other) const;

  /// Hash consistent with operator==.
  size_t Hash() const;

  /// Paper-style rendering: a bare value for singletons ("s1"), a
  /// comma-joined list for compound sets ("s2,s3").
  std::string ToString() const;

 private:
  static const std::vector<Value>& EmptyRep();

  /// Adopts `values` (already sorted-unique) as the new rep; an empty
  /// vector becomes the allocation-free null rep.
  void Adopt(std::vector<Value> values);

  /// Sorted ascending, no duplicates; null means empty. Immutable once
  /// set — mutations Adopt() a fresh vector.
  std::shared_ptr<const std::vector<Value>> rep_;
};

std::ostream& operator<<(std::ostream& os, const ValueSet& set);

}  // namespace nf2

namespace std {
template <>
struct hash<nf2::ValueSet> {
  size_t operator()(const nf2::ValueSet& s) const { return s.Hash(); }
};
}  // namespace std

#endif  // NF2_CORE_VALUE_SET_H_
