#ifndef NF2_CORE_INDEX_H_
#define NF2_CORE_INDEX_H_

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/cow_vector.h"
#include "core/tuple.h"
#include "core/value.h"
#include "core/value_dictionary.h"

namespace nf2 {

/// A one-dimensional interval over attribute values: the target of a
/// range predicate (`attr < v`, `attr >= v`, ...) after the planner has
/// folded every top-level range conjunct on one attribute together.
/// Absent bounds are unbounded on that side.
struct RangeBound {
  std::optional<Value> lower;
  std::optional<Value> upper;
  bool lower_inclusive = true;
  bool upper_inclusive = true;

  /// True when `v` lies inside the interval.
  bool Admits(const Value& v) const {
    if (lower.has_value()) {
      if (lower_inclusive ? v < *lower : v <= *lower) return false;
    }
    if (upper.has_value()) {
      if (upper_inclusive ? *upper < v : *upper <= v) return false;
    }
    return true;
  }
};

/// An inverted index over the tuples of one NFR: for every attribute
/// position, a map from atomic value to the ids of the tuples whose
/// component contains that value.
///
/// This is the "optimization strategy" the paper leaves open (§5): the
/// §4 algorithms' candidate search (`candt`) and containing-tuple
/// search (`searcht`) become posting-list intersections instead of full
/// scans, making update cost sublinear in the number of tuples while
/// the composition count stays bounded by Theorem A-4.
///
/// Two keying modes:
///  - Value-keyed (legacy): postings live in a std::map<Value, ...>
///    per attribute; every lookup re-compares variant payloads.
///  - Id-keyed (interned): constructed with a ValueDictionary, postings
///    live in a plain vector indexed by the dense ValueId, so a lookup
///    is one array access. Mutations then go through the *Encoded
///    entry points; the Value-based read API still works by consulting
///    the dictionary first.
///
/// Tuple ids are positions in the owner's tuple vector; the owner must
/// use swap-remove semantics and report moves via MoveTuple.
class NfrIndex {
 public:
  /// Value-keyed index (the untouched legacy path).
  explicit NfrIndex(size_t degree);

  /// Id-keyed index over `dict`.
  NfrIndex(size_t degree, std::shared_ptr<const ValueDictionary> dict);

  size_t degree() const { return degree_; }
  bool interned() const { return dict_ != nullptr; }

  /// Indexes `t` under `tuple_id` (Value-keyed mode only).
  void AddTuple(size_t tuple_id, const NfrTuple& t);

  /// Removes `t`'s entries for `tuple_id` (Value-keyed mode only).
  void RemoveTuple(size_t tuple_id, const NfrTuple& t);

  /// Re-labels `t` from `from_id` to `to_id` (swap-remove bookkeeping,
  /// Value-keyed mode only).
  void MoveTuple(size_t from_id, size_t to_id, const NfrTuple& t);

  /// Id-keyed counterparts (interned mode only).
  void AddEncoded(size_t tuple_id, const EncodedTuple& t);
  void RemoveEncoded(size_t tuple_id, const EncodedTuple& t);
  void MoveEncoded(size_t from_id, size_t to_id, const EncodedTuple& t);

  /// Ids of tuples whose `attr` component contains `v` (ascending), or
  /// nullptr when none do. Works in both modes.
  const std::vector<size_t>* Postings(size_t attr, const Value& v) const;

  /// Ids of tuples whose `attr` component contains the interned value
  /// `id` (interned mode only).
  const std::vector<size_t>* PostingsById(size_t attr, ValueId id) const;

  /// Ids of tuples whose `attr` component contains at least one value
  /// inside `bound` — the union of the postings whose keys fall in the
  /// interval. Value-keyed mode bound-scans the sorted postings map;
  /// interned mode scans `values` in id order and unions the id-keyed
  /// slots of the ids inside the bound, needing no rank table. `values`
  /// is the dictionary the caller reads through (a snapshot's frozen
  /// copy); null means the index's own. Works in both modes.
  std::vector<size_t> ContainingInRange(
      size_t attr, const RangeBound& bound,
      const DictionaryView* values = nullptr) const;

  /// Ids of tuples whose `attr` component contains EVERY value of
  /// `values` — the intersection of the postings. Empty vector when any
  /// value is unindexed. Works in both modes.
  std::vector<size_t> ContainingAll(size_t attr,
                                    const ValueSet& values) const;

  /// Id-space form of ContainingAll (interned mode only).
  std::vector<size_t> ContainingAllIds(size_t attr, const IdSet& ids) const;

  /// Ids of tuples containing the whole tuple `t` componentwise (the
  /// index form of "expansion contains"): intersection across all
  /// attributes. For well-formed NFRs this has at most one element when
  /// `t` is simple. Works in both modes.
  std::vector<size_t> ContainingTuple(const NfrTuple& t) const;

  /// Id-space form of ContainingTuple (interned mode only).
  std::vector<size_t> ContainingEncoded(const EncodedTuple& t) const;

  /// Total number of (value -> id) entries, for stats/tests.
  size_t entry_count() const;

  /// Id-keyed capacity: total posting slots held across all attributes
  /// (including empty interior ones). RemoveEncoded reclaims trailing
  /// empty slots, so after deleting the tuples that carried the highest
  /// ValueIds this shrinks back — churn-heavy workloads must not grow
  /// postings_by_id_ forever. Always 0 in Value-keyed mode (that path
  /// erases empty map entries instead).
  size_t slot_count() const;

 private:
  size_t degree_;

  // Value-keyed mode. Postings are sorted vectors: components are small
  // and intersections scan linearly.
  std::vector<std::map<Value, std::vector<size_t>>> postings_;

  // Id-keyed mode: postings_by_id_[attr][value_id] -> sorted tuple ids.
  // Slots are grown on demand; an empty slot means "unindexed". Chunked
  // copy-on-write, so copying the index shares every slot chunk.
  std::shared_ptr<const ValueDictionary> dict_;
  std::vector<CowVector<std::vector<size_t>>> postings_by_id_;
};

/// Intersects two sorted id vectors.
std::vector<size_t> IntersectSorted(const std::vector<size_t>& a,
                                    const std::vector<size_t>& b);

}  // namespace nf2

#endif  // NF2_CORE_INDEX_H_
