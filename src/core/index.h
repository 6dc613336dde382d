#ifndef NF2_CORE_INDEX_H_
#define NF2_CORE_INDEX_H_

#include <memory>
#include <optional>
#include <vector>

#include "core/cow_vector.h"
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
/// position, the ids of the tuples whose component contains each
/// dictionary-encoded value.
///
/// This is the "optimization strategy" the paper leaves open (§5): the
/// §4 algorithms' candidate search (`candt`) and containing-tuple
/// search (`searcht`) become posting-list intersections instead of full
/// scans, making update cost sublinear in the number of tuples while
/// the composition count stays bounded by Theorem A-4.
///
/// Postings live in a plain vector indexed by the dense ValueId of a
/// ValueDictionary, so a lookup is one array access; the Value-based
/// read API consults the dictionary first.
///
/// Tuple ids are positions in the owner's tuple vector; the owner must
/// use swap-remove semantics and report moves via MoveEncoded.
class NfrIndex {
 public:
  /// An empty index whose postings are keyed by the ids of `dict`.
  NfrIndex(size_t degree, std::shared_ptr<const ValueDictionary> dict);

  size_t degree() const { return degree_; }

  /// Indexes the encoded tuple `t` under `tuple_id`.
  void AddEncoded(size_t tuple_id, const EncodedTuple& t);

  /// Removes `t`'s entries for `tuple_id`.
  void RemoveEncoded(size_t tuple_id, const EncodedTuple& t);

  /// Re-labels `t` from `from_id` to `to_id` (swap-remove bookkeeping).
  void MoveEncoded(size_t from_id, size_t to_id, const EncodedTuple& t);

  /// Ids of tuples whose `attr` component contains `v` (ascending), or
  /// nullptr when none do.
  const std::vector<size_t>* Postings(size_t attr, const Value& v) const;

  /// Ids of tuples whose `attr` component contains the interned value
  /// `id`.
  const std::vector<size_t>* PostingsById(size_t attr, ValueId id) const;

  /// Ids of tuples whose `attr` component contains at least one value
  /// inside `bound` — the union of the postings whose keys fall in the
  /// interval. Scans `values` in id order and unions the slots of the
  /// ids inside the bound, needing no rank table. `values` is the
  /// dictionary the caller reads through (a snapshot's frozen copy);
  /// null means the index's own.
  std::vector<size_t> ContainingInRange(
      size_t attr, const RangeBound& bound,
      const DictionaryView* values = nullptr) const;

  /// Ids of tuples whose `attr` component contains EVERY id of `ids` —
  /// the intersection of the postings. Empty vector when any id is
  /// unindexed.
  std::vector<size_t> ContainingAllIds(size_t attr, const IdSet& ids) const;

  /// Ids of tuples containing the whole encoded tuple `t` componentwise
  /// (the index form of "expansion contains"): intersection across all
  /// attributes. For well-formed NFRs this has at most one element when
  /// `t` is simple.
  std::vector<size_t> ContainingEncoded(const EncodedTuple& t) const;

  /// Total number of (value -> id) entries, for stats/tests.
  size_t entry_count() const;

  /// Total posting slots held across all attributes (including empty
  /// interior ones). RemoveEncoded reclaims trailing empty slots, so
  /// after deleting the tuples that carried the highest ValueIds this
  /// shrinks back — churn-heavy workloads must not grow postings_by_id_
  /// forever.
  size_t slot_count() const;

 private:
  size_t degree_;

  // postings_by_id_[attr][value_id] -> sorted tuple ids. Slots are
  // grown on demand; an empty slot means "unindexed". Chunked
  // copy-on-write, so copying the index shares every slot chunk.
  std::shared_ptr<const ValueDictionary> dict_;
  std::vector<CowVector<std::vector<size_t>>> postings_by_id_;
};

/// Intersects two sorted id vectors.
std::vector<size_t> IntersectSorted(const std::vector<size_t>& a,
                                    const std::vector<size_t>& b);

}  // namespace nf2

#endif  // NF2_CORE_INDEX_H_
