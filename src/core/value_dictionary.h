#ifndef NF2_CORE_VALUE_DICTIONARY_H_
#define NF2_CORE_VALUE_DICTIONARY_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "core/cow_vector.h"
#include "core/tuple.h"
#include "core/value.h"
#include "core/value_set.h"

namespace nf2 {

/// Dense handle for an interned atomic Value. Ids are assigned in
/// first-intern order and are stable for the lifetime of the owning
/// dictionary — stored IdSets are never invalidated by later interns.
using ValueId = uint32_t;

/// The half of a dictionary a snapshot reader needs: value -> id and
/// id -> value lookups and the id count, over chunked copy-on-write
/// storage (core/cow_vector.h). Copying a view copies chunk pointers
/// only, and the copy never changes afterwards, whatever the dictionary
/// it was copied from interns next — which is what lets a published
/// snapshot share the writer's dictionary chunks (DESIGN.md §9). It
/// holds nothing lazy: the rank table lives in ValueDictionary.
///
/// The lookup is an open-addressing table of ids (linear probing, load
/// at most 1/2, capacity a power of two): every slot is a small plain
/// struct, so cloning a chunk of them copies bytes and allocates once.
class DictionaryView {
 public:
  /// The id of `v` if it was interned before, nullopt otherwise.
  std::optional<ValueId> Find(const Value& v) const;

  /// The value behind `id` (fatal for out-of-range ids).
  const Value& value(ValueId id) const;

  /// Number of distinct values interned.
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

 protected:
  static constexpr ValueId kNoId = std::numeric_limits<ValueId>::max();
  struct Slot {
    ValueId id = kNoId;
    uint32_t hash = 0;  // Low bits of the value's mixed hash.
  };

  static uint32_t HashOf(const Value& v);

  /// The slot holding `v`, or the empty slot where it would go.
  size_t Probe(const Value& v, uint32_t hash) const;

  CowVector<Value> values_;  // id -> value
  CowVector<Slot> slots_;    // value -> id; empty until the first intern
};

/// Interns atomic Values into dense ValueIds so the NFR hot paths
/// (candidate search, nest grouping, index postings) can run on integer
/// tokens instead of re-comparing and re-hashing variant payloads.
///
/// Order-preservation contract: raw ids carry NO order. The dictionary
/// instead exposes a dense *rank* per id with
///     Rank(a) < Rank(b)  <=>  value(a) < value(b)
/// so value-ordered iteration and lexicographic comparisons stay
/// available without decoding. Ranks are materialized lazily: interning
/// a value greater than every existing value extends the ranks in
/// place; an out-of-order intern only marks them dirty, and the next
/// Rank()/CompareIds() call re-sorts once (O(n log n) amortized over
/// the batch of new values). This re-encoding touches the rank table
/// only — ids, and therefore every IdSet held by callers, survive it.
///
/// Copying shares the values and the lookup (DictionaryView) but not
/// the rank cache, which the copy rebuilds if it is ever asked for
/// order. Rank and CompareIds fill that cache, so they are
/// writer-side calls: a dictionary concurrent readers hold is asked
/// only what DictionaryView offers.
class ValueDictionary : public DictionaryView {
 public:
  ValueDictionary() = default;
  ValueDictionary(const ValueDictionary& other);
  ValueDictionary& operator=(const ValueDictionary&) = delete;

  /// Returns the id of `v`, interning it first if unseen.
  ValueId Intern(const Value& v);

  /// Order-preserving dense rank of `id` (see class comment).
  uint32_t Rank(ValueId id) const;

  /// Three-way comparison of the underlying values via ranks.
  int CompareIds(ValueId a, ValueId b) const;

  static constexpr ValueId kMaxValues =
      std::numeric_limits<ValueId>::max() - 1;

 private:
  void EnsureRanks() const;

  /// Doubles the lookup table (16 slots at first) and re-places every
  /// id by its stored hash.
  void GrowSlots();

  // Lazy rank table; valid only when !ranks_dirty_. max_value_id_ is
  // the id holding the greatest value (used to extend ranks in place on
  // monotone interns); meaningful only when !ranks_dirty_.
  mutable std::vector<uint32_t> ranks_;  // id -> rank
  mutable ValueId max_value_id_ = 0;
  mutable bool ranks_dirty_ = false;
};

/// A finite set of interned values: the IdSet fast path behind
/// ValueSet. Stored as a sorted, duplicate-free vector of raw ids, so
/// every set operation is a branch-light integer merge and Hash is a
/// cheap integer mix. Raw-id order is an arbitrary but consistent total
/// order, which is all set algebra needs; value-ordered output goes
/// through ValueDictionary ranks at decode time.
class IdSet {
 public:
  IdSet() = default;
  explicit IdSet(ValueId id) : ids_(1, id) {}
  explicit IdSet(std::vector<ValueId> ids);

  /// Trusted constructor: `ids` must already be sorted and unique.
  static IdSet FromSorted(std::vector<ValueId> ids);

  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }
  bool IsSingleton() const { return ids_.size() == 1; }

  const std::vector<ValueId>& ids() const { return ids_; }
  ValueId operator[](size_t i) const { return ids_[i]; }

  /// The single element of a singleton set (fatal otherwise).
  ValueId single() const;

  /// Membership test (binary search on raw ids).
  bool Contains(ValueId id) const;

  /// Inserts `id`; returns false if it was already present.
  bool Insert(ValueId id);

  /// Removes `id`; returns false if it was absent.
  bool Erase(ValueId id);

  /// Set algebra — integer merges over the sorted id vectors. Each
  /// result agrees exactly with the corresponding ValueSet operation on
  /// the decoded sets.
  IdSet Union(const IdSet& other) const;
  IdSet Intersect(const IdSet& other) const;
  IdSet Difference(const IdSet& other) const;
  bool IsSubsetOf(const IdSet& other) const;
  bool IsDisjointFrom(const IdSet& other) const;

  bool operator==(const IdSet& other) const { return ids_ == other.ids_; }
  bool operator!=(const IdSet& other) const { return ids_ != other.ids_; }

  /// Hash consistent with operator== (and therefore with set equality
  /// of the decoded ValueSets, within one dictionary).
  size_t Hash() const;

 private:
  std::vector<ValueId> ids_;  // Sorted ascending by raw id, no duplicates.
};

/// One NFR tuple in interned form: an IdSet per attribute position.
using EncodedTuple = std::vector<IdSet>;

/// Encodes `s` into `dict`, interning unseen values.
IdSet InternValueSet(ValueDictionary* dict, const ValueSet& s);

/// Decodes `s` back to a ValueSet (elements in ascending value order;
/// lossless for every atom kind including kSet).
ValueSet DecodeIdSet(const ValueDictionary& dict, const IdSet& s);

/// Encodes / decodes a whole NFR tuple componentwise.
EncodedTuple InternTuple(ValueDictionary* dict, const NfrTuple& t);
NfrTuple DecodeTuple(const ValueDictionary& dict, const EncodedTuple& t);

/// Hash of all components except `skip_attr` (the NestOn grouping key);
/// pass degree() or larger to hash every component.
size_t HashEncodedTupleExcept(const EncodedTuple& t, size_t skip_attr);

}  // namespace nf2

#endif  // NF2_CORE_VALUE_DICTIONARY_H_
