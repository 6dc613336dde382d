#ifndef NF2_CORE_RELATION_H_
#define NF2_CORE_RELATION_H_

#include <initializer_list>
#include <ostream>
#include <string>
#include <vector>

#include "core/cow_vector.h"
#include "core/schema.h"
#include "core/tuple.h"
#include "util/result.h"

namespace nf2 {

/// A 1NF relation: a set of simple tuples, kept sorted and
/// duplicate-free. This is the paper's R* — the unique flat relation an
/// NFR denotes (Theorem 1).
class FlatRelation {
 public:
  FlatRelation() = default;
  explicit FlatRelation(Schema schema) : schema_(std::move(schema)) {}
  FlatRelation(Schema schema, std::vector<FlatTuple> tuples);

  const Schema& schema() const { return schema_; }
  size_t degree() const { return schema_.degree(); }
  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

  /// Tuples in ascending lexicographic order.
  const std::vector<FlatTuple>& tuples() const { return tuples_; }
  const FlatTuple& tuple(size_t i) const;

  /// Membership test (binary search).
  bool Contains(const FlatTuple& t) const;

  /// Inserts `t`; returns false if it was already present. Fatal if the
  /// tuple degree does not match the schema.
  bool Insert(FlatTuple t);

  /// Removes `t`; returns false if it was absent.
  bool Erase(const FlatTuple& t);

  /// Set-equality (schemas and tuple sets both match).
  bool operator==(const FlatRelation& other) const {
    return schema_ == other.schema_ && tuples_ == other.tuples_;
  }
  bool operator!=(const FlatRelation& other) const {
    return !(*this == other);
  }

  size_t Hash() const;

  /// Multi-line listing of all tuples.
  std::string ToString() const;

 private:
  Schema schema_;
  std::vector<FlatTuple> tuples_;  // Sorted ascending, no duplicates.
};

std::ostream& operator<<(std::ostream& os, const FlatRelation& rel);

/// A non-first-normal-form relation (§3.1): a set of NFR tuples over
/// simple domains. Well-formed NFRs in this library are those derivable
/// from a 1NF relation by composition/decomposition, which means the
/// expansions of distinct tuples are pairwise disjoint and R* carries no
/// duplicates.
///
/// Copying is O(|R| / kCowChunkSize) chunk pointers (core/cow_vector.h):
/// a copy and its source share every tuple until one of them writes.
class NfrRelation {
 public:
  NfrRelation() = default;
  explicit NfrRelation(Schema schema) : schema_(std::move(schema)) {}
  NfrRelation(Schema schema, std::vector<NfrTuple> tuples);

  /// Promotes a 1NF relation to an all-singleton NFR.
  static NfrRelation FromFlat(const FlatRelation& flat);

  const Schema& schema() const { return schema_; }
  size_t degree() const { return schema_.degree(); }
  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

  /// The tuples, in insertion order up to swap-removes. Chunked
  /// copy-on-write storage: copying the relation shares every chunk.
  const CowVector<NfrTuple>& tuples() const { return tuples_; }
  const NfrTuple& tuple(size_t i) const;

  /// Adds a tuple (no disjointness check — callers that need the
  /// invariant use Validate()). Fatal on degree mismatch or empty
  /// component.
  void Add(NfrTuple t);

  /// Removes the tuple at `index` by swapping the last tuple into its
  /// place (O(1); relations are sets, so order is not meaningful —
  /// printing and comparison sort independently). Index-maintaining
  /// callers rely on exactly this move pattern.
  void RemoveAt(size_t index);

  /// Removes the first tuple equal to `t`; returns false if absent.
  bool Remove(const NfrTuple& t);

  /// Index of the first tuple equal to `t`, or size() when absent.
  size_t IndexOf(const NfrTuple& t) const;

  /// The unique 1NF relation R* this NFR denotes (Theorem 1).
  FlatRelation Expand() const;

  /// Number of simple tuples in R* assuming tuple disjointness.
  uint64_t ExpandedSize() const;

  /// True when some tuple's expansion contains `flat`.
  bool ExpansionContains(const FlatTuple& flat) const;

  /// Index of the unique tuple whose expansion contains `flat`, or
  /// size() when none does. (The paper's `searcht`.)
  size_t FindContaining(const FlatTuple& flat) const;

  /// Verifies well-formedness: all tuples match the schema, have
  /// non-empty components, and have pairwise disjoint expansions (so R*
  /// is duplicate-free and partitioned by the NFR tuples).
  Status Validate() const;

  /// Set-equality as *sets of NFR tuples* (order-insensitive).
  bool EqualsAsSet(const NfrRelation& other) const;

  /// True when both denote the same 1NF relation (R* equality) —
  /// "information equivalence" in the paper's sense.
  bool EquivalentTo(const NfrRelation& other) const;

  /// Paper-style listing, one tuple per line.
  std::string ToString() const;

 private:
  Schema schema_;
  CowVector<NfrTuple> tuples_;
};

std::ostream& operator<<(std::ostream& os, const NfrRelation& rel);

/// Builds a FlatRelation over an all-string schema from string literals:
///   MakeStringRelation({"A","B"}, {{"a1","b1"},{"a2","b1"}});
FlatRelation MakeStringRelation(
    std::initializer_list<const char*> attr_names,
    std::initializer_list<std::initializer_list<const char*>> rows);

}  // namespace nf2

#endif  // NF2_CORE_RELATION_H_
