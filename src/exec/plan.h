#ifndef NF2_EXEC_PLAN_H_
#define NF2_EXEC_PLAN_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "algebra/predicate.h"
#include "core/relation.h"
#include "core/update.h"
#include "nfrql/ast.h"

namespace nf2 {

/// The `=` conjunct whose posting list drives a narrowing leaf: the
/// component at position `attr` must contain `value`.
struct EqRestriction {
  size_t attr = 0;
  Value value;
};

/// The range whose index bound scan drives a narrowing leaf: the
/// component at position `attr` must hold a value inside `bound`.
struct RangeRestriction {
  size_t attr = 0;
  RangeBound bound;
};

/// One attribute's share of a WHERE clause: the AND of the top-level
/// conjuncts that reference `attr` alone. `bound` is the interval its
/// `=`, `<`, `<=`, `>` and `>=` conjuncts imply, so `pred` is only
/// tested on the component values inside it.
struct AttrRestriction {
  size_t attr = 0;
  Predicate pred = Predicate::True();
  RangeBound bound;
};

/// What a narrowing leaf selects: at most one restriction per
/// attribute. Candidates come from the most selective index lookup: the
/// postings of `probe`, else the bound scan of `ranged`, else every
/// stored tuple.
struct Selection {
  std::vector<AttrRestriction> restrictions;
  std::optional<EqRestriction> probe;
  std::optional<RangeRestriction> ranged;
};

/// A Volcano-style plan operator: Open() once, Next() until it returns
/// false, Close(). Operators pull rows from their children; all fallible
/// work (name resolution, type checks) happens at plan time, so the
/// iteration surface is infallible.
///
/// Instrumentation: EnableTiming() (PROFILE only — untraced execution
/// pays no clock reads) accumulates per-operator wall time; rows_out()
/// and stats() are always maintained and become span attributes.
class PlanOp {
 public:
  virtual ~PlanOp() = default;
  PlanOp(const PlanOp&) = delete;
  PlanOp& operator=(const PlanOp&) = delete;

  const std::string& label() const { return label_; }
  const Schema& schema() const { return schema_; }
  const std::vector<std::unique_ptr<PlanOp>>& children() const {
    return children_;
  }

  /// Opens children first, then this operator (blocking operators
  /// consume their inputs here).
  void Open();

  /// Produces the next row into `*out`; false when exhausted.
  bool Next(FlatTuple* out);

  /// Closes this operator first, then its children. Per-execution state
  /// is released; counters and stats survive for span reporting.
  void Close();

  /// Turns on per-call wall-time accounting for this subtree.
  void EnableTiming();

  uint64_t rows_out() const { return rows_out_; }
  uint64_t elapsed_ns() const { return elapsed_ns_; }

  /// Extra per-operator span attributes (e.g. nfr_tuples, groups).
  const std::vector<std::pair<std::string, int64_t>>& stats() const {
    return stats_;
  }

 protected:
  PlanOp(std::string label, Schema schema)
      : label_(std::move(label)), schema_(std::move(schema)) {}

  virtual void OpenImpl() {}
  virtual bool NextImpl(FlatTuple* out) = 0;
  virtual void CloseImpl() {}

  /// Adopts `op` as the next child; returns the raw pointer for
  /// convenience.
  PlanOp* AddChild(std::unique_ptr<PlanOp> op);
  PlanOp* child(size_t i) const { return children_[i].get(); }

  /// Records (or overwrites) a named stat for span reporting.
  void SetStat(const std::string& key, int64_t value);

  /// Leaf operators that answer without emitting rows (a narrowing
  /// leaf under the factorized aggregate) report their logical output
  /// size here.
  void ReportRows(uint64_t rows) { rows_out_ = rows; }

 private:
  std::string label_;
  Schema schema_;
  std::vector<std::unique_ptr<PlanOp>> children_;
  std::vector<std::pair<std::string, int64_t>> stats_;
  bool timing_ = false;
  uint64_t rows_out_ = 0;
  uint64_t elapsed_ns_ = 0;
};

/// The one access path of a selection (DESIGN.md §10). It takes the
/// candidate tuples of `selection`'s index lookup in ascending
/// position, narrows every restricted component to the values its
/// restriction admits, and drops a tuple whose component empties. By
/// Theorem 1 the narrowed tuples expand to exactly the selected rows,
/// and distinct tuples still expand disjointly. With `expand` it emits
/// those rows; without, a factorized aggregate reads the tuples through
/// nfr(). An unrestricted leaf borrows the stored relation
/// (materialized=0). `frozen_dict` non-null marks a snapshot read: the
/// probe literal resolves and the bound scan compares through it, never
/// through the live dictionary concurrent writers intern into.
class NarrowScanOp : public PlanOp {
 public:
  NarrowScanOp(std::string label, const CanonicalRelation* rel,
               const DictionaryView* frozen_dict, Selection selection,
               bool expand);

  /// The selected NFR tuples; valid between Open and Close.
  const NfrRelation* nfr() const { return nfr_; }

 protected:
  void OpenImpl() override;
  bool NextImpl(FlatTuple* out) override;
  void CloseImpl() override;

 private:
  /// Adds `t`, narrowed, to narrowed_, unless a component empties.
  void Narrow(const NfrTuple& t);

  const CanonicalRelation* source_;
  const DictionaryView* frozen_dict_;
  Selection selection_;
  bool expand_;
  NfrRelation narrowed_;
  const NfrRelation* nfr_ = nullptr;
  size_t tuple_index_ = 0;
  std::vector<FlatTuple> buffer_;  // Expansion of the current NFR tuple.
  size_t buffer_pos_ = 0;
};

/// Concatenates its children's rows in child order. The planner puts
/// one copy of an access path per shard under it, so every operator
/// above runs once over all shards' rows.
class UnionOp : public PlanOp {
 public:
  UnionOp(std::string label, std::vector<std::unique_ptr<PlanOp>> inputs);

 protected:
  bool NextImpl(FlatTuple* out) override;
  void CloseImpl() override;

 private:
  size_t current_ = 0;  // The child being drained.
};

/// Drops rows failing `pred`.
class FilterOp : public PlanOp {
 public:
  FilterOp(std::string label, std::unique_ptr<PlanOp> input, Predicate pred);

 protected:
  bool NextImpl(FlatTuple* out) override;

 private:
  Predicate pred_;
};

/// Projects to the attributes at `indices`, deduplicating (set
/// semantics, like the algebra's ProjectByName).
class ProjectOp : public PlanOp {
 public:
  ProjectOp(std::string label, std::unique_ptr<PlanOp> input,
            std::vector<size_t> indices);

 protected:
  bool NextImpl(FlatTuple* out) override;
  void CloseImpl() override;

 private:
  std::vector<size_t> indices_;
  std::unordered_set<FlatTuple> seen_;
};

/// Natural hash join: materializes the right child into a hash table
/// keyed on the shared attributes at Open, then streams the left child.
/// Output schema: left attributes, then the right's non-shared ones.
class JoinOp : public PlanOp {
 public:
  JoinOp(std::string label, std::unique_ptr<PlanOp> left,
         std::unique_ptr<PlanOp> right);

 protected:
  void OpenImpl() override;
  bool NextImpl(FlatTuple* out) override;
  void CloseImpl() override;

 private:
  std::vector<size_t> left_key_;     // Shared attrs, left positions.
  std::vector<size_t> right_key_;    // Shared attrs, right positions.
  std::vector<size_t> right_extra_;  // Right positions appended to output.
  std::unordered_map<FlatTuple, std::vector<FlatTuple>> table_;
  FlatTuple left_row_;
  const std::vector<FlatTuple>* matches_ = nullptr;
  size_t match_pos_ = 0;
};

/// One aggregate call resolved against an input schema.
struct AggCompute {
  AggSpec spec;
  size_t attr = 0;  // Input position; unused for COUNT(*).
  ValueType type = ValueType::kString;  // Input attribute type.
};

/// Accumulator shared by the row-based and factorized aggregates.
struct AggState {
  uint64_t count = 0;          // COUNT(*).
  std::set<Value> distinct;    // COUNT(attr) — distinct set semantics.
  int64_t isum = 0;            // SUM over kInt.
  double dsum = 0;             // SUM over kDouble.
  std::optional<Value> extreme;  // MIN/MAX.
};

/// Finalizes one aggregate's accumulator into its output value.
Value AggResult(const AggCompute& agg, const AggState& state);

/// Row-based aggregation (the fallback when residual predicates or
/// joins force full row streams): drains its child at Open, grouping by
/// `group_attr` when set.
class AggregateOp : public PlanOp {
 public:
  AggregateOp(std::string label, std::unique_ptr<PlanOp> input,
              std::optional<size_t> group_attr, std::vector<AggCompute> aggs,
              Schema output_schema);

 protected:
  void OpenImpl() override;
  bool NextImpl(FlatTuple* out) override;
  void CloseImpl() override;

 private:
  std::optional<size_t> group_;
  std::vector<AggCompute> aggs_;
  std::vector<FlatTuple> results_;
  size_t pos_ = 0;
};

/// Factorized aggregation straight over the NFR (DESIGN.md §10): since
/// expansions of distinct tuples are pairwise disjoint, COUNT(*) is
/// Σ_t Π_j |D_j,t| and SUM(b) is Σ_t (Σ_{v∈D_b,t} v)·Π_{j≠b} |D_j,t| —
/// no simple tuple is ever materialized. It folds the narrowed tuples
/// of every source in order: one per shard, whose expansions are
/// disjoint too.
class FactorizedAggregateOp : public PlanOp {
 public:
  FactorizedAggregateOp(std::string label,
                        std::vector<std::unique_ptr<NarrowScanOp>> sources,
                        std::optional<size_t> group_attr,
                        std::vector<AggCompute> aggs, Schema output_schema);

 protected:
  void OpenImpl() override;
  bool NextImpl(FlatTuple* out) override;
  void CloseImpl() override;

 private:
  std::vector<NarrowScanOp*> sources_;  // == children().
  std::optional<size_t> group_;
  std::vector<AggCompute> aggs_;
  std::vector<FlatTuple> results_;
  size_t pos_ = 0;
};

/// ORDER BY one output column: drains its child at Open and
/// stable-sorts (ties keep pipeline order).
class SortOp : public PlanOp {
 public:
  SortOp(std::string label, std::unique_ptr<PlanOp> input, size_t col,
         bool desc);

 protected:
  void OpenImpl() override;
  bool NextImpl(FlatTuple* out) override;
  void CloseImpl() override;

 private:
  size_t col_;
  bool desc_;
  std::vector<FlatTuple> rows_;
  size_t pos_ = 0;
};

/// Emits at most `limit` rows.
class LimitOp : public PlanOp {
 public:
  LimitOp(std::string label, std::unique_ptr<PlanOp> input, uint64_t limit);

 protected:
  bool NextImpl(FlatTuple* out) override;
  void CloseImpl() override;

 private:
  uint64_t limit_;
  uint64_t emitted_ = 0;
};

}  // namespace nf2

#endif  // NF2_EXEC_PLAN_H_
