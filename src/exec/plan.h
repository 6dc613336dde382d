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

/// One equality restriction an index-backed access path applies: the
/// component at position `attr` must contain `value`.
struct EqRestriction {
  size_t attr = 0;
  Value value;
};

/// One range restriction an index-backed access path applies: the
/// component at position `attr` must hold a value inside `bound`.
struct RangeRestriction {
  size_t attr = 0;
  RangeBound bound;
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

  /// Leaf operators that answer without emitting rows (the factorized
  /// aggregate's NFR source) report their logical output size here.
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

/// Shared scan machinery: walk the NFR tuples of a relation, expanding
/// each one lazily into its simple tuples. Subclasses choose the
/// relation in OpenImpl() and hand it to StartIteration().
class NfrExpandOpBase : public PlanOp {
 protected:
  using PlanOp::PlanOp;

  void StartIteration(const NfrRelation* rel);
  bool NextImpl(FlatTuple* out) final;
  void CloseImpl() override;

 private:
  const NfrRelation* rel_ = nullptr;
  size_t tuple_index_ = 0;
  std::vector<FlatTuple> buffer_;  // Expansion of the current NFR tuple.
  size_t buffer_pos_ = 0;
};

/// Full scan of a stored NFR: every tuple, expanded.
class SeqScanOp : public NfrExpandOpBase {
 public:
  SeqScanOp(std::string label, const NfrRelation* rel);

 protected:
  void OpenImpl() override;

 private:
  const NfrRelation* source_;
};

/// Computes the NFR tuples matching `eqs` against a canonical relation:
/// the first restriction is answered from the inverted index
/// (TuplesContaining / TuplesContainingId), the rest filter the
/// candidates, and every eq-restricted component is narrowed to the
/// singleton before expansion — R* is never materialized beyond the
/// matching fragment. `frozen_dict` non-null routes value resolution
/// through a snapshot's frozen dictionary.
NfrRelation IndexCandidates(const CanonicalRelation& rel,
                            const DictionaryView* frozen_dict,
                            const std::vector<EqRestriction>& eqs);

/// Index-backed point selection: expands only the candidate fragment
/// computed by IndexCandidates.
class IndexScanOp : public NfrExpandOpBase {
 public:
  IndexScanOp(std::string label, const CanonicalRelation* rel,
              const DictionaryView* frozen_dict,
              std::vector<EqRestriction> eqs);

 protected:
  void OpenImpl() override;
  void CloseImpl() override;

 private:
  const CanonicalRelation* source_;
  const DictionaryView* frozen_dict_;
  std::vector<EqRestriction> eqs_;
  NfrRelation candidates_;
};

/// Computes the NFR tuples matching `range` against a canonical
/// relation via a bound-scan of the index postings (TuplesInRange),
/// narrowing the ranged component to its in-bound values before
/// expansion. `frozen_dict` non-null marks a snapshot read: the scan
/// then reads values through the snapshot's frozen dictionary, never
/// the live one concurrent writers intern into.
NfrRelation RangeCandidates(const CanonicalRelation& rel,
                            const DictionaryView* frozen_dict,
                            const RangeRestriction& range);

/// Index-backed range selection: expands only the candidate fragment
/// computed by RangeCandidates.
class IndexRangeScanOp : public NfrExpandOpBase {
 public:
  IndexRangeScanOp(std::string label, const CanonicalRelation* rel,
                   const DictionaryView* frozen_dict, RangeRestriction range);

 protected:
  void OpenImpl() override;
  void CloseImpl() override;

 private:
  const CanonicalRelation* source_;
  const DictionaryView* frozen_dict_;
  RangeRestriction range_;
  NfrRelation candidates_;
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

/// Access-path leaf for the factorized aggregate: produces NFR tuples,
/// not rows — the parent reads them via nfr(). With eq restrictions it
/// materializes the index-selected candidate fragment; without, it
/// borrows the stored relation by reference (materialized=0 — the
/// aggregate runs over the factorized form with zero copying).
class NfrSourceOp : public PlanOp {
 public:
  /// Borrowing form (no restrictions).
  NfrSourceOp(std::string label, const NfrRelation* rel);

  /// Index-restricted form.
  NfrSourceOp(std::string label, const CanonicalRelation* rel,
              const DictionaryView* frozen_dict,
              std::vector<EqRestriction> eqs);

  /// Valid between Open and Close.
  const NfrRelation* nfr() const { return nfr_; }

 protected:
  void OpenImpl() override;
  bool NextImpl(FlatTuple*) override { return false; }
  void CloseImpl() override;

 private:
  const NfrRelation* borrowed_ = nullptr;
  const CanonicalRelation* source_ = nullptr;
  const DictionaryView* frozen_dict_ = nullptr;
  std::vector<EqRestriction> eqs_;
  NfrRelation candidates_;
  const NfrRelation* nfr_ = nullptr;
};

/// Factorized aggregation straight over the NFR (DESIGN.md §10): since
/// expansions of distinct tuples are pairwise disjoint, COUNT(*) is
/// Σ_t Π_j |D_j,t| and SUM(b) is Σ_t (Σ_{v∈D_b,t} v)·Π_{j≠b} |D_j,t| —
/// no simple tuple is ever materialized. It folds the tuples of every
/// source in order: one per shard, whose expansions are disjoint too.
class FactorizedAggregateOp : public PlanOp {
 public:
  FactorizedAggregateOp(std::string label,
                        std::vector<std::unique_ptr<NfrSourceOp>> sources,
                        std::optional<size_t> group_attr,
                        std::vector<AggCompute> aggs, Schema output_schema);

 protected:
  void OpenImpl() override;
  bool NextImpl(FlatTuple* out) override;
  void CloseImpl() override;

 private:
  std::vector<NfrSourceOp*> sources_;  // == children().
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
