#include "exec/plan.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "util/logging.h"

namespace nf2 {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

constexpr size_t kNoSkip = std::numeric_limits<size_t>::max();

uint64_t SatMul(uint64_t a, uint64_t b) {
  if (a != 0 && b > std::numeric_limits<uint64_t>::max() / a) {
    return std::numeric_limits<uint64_t>::max();
  }
  return a * b;
}

/// Product of component sizes of `t`, skipping up to two positions —
/// the factorized multiplier for the attributes NOT being aggregated or
/// grouped (expansions of distinct NFR tuples are disjoint, so these
/// products sum exactly).
uint64_t ProductExcept(const NfrTuple& t, size_t skip_a, size_t skip_b) {
  uint64_t product = 1;
  for (size_t j = 0; j < t.degree(); ++j) {
    if (j == skip_a || j == skip_b) continue;
    product = SatMul(product, t.at(j).size());
  }
  return product;
}

/// Folds one row of input into the row-based accumulators.
void FoldRow(const FlatTuple& row, const std::vector<AggCompute>& aggs,
             std::vector<AggState>* states) {
  for (size_t i = 0; i < aggs.size(); ++i) {
    const AggCompute& agg = aggs[i];
    AggState& s = (*states)[i];
    switch (agg.spec.func) {
      case AggSpec::Func::kCountStar:
        ++s.count;
        break;
      case AggSpec::Func::kCount:
        s.distinct.insert(row.at(agg.attr));
        break;
      case AggSpec::Func::kSum:
        if (agg.type == ValueType::kInt) {
          s.isum += row.at(agg.attr).AsInt();
        } else {
          s.dsum += row.at(agg.attr).AsDouble();
        }
        break;
      case AggSpec::Func::kMin:
        if (!s.extreme.has_value() || row.at(agg.attr) < *s.extreme) {
          s.extreme = row.at(agg.attr);
        }
        break;
      case AggSpec::Func::kMax:
        if (!s.extreme.has_value() || row.at(agg.attr) > *s.extreme) {
          s.extreme = row.at(agg.attr);
        }
        break;
    }
  }
}

/// Folds one NFR tuple into the accumulators without expanding it.
/// With a group attribute, `group_value` is the group element being
/// accumulated (one call per element of the group component); without,
/// pass kNoSkip/nullptr.
void FoldFactorized(const NfrTuple& t, size_t group, const Value* group_value,
                    const std::vector<AggCompute>& aggs,
                    std::vector<AggState>* states) {
  for (size_t i = 0; i < aggs.size(); ++i) {
    const AggCompute& agg = aggs[i];
    AggState& s = (*states)[i];
    const bool agg_is_group = group != kNoSkip && agg.attr == group &&
                              agg.spec.func != AggSpec::Func::kCountStar;
    switch (agg.spec.func) {
      case AggSpec::Func::kCountStar:
        s.count += ProductExcept(t, group, kNoSkip);
        break;
      case AggSpec::Func::kCount:
        if (agg_is_group) {
          s.distinct.insert(*group_value);
        } else {
          for (const Value& v : t.at(agg.attr).values()) {
            s.distinct.insert(v);
          }
        }
        break;
      case AggSpec::Func::kSum: {
        if (agg.type == ValueType::kInt) {
          int64_t base = 0;
          if (agg_is_group) {
            base = group_value->AsInt();
          } else {
            for (const Value& v : t.at(agg.attr).values()) base += v.AsInt();
          }
          s.isum += base * static_cast<int64_t>(ProductExcept(
                               t, group, agg_is_group ? kNoSkip : agg.attr));
        } else {
          double base = 0;
          if (agg_is_group) {
            base = group_value->AsDouble();
          } else {
            for (const Value& v : t.at(agg.attr).values()) {
              base += v.AsDouble();
            }
          }
          s.dsum += base * static_cast<double>(ProductExcept(
                               t, group, agg_is_group ? kNoSkip : agg.attr));
        }
        break;
      }
      case AggSpec::Func::kMin: {
        const Value& candidate =
            agg_is_group ? *group_value : t.at(agg.attr).values().front();
        if (!s.extreme.has_value() || candidate < *s.extreme) {
          s.extreme = candidate;
        }
        break;
      }
      case AggSpec::Func::kMax: {
        const Value& candidate =
            agg_is_group ? *group_value : t.at(agg.attr).values().back();
        if (!s.extreme.has_value() || candidate > *s.extreme) {
          s.extreme = candidate;
        }
        break;
      }
    }
  }
}

/// Builds the output rows from grouped (or global) accumulators.
std::vector<FlatTuple> FinalizeAggregates(
    const std::optional<size_t>& group, const std::vector<AggCompute>& aggs,
    const std::map<Value, std::vector<AggState>>& groups,
    const std::vector<AggState>& global) {
  std::vector<FlatTuple> out;
  if (group.has_value()) {
    out.reserve(groups.size());
    for (const auto& [key, states] : groups) {
      std::vector<Value> row;
      row.reserve(1 + aggs.size());
      row.push_back(key);
      for (size_t i = 0; i < aggs.size(); ++i) {
        row.push_back(AggResult(aggs[i], states[i]));
      }
      out.push_back(FlatTuple(std::move(row)));
    }
    return out;
  }
  std::vector<Value> row;
  row.reserve(aggs.size());
  for (size_t i = 0; i < aggs.size(); ++i) {
    row.push_back(AggResult(aggs[i], global[i]));
  }
  out.push_back(FlatTuple(std::move(row)));
  return out;
}

FlatTuple ExtractKey(const FlatTuple& row, const std::vector<size_t>& cols) {
  std::vector<Value> key;
  key.reserve(cols.size());
  for (size_t c : cols) key.push_back(row.at(c));
  return FlatTuple(std::move(key));
}

Schema JoinSchema(const Schema& left, const Schema& right) {
  std::vector<Attribute> attrs = left.attributes();
  for (const Attribute& a : right.attributes()) {
    if (!left.IndexOf(a.name).has_value()) attrs.push_back(a);
  }
  return Schema(std::move(attrs));
}

}  // namespace

// --- PlanOp ---------------------------------------------------------------

void PlanOp::Open() {
  for (auto& c : children_) c->Open();
  if (timing_) {
    const uint64_t start = NowNs();
    OpenImpl();
    elapsed_ns_ += NowNs() - start;
  } else {
    OpenImpl();
  }
}

bool PlanOp::Next(FlatTuple* out) {
  bool has_row;
  if (timing_) {
    const uint64_t start = NowNs();
    has_row = NextImpl(out);
    elapsed_ns_ += NowNs() - start;
  } else {
    has_row = NextImpl(out);
  }
  if (has_row) ++rows_out_;
  return has_row;
}

void PlanOp::Close() {
  CloseImpl();
  for (auto& c : children_) c->Close();
}

void PlanOp::EnableTiming() {
  timing_ = true;
  for (auto& c : children_) c->EnableTiming();
}

PlanOp* PlanOp::AddChild(std::unique_ptr<PlanOp> op) {
  children_.push_back(std::move(op));
  return children_.back().get();
}

void PlanOp::SetStat(const std::string& key, int64_t value) {
  for (auto& [k, v] : stats_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  stats_.emplace_back(key, value);
}

// --- Scans ----------------------------------------------------------------

namespace {

/// `component` narrowed to the values `r` admits: nullopt when none is,
/// `component` itself when all are. Only values inside r.bound are
/// tested, with the Value::Compare that EvalFlat applies.
std::optional<ValueSet> Narrowed(const ValueSet& component,
                                 const AttrRestriction& r) {
  const std::vector<Value>& values = component.values();
  auto first = values.begin();
  auto last = values.end();
  if (r.bound.lower.has_value()) {
    first = r.bound.lower_inclusive
                ? std::lower_bound(first, last, *r.bound.lower)
                : std::upper_bound(first, last, *r.bound.lower);
  }
  if (r.bound.upper.has_value()) {
    last = r.bound.upper_inclusive
               ? std::upper_bound(first, last, *r.bound.upper)
               : std::lower_bound(first, last, *r.bound.upper);
  }
  // Values are copied out only once one is dropped.
  bool dropped = first != values.begin() || last != values.end();
  std::vector<Value> keep;
  for (auto it = first; it != last; ++it) {
    if (r.pred.EvalValue(*it)) {
      if (dropped) keep.push_back(*it);
    } else if (!dropped) {
      dropped = true;
      keep.assign(first, it);
    }
  }
  if (!dropped) return component;
  if (keep.empty()) return std::nullopt;
  return ValueSet::FromSortedUnique(std::move(keep));
}

}  // namespace

NarrowScanOp::NarrowScanOp(std::string label, const CanonicalRelation* rel,
                           const DictionaryView* frozen_dict,
                           Selection selection, bool expand)
    : PlanOp(std::move(label), rel->schema()),
      source_(rel),
      frozen_dict_(frozen_dict),
      selection_(std::move(selection)),
      expand_(expand) {}

void NarrowScanOp::Narrow(const NfrTuple& t) {
  std::optional<NfrTuple> narrowed;
  for (const AttrRestriction& r : selection_.restrictions) {
    std::optional<ValueSet> kept = Narrowed(t.at(r.attr), r);
    if (!kept.has_value()) return;
    if (kept->size() == t.at(r.attr).size()) continue;
    if (!narrowed.has_value()) narrowed = t;
    narrowed->at(r.attr) = std::move(*kept);
  }
  narrowed_.Add(narrowed.has_value() ? std::move(*narrowed) : t);
}

void NarrowScanOp::OpenImpl() {
  const NfrRelation& stored = source_->relation();
  const NfrIndex* index = source_->index();
  if (selection_.restrictions.empty()) {
    nfr_ = &stored;
  } else {
    narrowed_ = NfrRelation(stored.schema());
    if (index != nullptr && selection_.probe.has_value()) {
      const EqRestriction& probe = *selection_.probe;
      const std::vector<size_t>* postings = nullptr;
      if (frozen_dict_ == nullptr) {
        postings = index->Postings(probe.attr, probe.value);
      } else if (std::optional<ValueId> id = frozen_dict_->Find(probe.value)) {
        postings = index->PostingsById(probe.attr, *id);
      }
      if (postings != nullptr) {
        for (size_t pos : *postings) Narrow(stored.tuple(pos));
      }
    } else if (index != nullptr && selection_.ranged.has_value()) {
      const RangeRestriction& ranged = *selection_.ranged;
      for (size_t pos : index->ContainingInRange(ranged.attr, ranged.bound,
                                                 frozen_dict_)) {
        Narrow(stored.tuple(pos));
      }
    } else {
      for (const NfrTuple& t : stored.tuples()) Narrow(t);
    }
    nfr_ = &narrowed_;
  }
  if (expand_) {
    SetStat("nfr_tuples", static_cast<int64_t>(nfr_->size()));
  } else {
    SetStat("materialized", nfr_ == &stored ? 0 : 1);
    ReportRows(nfr_->size());
  }
}

bool NarrowScanOp::NextImpl(FlatTuple* out) {
  if (!expand_) return false;
  while (true) {
    if (buffer_pos_ < buffer_.size()) {
      *out = buffer_[buffer_pos_++];
      return true;
    }
    if (tuple_index_ >= nfr_->size()) return false;
    buffer_ = nfr_->tuple(tuple_index_++).Expand();
    buffer_pos_ = 0;
  }
}

void NarrowScanOp::CloseImpl() {
  nfr_ = nullptr;
  narrowed_ = NfrRelation(source_->schema());
  tuple_index_ = 0;
  std::vector<FlatTuple>().swap(buffer_);
  buffer_pos_ = 0;
}

// --- Row transforms -------------------------------------------------------

UnionOp::UnionOp(std::string label, std::vector<std::unique_ptr<PlanOp>> inputs)
    : PlanOp(std::move(label), inputs.front()->schema()) {
  for (auto& input : inputs) AddChild(std::move(input));
}

bool UnionOp::NextImpl(FlatTuple* out) {
  for (; current_ < children().size(); ++current_) {
    if (child(current_)->Next(out)) return true;
  }
  return false;
}

void UnionOp::CloseImpl() { current_ = 0; }

FilterOp::FilterOp(std::string label, std::unique_ptr<PlanOp> input,
                   Predicate pred)
    : PlanOp(std::move(label), input->schema()), pred_(std::move(pred)) {
  AddChild(std::move(input));
}

bool FilterOp::NextImpl(FlatTuple* out) {
  while (child(0)->Next(out)) {
    if (pred_.EvalFlat(*out)) return true;
  }
  return false;
}

ProjectOp::ProjectOp(std::string label, std::unique_ptr<PlanOp> input,
                     std::vector<size_t> indices)
    : PlanOp(std::move(label), input->schema().Project(indices)),
      indices_(std::move(indices)) {
  AddChild(std::move(input));
}

bool ProjectOp::NextImpl(FlatTuple* out) {
  FlatTuple row;
  while (child(0)->Next(&row)) {
    FlatTuple projected = ExtractKey(row, indices_);
    if (seen_.insert(projected).second) {
      *out = std::move(projected);
      return true;
    }
  }
  return false;
}

void ProjectOp::CloseImpl() { seen_.clear(); }

JoinOp::JoinOp(std::string label, std::unique_ptr<PlanOp> left,
               std::unique_ptr<PlanOp> right)
    : PlanOp(std::move(label),
             JoinSchema(left->schema(), right->schema())) {
  const Schema& ls = left->schema();
  const Schema& rs = right->schema();
  for (size_t j = 0; j < rs.degree(); ++j) {
    std::optional<size_t> li = ls.IndexOf(rs.attribute(j).name);
    if (li.has_value()) {
      left_key_.push_back(*li);
      right_key_.push_back(j);
    } else {
      right_extra_.push_back(j);
    }
  }
  AddChild(std::move(left));
  AddChild(std::move(right));
}

void JoinOp::OpenImpl() {
  FlatTuple row;
  while (child(1)->Next(&row)) {
    table_[ExtractKey(row, right_key_)].push_back(row);
  }
  SetStat("build_rows", static_cast<int64_t>(child(1)->rows_out()));
}

bool JoinOp::NextImpl(FlatTuple* out) {
  while (true) {
    if (matches_ != nullptr && match_pos_ < matches_->size()) {
      const FlatTuple& right = (*matches_)[match_pos_++];
      std::vector<Value> values = left_row_.values();
      values.reserve(values.size() + right_extra_.size());
      for (size_t j : right_extra_) values.push_back(right.at(j));
      *out = FlatTuple(std::move(values));
      return true;
    }
    if (!child(0)->Next(&left_row_)) return false;
    auto it = table_.find(ExtractKey(left_row_, left_key_));
    matches_ = it == table_.end() ? nullptr : &it->second;
    match_pos_ = 0;
  }
}

void JoinOp::CloseImpl() {
  table_.clear();
  matches_ = nullptr;
  match_pos_ = 0;
}

// --- Aggregation ----------------------------------------------------------

Value AggResult(const AggCompute& agg, const AggState& state) {
  switch (agg.spec.func) {
    case AggSpec::Func::kCountStar:
      return Value::Int(static_cast<int64_t>(state.count));
    case AggSpec::Func::kCount:
      return Value::Int(static_cast<int64_t>(state.distinct.size()));
    case AggSpec::Func::kSum:
      return agg.type == ValueType::kInt ? Value::Int(state.isum)
                                         : Value::Double(state.dsum);
    case AggSpec::Func::kMin:
    case AggSpec::Func::kMax:
      return state.extreme.value_or(Value::Null());
  }
  return Value::Null();
}

AggregateOp::AggregateOp(std::string label, std::unique_ptr<PlanOp> input,
                         std::optional<size_t> group_attr,
                         std::vector<AggCompute> aggs, Schema output_schema)
    : PlanOp(std::move(label), std::move(output_schema)),
      group_(group_attr),
      aggs_(std::move(aggs)) {
  AddChild(std::move(input));
}

void AggregateOp::OpenImpl() {
  std::map<Value, std::vector<AggState>> groups;
  std::vector<AggState> global(aggs_.size());
  FlatTuple row;
  while (child(0)->Next(&row)) {
    if (group_.has_value()) {
      auto [it, inserted] = groups.try_emplace(row.at(*group_));
      if (inserted) it->second.resize(aggs_.size());
      FoldRow(row, aggs_, &it->second);
    } else {
      FoldRow(row, aggs_, &global);
    }
  }
  if (group_.has_value()) {
    SetStat("groups", static_cast<int64_t>(groups.size()));
  }
  results_ = FinalizeAggregates(group_, aggs_, groups, global);
  pos_ = 0;
}

bool AggregateOp::NextImpl(FlatTuple* out) {
  if (pos_ >= results_.size()) return false;
  *out = results_[pos_++];
  return true;
}

void AggregateOp::CloseImpl() {
  std::vector<FlatTuple>().swap(results_);
  pos_ = 0;
}

FactorizedAggregateOp::FactorizedAggregateOp(
    std::string label, std::vector<std::unique_ptr<NarrowScanOp>> sources,
    std::optional<size_t> group_attr, std::vector<AggCompute> aggs,
    Schema output_schema)
    : PlanOp(std::move(label), std::move(output_schema)),
      group_(group_attr),
      aggs_(std::move(aggs)) {
  for (auto& source : sources) {
    sources_.push_back(
        static_cast<NarrowScanOp*>(AddChild(std::move(source))));
  }
}

void FactorizedAggregateOp::OpenImpl() {
  std::map<Value, std::vector<AggState>> groups;
  std::vector<AggState> global(aggs_.size());
  for (const NarrowScanOp* source : sources_) {
    for (const NfrTuple& t : source->nfr()->tuples()) {
      if (group_.has_value()) {
        for (const Value& gv : t.at(*group_).values()) {
          auto [it, inserted] = groups.try_emplace(gv);
          if (inserted) it->second.resize(aggs_.size());
          FoldFactorized(t, *group_, &gv, aggs_, &it->second);
        }
      } else {
        FoldFactorized(t, kNoSkip, nullptr, aggs_, &global);
      }
    }
  }
  if (group_.has_value()) {
    SetStat("groups", static_cast<int64_t>(groups.size()));
  }
  results_ = FinalizeAggregates(group_, aggs_, groups, global);
  pos_ = 0;
}

bool FactorizedAggregateOp::NextImpl(FlatTuple* out) {
  if (pos_ >= results_.size()) return false;
  *out = results_[pos_++];
  return true;
}

void FactorizedAggregateOp::CloseImpl() {
  std::vector<FlatTuple>().swap(results_);
  pos_ = 0;
}

// --- Ordering -------------------------------------------------------------

SortOp::SortOp(std::string label, std::unique_ptr<PlanOp> input, size_t col,
               bool desc)
    : PlanOp(std::move(label), input->schema()), col_(col), desc_(desc) {
  AddChild(std::move(input));
}

void SortOp::OpenImpl() {
  FlatTuple row;
  while (child(0)->Next(&row)) rows_.push_back(std::move(row));
  std::stable_sort(rows_.begin(), rows_.end(),
                   [this](const FlatTuple& a, const FlatTuple& b) {
                     return desc_ ? b.at(col_) < a.at(col_)
                                  : a.at(col_) < b.at(col_);
                   });
  pos_ = 0;
}

bool SortOp::NextImpl(FlatTuple* out) {
  if (pos_ >= rows_.size()) return false;
  *out = rows_[pos_++];
  return true;
}

void SortOp::CloseImpl() {
  std::vector<FlatTuple>().swap(rows_);
  pos_ = 0;
}

LimitOp::LimitOp(std::string label, std::unique_ptr<PlanOp> input,
                 uint64_t limit)
    : PlanOp(std::move(label), input->schema()), limit_(limit) {
  AddChild(std::move(input));
}

bool LimitOp::NextImpl(FlatTuple* out) {
  if (emitted_ >= limit_) return false;
  if (!child(0)->Next(out)) return false;
  ++emitted_;
  return true;
}

void LimitOp::CloseImpl() { emitted_ = 0; }

}  // namespace nf2
