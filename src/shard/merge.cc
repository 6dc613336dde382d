#include "shard/merge.h"

#include <algorithm>
#include <map>
#include <queue>
#include <set>
#include <unordered_set>
#include <utility>

#include "exec/plan.h"
#include "exec/planner.h"
#include "util/string_util.h"

namespace nf2 {
namespace shard {

namespace {

/// Plans and drains `stmt` on one shard, returning the produced rows
/// (and, when requested, the plan's output schema).
Result<std::vector<FlatTuple>> RunOnShard(const SelectStatement& stmt,
                                          const ReadView& shard,
                                          Schema* schema_out) {
  NF2_ASSIGN_OR_RETURN(SelectPlan plan, PlanSelect(stmt, shard));
  plan.root->Open();
  std::vector<FlatTuple> rows;
  FlatTuple row;
  while (plan.root->Next(&row)) {
    rows.push_back(std::move(row));
  }
  plan.root->Close();
  if (schema_out != nullptr) *schema_out = plan.root->schema();
  return rows;
}

/// K-way merge of per-shard runs already sorted on column `col`; ties
/// resolve to the lower shard index (deterministic merge order).
std::vector<FlatTuple> KWayMergeByColumn(
    const std::vector<std::vector<FlatTuple>>& runs, size_t col,
    bool desc) {
  struct Head {
    size_t run;
    size_t pos;
  };
  // "true" means a sorts after b — priority_queue then surfaces the
  // next row of the merged order at top().
  auto after = [&runs, col, desc](const Head& a, const Head& b) {
    const Value& va = runs[a.run][a.pos].at(col);
    const Value& vb = runs[b.run][b.pos].at(col);
    if (vb < va) return !desc;
    if (va < vb) return desc;
    return a.run > b.run;
  };
  std::priority_queue<Head, std::vector<Head>, decltype(after)> heap(after);
  size_t total = 0;
  for (size_t i = 0; i < runs.size(); ++i) {
    total += runs[i].size();
    if (!runs[i].empty()) heap.push(Head{i, 0});
  }
  std::vector<FlatTuple> out;
  out.reserve(total);
  while (!heap.empty()) {
    Head head = heap.top();
    heap.pop();
    out.push_back(runs[head.run][head.pos]);
    if (head.pos + 1 < runs[head.run].size()) {
      heap.push(Head{head.run, head.pos + 1});
    }
  }
  return out;
}

/// Keep-first deduplication in the rows' current order (what a global
/// ProjectOp would have produced).
void DedupeKeepFirst(std::vector<FlatTuple>* rows) {
  std::unordered_set<FlatTuple> seen;
  std::vector<FlatTuple> out;
  out.reserve(rows->size());
  for (FlatTuple& row : *rows) {
    if (seen.insert(row).second) out.push_back(std::move(row));
  }
  *rows = std::move(out);
}

void ApplyLimit(const std::optional<uint64_t>& limit,
                std::vector<FlatTuple>* rows) {
  if (limit.has_value() && rows->size() > *limit) {
    rows->resize(static_cast<size_t>(*limit));
  }
}

/// Plain (unprojected or projected, unordered) SELECT: concatenate in
/// shard order. Full rows are disjoint across shards (a row lives on
/// exactly the shard its partition value hashes to), so duplicates are
/// only possible under projection. LIMIT is pushed down per shard only
/// in the full-row case — under projection a per-shard cut could starve
/// the post-dedup global LIMIT.
Result<StatementResult> ScatterPlain(const SelectStatement& stmt,
                                     const std::vector<ReadView>& shards,
                                     uint64_t* merged_rows) {
  const bool projected = !stmt.columns.empty();
  SelectStatement per = CloneSelect(stmt);
  if (projected) per.limit.reset();
  Schema schema;
  std::vector<FlatTuple> rows;
  for (size_t i = 0; i < shards.size(); ++i) {
    NF2_ASSIGN_OR_RETURN(
        std::vector<FlatTuple> part,
        RunOnShard(per, shards[i], i == 0 ? &schema : nullptr));
    if (merged_rows != nullptr) *merged_rows += part.size();
    for (FlatTuple& row : part) rows.push_back(std::move(row));
  }
  if (projected) DedupeKeepFirst(&rows);
  ApplyLimit(stmt.limit, &rows);
  return StatementResult::Rows(StatementResult::Shape::kSet,
                               std::move(schema), std::move(rows));
}

/// ORDER BY SELECT: per-shard runs arrive sorted (each shard ran the
/// full plan including its SortOp); the router re-merges them. When the
/// projection drops the order column (the planner's sort-below-project
/// case) the shards return full-width rows and the router projects
/// after the merge, preserving the merged order.
Result<StatementResult> ScatterOrdered(const SelectStatement& stmt,
                                       const std::vector<ReadView>& shards,
                                       uint64_t* merged_rows) {
  const bool projected = !stmt.columns.empty();
  const bool survives =
      !projected || std::find(stmt.columns.begin(), stmt.columns.end(),
                              stmt.order_attr) != stmt.columns.end();
  SelectStatement per = CloneSelect(stmt);
  if (projected) {
    per.limit.reset();
    if (!survives) per.columns.clear();
  }
  Schema schema;
  std::vector<std::vector<FlatTuple>> runs(shards.size());
  for (size_t i = 0; i < shards.size(); ++i) {
    NF2_ASSIGN_OR_RETURN(runs[i],
                         RunOnShard(per, shards[i], i == 0 ? &schema : nullptr));
    if (merged_rows != nullptr) *merged_rows += runs[i].size();
  }
  NF2_ASSIGN_OR_RETURN(size_t order_pos,
                       schema.RequireIndex(stmt.order_attr));
  std::vector<FlatTuple> rows =
      KWayMergeByColumn(runs, order_pos, stmt.order_desc);
  Schema out_schema = schema;
  if (!survives) {
    std::vector<size_t> indices;
    indices.reserve(stmt.columns.size());
    for (const std::string& name : stmt.columns) {
      NF2_ASSIGN_OR_RETURN(size_t idx, schema.RequireIndex(name));
      indices.push_back(idx);
    }
    for (FlatTuple& row : rows) {
      std::vector<Value> cells;
      cells.reserve(indices.size());
      for (size_t idx : indices) cells.push_back(row.at(idx));
      row = FlatTuple(std::move(cells));
    }
    out_schema = schema.Project(indices);
  }
  if (projected) DedupeKeepFirst(&rows);
  ApplyLimit(stmt.limit, &rows);
  return StatementResult::Rows(StatementResult::Shape::kOrdered,
                               std::move(out_schema), std::move(rows));
}

/// Folds one shard's partial aggregate value into the accumulator.
/// COUNT(attr) reaches here only for the partition attribute, where
/// per-shard distinct sets are hash-disjoint and the counts add.
void FoldPartial(const AggSpec& spec, Value* acc, const Value& next) {
  switch (spec.func) {
    case AggSpec::Func::kCountStar:
    case AggSpec::Func::kCount:
      *acc = Value::Int(acc->AsInt() + next.AsInt());
      return;
    case AggSpec::Func::kSum:
      if (acc->type() == ValueType::kDouble ||
          next.type() == ValueType::kDouble) {
        *acc = Value::Double(acc->AsDouble() + next.AsDouble());
      } else {
        *acc = Value::Int(acc->AsInt() + next.AsInt());
      }
      return;
    case AggSpec::Func::kMin:
      if (next.is_null()) return;
      if (acc->is_null() || next < *acc) *acc = next;
      return;
    case AggSpec::Func::kMax:
      if (next.is_null()) return;
      if (acc->is_null() || *acc < next) *acc = next;
      return;
  }
}

/// Global distinct counts for COUNT(attr) on a non-partition attribute:
/// per-shard distinct sets can overlap, so the router re-projects
/// (group,) attr on every shard, unions the pairs, and counts. The
/// companion sees the same WHERE, so it observes exactly the aggregated
/// rows.
struct DistinctCounts {
  std::map<Value, int64_t> per_group;
  int64_t total = 0;
};

Result<DistinctCounts> CompanionDistinct(
    const SelectStatement& stmt, const std::string& attr,
    const std::vector<ReadView>& shards) {
  SelectStatement comp;
  comp.name = stmt.name;
  if (!stmt.group_attr.empty()) comp.columns.push_back(stmt.group_attr);
  comp.columns.push_back(attr);
  comp.where = CloneCondition(stmt.where.get());
  std::set<FlatTuple> uni;
  for (const ReadView& shard : shards) {
    NF2_ASSIGN_OR_RETURN(std::vector<FlatTuple> part,
                         RunOnShard(comp, shard, nullptr));
    for (FlatTuple& row : part) uni.insert(std::move(row));
  }
  DistinctCounts out;
  if (stmt.group_attr.empty()) {
    out.total = static_cast<int64_t>(uni.size());
  } else {
    for (const FlatTuple& row : uni) ++out.per_group[row.at(0)];
  }
  return out;
}

/// Aggregate (grouped or not) SELECT: per-shard partials, combined per
/// aggregate function; ORDER BY and LIMIT re-applied over the merged
/// groups (a per-shard LIMIT over partial groups would be wrong, so it
/// is stripped from the scattered statement).
Result<StatementResult> ScatterAggregate(
    const SelectStatement& stmt, const std::vector<ReadView>& shards,
    const std::string& partition_attr, uint64_t* merged_rows) {
  const bool grouped = !stmt.group_attr.empty();
  const size_t agg_base = grouped ? 1 : 0;
  SelectStatement per = CloneSelect(stmt);
  per.limit.reset();
  Schema schema;
  std::vector<std::vector<FlatTuple>> parts(shards.size());
  for (size_t i = 0; i < shards.size(); ++i) {
    NF2_ASSIGN_OR_RETURN(
        parts[i], RunOnShard(per, shards[i], i == 0 ? &schema : nullptr));
    if (merged_rows != nullptr) *merged_rows += parts[i].size();
  }

  std::vector<FlatTuple> rows;
  if (grouped) {
    // Same std::map the single-engine AggregateOp accumulates into, so
    // un-ORDER BY'd group order (ascending group key) matches.
    std::map<Value, std::vector<Value>> acc;
    for (const std::vector<FlatTuple>& part : parts) {
      for (const FlatTuple& row : part) {
        auto [it, inserted] = acc.try_emplace(
            row.at(0), row.values().begin() + 1, row.values().end());
        if (inserted) continue;
        for (size_t j = 0; j < stmt.aggregates.size(); ++j) {
          FoldPartial(stmt.aggregates[j], &it->second[j],
                      row.at(agg_base + j));
        }
      }
    }
    rows.reserve(acc.size());
    for (auto& [group, aggs] : acc) {
      std::vector<Value> cells;
      cells.reserve(1 + aggs.size());
      cells.push_back(group);
      for (Value& v : aggs) cells.push_back(std::move(v));
      rows.emplace_back(std::move(cells));
    }
  } else {
    std::vector<Value> acc;
    for (const std::vector<FlatTuple>& part : parts) {
      if (part.empty()) continue;  // Ungrouped plans emit exactly one row.
      if (acc.empty()) {
        acc.assign(part.front().values().begin(),
                   part.front().values().end());
        continue;
      }
      for (size_t j = 0; j < stmt.aggregates.size(); ++j) {
        FoldPartial(stmt.aggregates[j], &acc[j], part.front().at(j));
      }
    }
    if (!acc.empty()) rows.emplace_back(std::move(acc));
  }

  // COUNT(attr) is a DISTINCT count; summing per-shard partials is only
  // valid when the counted attribute is the partition attribute.
  // COUNT(group_attr) within its own group is always 1.
  for (size_t j = 0; j < stmt.aggregates.size(); ++j) {
    const AggSpec& agg = stmt.aggregates[j];
    if (agg.func != AggSpec::Func::kCount) continue;
    if (agg.attr == partition_attr) continue;
    if (grouped && agg.attr == stmt.group_attr) {
      for (FlatTuple& row : rows) row.at(agg_base + j) = Value::Int(1);
      continue;
    }
    NF2_ASSIGN_OR_RETURN(DistinctCounts counts,
                         CompanionDistinct(stmt, agg.attr, shards));
    if (grouped) {
      for (FlatTuple& row : rows) {
        auto it = counts.per_group.find(row.at(0));
        row.at(agg_base + j) =
            Value::Int(it != counts.per_group.end() ? it->second : 0);
      }
    } else if (!rows.empty()) {
      rows.front().at(j) = Value::Int(counts.total);
    }
  }

  if (!stmt.order_attr.empty()) {
    // Resolve ORDER BY against the aggregate output's column names,
    // exactly as the single-engine plan's SortOp does.
    std::vector<std::string> names;
    if (grouped) names.push_back(stmt.group_attr);
    for (const AggSpec& agg : stmt.aggregates) names.push_back(agg.Label());
    auto it = std::find(names.begin(), names.end(), stmt.order_attr);
    if (it == names.end()) {
      return Status::Internal(
          StrCat("unresolved ORDER BY column '", stmt.order_attr, "'"));
    }
    const size_t pos = static_cast<size_t>(it - names.begin());
    const bool desc = stmt.order_desc;
    std::stable_sort(rows.begin(), rows.end(),
                     [pos, desc](const FlatTuple& a, const FlatTuple& b) {
                       return desc ? b.at(pos) < a.at(pos)
                                   : a.at(pos) < b.at(pos);
                     });
  }
  ApplyLimit(stmt.limit, &rows);
  return StatementResult::Rows(grouped ? StatementResult::Shape::kGrouped
                                       : StatementResult::Shape::kAggregate,
                               std::move(schema), std::move(rows));
}

}  // namespace

std::unique_ptr<ConditionNode> CloneCondition(const ConditionNode* node) {
  if (node == nullptr) return nullptr;
  auto out = std::make_unique<ConditionNode>();
  out->kind = node->kind;
  out->attribute = node->attribute;
  out->op = node->op;
  out->literal = node->literal;
  out->left = CloneCondition(node->left.get());
  out->right = CloneCondition(node->right.get());
  return out;
}

SelectStatement CloneSelect(const SelectStatement& stmt) {
  SelectStatement out;
  out.name = stmt.name;
  out.joins = stmt.joins;
  out.columns = stmt.columns;
  out.aggregates = stmt.aggregates;
  out.group_attr = stmt.group_attr;
  out.order_attr = stmt.order_attr;
  out.order_desc = stmt.order_desc;
  out.limit = stmt.limit;
  out.where = CloneCondition(stmt.where.get());
  return out;
}

Result<StatementResult> ScatterSelect(const SelectStatement& stmt,
                                      const std::vector<ReadView>& shards,
                                      const std::string& partition_attr,
                                      uint64_t* merged_rows) {
  if (!stmt.aggregates.empty()) {
    return ScatterAggregate(stmt, shards, partition_attr, merged_rows);
  }
  if (!stmt.order_attr.empty()) {
    return ScatterOrdered(stmt, shards, merged_rows);
  }
  return ScatterPlain(stmt, shards, merged_rows);
}

}  // namespace shard
}  // namespace nf2
