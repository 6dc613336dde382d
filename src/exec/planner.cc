#include "exec/planner.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/string_util.h"

namespace nf2 {

namespace {

/// Flattens the top-level AND chain of a WHERE tree — the conjuncts the
/// planner may independently route through the index.
void CollectConjuncts(const ConditionNode& node,
                      std::vector<const ConditionNode*>* out) {
  if (node.kind == ConditionNode::Kind::kAnd) {
    CollectConjuncts(*node.left, out);
    CollectConjuncts(*node.right, out);
    return;
  }
  out->push_back(&node);
}

std::string EqListLabel(const Schema& schema,
                        const std::vector<EqRestriction>& eqs) {
  std::vector<std::string> parts;
  parts.reserve(eqs.size());
  for (const EqRestriction& eq : eqs) {
    parts.push_back(StrCat(schema.attribute(eq.attr).name, " = ",
                           eq.value.ToString()));
  }
  return Join(parts, ", ");
}

bool IsRangeOp(const std::string& op) {
  return op == "<" || op == "<=" || op == ">" || op == ">=";
}

/// Folds one `attr <op> literal` comparison into `b`, keeping the
/// tightest interval (exclusive wins over inclusive at an equal bound).
void TightenBound(const std::string& op, const Value& v, RangeBound* b) {
  if (op == ">" || op == ">=") {
    const bool incl = op == ">=";
    if (!b->lower.has_value() || *b->lower < v) {
      b->lower = v;
      b->lower_inclusive = incl;
    } else if (!(v < *b->lower)) {
      b->lower_inclusive = b->lower_inclusive && incl;
    }
  } else {
    const bool incl = op == "<=";
    if (!b->upper.has_value() || v < *b->upper) {
      b->upper = v;
      b->upper_inclusive = incl;
    } else if (!(*b->upper < v)) {
      b->upper_inclusive = b->upper_inclusive && incl;
    }
  }
}

std::string RangeLabel(const Schema& schema, const RangeRestriction& range) {
  const std::string& name = schema.attribute(range.attr).name;
  std::vector<std::string> parts;
  if (range.bound.lower.has_value()) {
    parts.push_back(StrCat(name, range.bound.lower_inclusive ? " >= " : " > ",
                           range.bound.lower->ToString()));
  }
  if (range.bound.upper.has_value()) {
    parts.push_back(StrCat(name, range.bound.upper_inclusive ? " <= " : " < ",
                           range.bound.upper->ToString()));
  }
  return Join(parts, ", ");
}

std::string AggListLabel(const SelectStatement& stmt) {
  std::vector<std::string> parts;
  parts.reserve(stmt.aggregates.size());
  for (const AggSpec& spec : stmt.aggregates) {
    parts.push_back(spec.Label());
  }
  std::string aggs = Join(parts, ", ");
  return stmt.group_attr.empty() ? aggs
                                 : StrCat(stmt.group_attr, ": ", aggs);
}

/// Resolves the aggregate list against the schema its input rows (or
/// NFR tuples) carry; SUM is type-checked here so execution stays
/// infallible.
Result<std::vector<AggCompute>> ResolveAggregates(
    const std::vector<AggSpec>& specs, const Schema& schema) {
  std::vector<AggCompute> out;
  out.reserve(specs.size());
  for (const AggSpec& spec : specs) {
    AggCompute agg;
    agg.spec = spec;
    if (spec.func != AggSpec::Func::kCountStar) {
      NF2_ASSIGN_OR_RETURN(agg.attr, schema.RequireIndex(spec.attr));
      agg.type = schema.attribute(agg.attr).type;
      if (spec.func == AggSpec::Func::kSum &&
          agg.type != ValueType::kInt && agg.type != ValueType::kDouble) {
        return Status::InvalidArgument(
            StrCat("SUM requires a numeric attribute; ", spec.attr, " is ",
                   ValueTypeToString(agg.type)));
      }
    }
    out.push_back(std::move(agg));
  }
  return out;
}

/// Output schema of an aggregation: the group attribute (if any)
/// followed by one column per aggregate, named by its canonical label.
Schema AggregateOutputSchema(const Schema& input,
                             const std::optional<size_t>& group,
                             const std::vector<AggCompute>& aggs) {
  std::vector<Attribute> attrs;
  attrs.reserve((group.has_value() ? 1 : 0) + aggs.size());
  if (group.has_value()) attrs.push_back(input.attribute(*group));
  for (const AggCompute& agg : aggs) {
    ValueType type = ValueType::kInt;  // COUNT(*)/COUNT(a).
    if (agg.spec.func == AggSpec::Func::kSum ||
        agg.spec.func == AggSpec::Func::kMin ||
        agg.spec.func == AggSpec::Func::kMax) {
      type = agg.type;
    }
    attrs.push_back({agg.spec.Label(), type});
  }
  return Schema(std::move(attrs));
}

/// The per-shard copies of one access path, concatenated in shard
/// order; a single leaf stands alone.
std::unique_ptr<PlanOp> UnionOf(std::vector<std::unique_ptr<PlanOp>> leaves) {
  if (leaves.size() == 1) return std::move(leaves.front());
  return std::make_unique<UnionOp>("union", std::move(leaves));
}

}  // namespace

Result<Predicate> ResolveCondition(const ConditionNode& node,
                                   const Schema& schema) {
  switch (node.kind) {
    case ConditionNode::Kind::kCompare: {
      NF2_ASSIGN_OR_RETURN(size_t attr, schema.RequireIndex(node.attribute));
      CompareOp op;
      if (node.op == "=") {
        op = CompareOp::kEq;
      } else if (node.op == "!=") {
        op = CompareOp::kNe;
      } else if (node.op == "<") {
        op = CompareOp::kLt;
      } else if (node.op == "<=") {
        op = CompareOp::kLe;
      } else if (node.op == ">") {
        op = CompareOp::kGt;
      } else if (node.op == ">=") {
        op = CompareOp::kGe;
      } else {
        return Status::InvalidArgument(
            StrCat("unknown comparison '", node.op, "'"));
      }
      return Predicate::Compare(attr, op, node.literal);
    }
    case ConditionNode::Kind::kAnd: {
      NF2_ASSIGN_OR_RETURN(Predicate left,
                           ResolveCondition(*node.left, schema));
      NF2_ASSIGN_OR_RETURN(Predicate right,
                           ResolveCondition(*node.right, schema));
      return Predicate::And(std::move(left), std::move(right));
    }
    case ConditionNode::Kind::kOr: {
      NF2_ASSIGN_OR_RETURN(Predicate left,
                           ResolveCondition(*node.left, schema));
      NF2_ASSIGN_OR_RETURN(Predicate right,
                           ResolveCondition(*node.right, schema));
      return Predicate::Or(std::move(left), std::move(right));
    }
    case ConditionNode::Kind::kNot: {
      NF2_ASSIGN_OR_RETURN(Predicate inner,
                           ResolveCondition(*node.left, schema));
      return Predicate::Not(std::move(inner));
    }
  }
  return Status::Internal("unhandled condition kind");
}

Result<SelectPlan> PlanSelect(const SelectStatement& stmt,
                              const CatalogView& catalog) {
  const CatalogView* const one[] = {&catalog};
  return PlanSelect(stmt, one);
}

Result<SelectPlan> PlanSelect(const SelectStatement& stmt,
                              std::span<const CatalogView* const> shards) {
  std::vector<BoundRelation> bases;
  bases.reserve(shards.size());
  for (const CatalogView* shard : shards) {
    NF2_ASSIGN_OR_RETURN(BoundRelation base, shard->Bind(stmt.name));
    bases.push_back(base);
  }
  // Every shard holds the relation under the same catalog entry.
  const Schema& schema = bases.front().info->schema;

  // Split the WHERE clause (single-relation case): top-level AND-ed
  // `attr = value` conjuncts become index restrictions, the rest a
  // residual filter. Joined queries resolve the whole clause against
  // the joined schema instead.
  std::vector<EqRestriction> eqs;
  std::optional<RangeRestriction> range;
  std::optional<Predicate> residual;
  if (stmt.where != nullptr && stmt.joins.empty()) {
    std::vector<const ConditionNode*> conjuncts;
    CollectConjuncts(*stmt.where, &conjuncts);
    // Range conjuncts become a bound-scan only when no equality conjunct
    // exists (point postings beat an interval walk) and the query is not
    // an aggregate (the factorized path evaluates residuals itself).
    bool any_eq = false;
    for (const ConditionNode* c : conjuncts) {
      any_eq = any_eq || (c->kind == ConditionNode::Kind::kCompare &&
                          c->op == "=");
    }
    const bool try_range = !any_eq && stmt.aggregates.empty();
    for (const ConditionNode* c : conjuncts) {
      if (c->kind == ConditionNode::Kind::kCompare && c->op == "=") {
        NF2_ASSIGN_OR_RETURN(size_t attr,
                             schema.RequireIndex(c->attribute));
        eqs.push_back({attr, c->literal});
        continue;
      }
      if (try_range && c->kind == ConditionNode::Kind::kCompare &&
          IsRangeOp(c->op)) {
        NF2_ASSIGN_OR_RETURN(size_t attr,
                             schema.RequireIndex(c->attribute));
        // All bounds on the first ranged attribute fold into one
        // interval; ranges on other attributes stay residual.
        if (!range.has_value()) range = RangeRestriction{attr, {}};
        if (range->attr == attr) {
          TightenBound(c->op, c->literal, &range->bound);
          continue;
        }
      }
      NF2_ASSIGN_OR_RETURN(Predicate p, ResolveCondition(*c, schema));
      residual = residual.has_value() ? Predicate::And(*residual, p) : p;
    }
  }

  // Base access path + joins + filter, as a row pipeline.
  auto make_row_source = [&]() -> Result<std::unique_ptr<PlanOp>> {
    std::vector<std::unique_ptr<PlanOp>> leaves;
    for (size_t i = 0; i < shards.size(); ++i) {
      const DictionaryView* frozen = shards[i]->frozen_dictionary();
      if (!eqs.empty()) {
        leaves.push_back(std::make_unique<IndexScanOp>(
            StrCat("index_scan(", stmt.name, ": ", EqListLabel(schema, eqs),
                   ")"),
            bases[i].relation, frozen, eqs));
      } else if (range.has_value()) {
        leaves.push_back(std::make_unique<IndexRangeScanOp>(
            StrCat("index_range_scan(", stmt.name, ": ",
                   RangeLabel(schema, *range), ")"),
            bases[i].relation, frozen, *range));
      } else {
        leaves.push_back(std::make_unique<SeqScanOp>(
            StrCat("scan(", stmt.name, ")"), &bases[i].relation->relation()));
      }
    }
    std::unique_ptr<PlanOp> op = UnionOf(std::move(leaves));
    if (residual.has_value()) {
      op = std::make_unique<FilterOp>(StrCat("filter(", stmt.name, ")"),
                                      std::move(op), *residual);
    }
    for (const std::string& join_name : stmt.joins) {
      std::vector<std::unique_ptr<PlanOp>> right_scans;
      for (const CatalogView* shard : shards) {
        NF2_ASSIGN_OR_RETURN(BoundRelation right, shard->Bind(join_name));
        right_scans.push_back(std::make_unique<SeqScanOp>(
            StrCat("scan(", join_name, ")"), &right.relation->relation()));
      }
      op = std::make_unique<JoinOp>(StrCat("join(", join_name, ")"),
                                    std::move(op),
                                    UnionOf(std::move(right_scans)));
    }
    if (stmt.where != nullptr && !stmt.joins.empty()) {
      NF2_ASSIGN_OR_RETURN(Predicate pred,
                           ResolveCondition(*stmt.where, op->schema()));
      op = std::make_unique<FilterOp>("filter", std::move(op), pred);
    }
    return op;
  };

  SelectPlan plan;
  std::unique_ptr<PlanOp> op;
  if (!stmt.aggregates.empty()) {
    // Factorized when nothing forces row-at-a-time evaluation: the
    // aggregate then runs straight over the NFR components and R* is
    // never expanded.
    const bool factorized = stmt.joins.empty() && !residual.has_value();
    if (factorized) {
      std::optional<size_t> group;
      if (!stmt.group_attr.empty()) {
        NF2_ASSIGN_OR_RETURN(size_t g, schema.RequireIndex(stmt.group_attr));
        group = g;
      }
      NF2_ASSIGN_OR_RETURN(std::vector<AggCompute> aggs,
                           ResolveAggregates(stmt.aggregates, schema));
      std::vector<std::unique_ptr<NfrSourceOp>> sources;
      for (size_t i = 0; i < shards.size(); ++i) {
        if (!eqs.empty()) {
          sources.push_back(std::make_unique<NfrSourceOp>(
              StrCat("nfr_index_scan(", stmt.name, ": ",
                     EqListLabel(schema, eqs), ")"),
              bases[i].relation, shards[i]->frozen_dictionary(), eqs));
        } else {
          sources.push_back(std::make_unique<NfrSourceOp>(
              StrCat("nfr_scan(", stmt.name, ")"),
              &bases[i].relation->relation()));
        }
      }
      Schema out_schema = AggregateOutputSchema(schema, group, aggs);
      op = std::make_unique<FactorizedAggregateOp>(
          StrCat("nfr_aggregate(", AggListLabel(stmt), ")"),
          std::move(sources), group, std::move(aggs), std::move(out_schema));
      plan.shape = group.has_value() ? StatementResult::Shape::kGrouped
                                     : StatementResult::Shape::kAggregate;
    } else {
      NF2_ASSIGN_OR_RETURN(std::unique_ptr<PlanOp> input, make_row_source());
      const Schema& in_schema = input->schema();
      std::optional<size_t> group;
      if (!stmt.group_attr.empty()) {
        NF2_ASSIGN_OR_RETURN(size_t g,
                             in_schema.RequireIndex(stmt.group_attr));
        group = g;
      }
      NF2_ASSIGN_OR_RETURN(std::vector<AggCompute> aggs,
                           ResolveAggregates(stmt.aggregates, in_schema));
      Schema out_schema = AggregateOutputSchema(in_schema, group, aggs);
      op = std::make_unique<AggregateOp>(
          StrCat("aggregate(", AggListLabel(stmt), ")"), std::move(input),
          group, std::move(aggs), std::move(out_schema));
      plan.shape = group.has_value() ? StatementResult::Shape::kGrouped
                                     : StatementResult::Shape::kAggregate;
    }
  } else {
    NF2_ASSIGN_OR_RETURN(op, make_row_source());
    // ORDER BY may name a column the projection drops; sort below the
    // project in that case, while the key is still present. Projection
    // dedup streams in arrival order, so the sort survives it (the
    // first-seen row wins among projected duplicates).
    if (!stmt.order_attr.empty() && !stmt.columns.empty() &&
        std::find(stmt.columns.begin(), stmt.columns.end(),
                  stmt.order_attr) == stmt.columns.end()) {
      NF2_ASSIGN_OR_RETURN(size_t col,
                           op->schema().RequireIndex(stmt.order_attr));
      op = std::make_unique<SortOp>(
          StrCat("sort(", stmt.order_attr, stmt.order_desc ? " desc" : "",
                 ")"),
          std::move(op), col, stmt.order_desc);
      plan.shape = StatementResult::Shape::kOrdered;
    }
    if (!stmt.columns.empty()) {
      std::vector<size_t> indices;
      indices.reserve(stmt.columns.size());
      for (const std::string& col : stmt.columns) {
        NF2_ASSIGN_OR_RETURN(size_t idx, op->schema().RequireIndex(col));
        indices.push_back(idx);
      }
      op = std::make_unique<ProjectOp>(
          StrCat("project(", Join(stmt.columns, ", "), ")"), std::move(op),
          std::move(indices));
    }
  }

  if (!stmt.order_attr.empty() &&
      plan.shape != StatementResult::Shape::kOrdered) {
    // Aggregate output columns are named by their canonical labels, so
    // `ORDER BY COUNT(*)` resolves like any other column.
    NF2_ASSIGN_OR_RETURN(size_t col,
                         op->schema().RequireIndex(stmt.order_attr));
    op = std::make_unique<SortOp>(
        StrCat("sort(", stmt.order_attr, stmt.order_desc ? " desc" : "",
               ")"),
        std::move(op), col, stmt.order_desc);
    // Aggregates keep their own shape; the sort only orders their rows.
    if (plan.shape == StatementResult::Shape::kSet) {
      plan.shape = StatementResult::Shape::kOrdered;
    }
  }
  if (stmt.limit.has_value()) {
    op = std::make_unique<LimitOp>(StrCat("limit(", *stmt.limit, ")"),
                                   std::move(op), *stmt.limit);
  }
  plan.root = std::move(op);
  return plan;
}

StatementResult DrainPlan(const SelectPlan& plan) {
  plan.root->Open();
  std::vector<FlatTuple> rows;
  FlatTuple row;
  while (plan.root->Next(&row)) {
    rows.push_back(std::move(row));
  }
  plan.root->Close();
  return StatementResult::Rows(plan.shape, plan.root->schema(),
                               std::move(rows));
}

std::optional<Value> EqualityConjunct(const ConditionNode* where,
                                      const std::string& attr) {
  if (where == nullptr) return std::nullopt;
  std::vector<const ConditionNode*> conjuncts;
  CollectConjuncts(*where, &conjuncts);
  for (const ConditionNode* c : conjuncts) {
    if (c->kind == ConditionNode::Kind::kCompare && c->op == "=" &&
        c->attribute == attr) {
      return c->literal;
    }
  }
  return std::nullopt;
}

}  // namespace nf2
