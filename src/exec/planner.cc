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

/// A single-relation WHERE clause split for the narrowing leaf: the
/// selection its single-attribute conjuncts make, the label text that
/// names them, and the conjuncts relating two attributes, which stay a
/// row filter.
struct SplitWhere {
  Selection selection;
  std::string label;  // "A = a1, B != b9"; empty when unrestricted.
  std::optional<Predicate> residual;
};

/// Groups the top-level AND-ed conjuncts of `where` by the one
/// attribute each references. The first `=` conjunct becomes the
/// probe; without one, the first attribute with a range conjunct is
/// bound-scanned. The label names the probe's `=` conjuncts (or the
/// scanned interval), then every other restriction in clause order.
Result<SplitWhere> SplitConjuncts(const ConditionNode* where,
                                  const Schema& schema) {
  SplitWhere out;
  if (where == nullptr) return out;
  std::vector<const ConditionNode*> conjuncts;
  CollectConjuncts(*where, &conjuncts);
  std::vector<Predicate> preds;
  std::vector<std::optional<size_t>> attrs;
  for (const ConditionNode* c : conjuncts) {
    NF2_ASSIGN_OR_RETURN(Predicate p, ResolveCondition(*c, schema));
    attrs.push_back(p.SoleAttr());
    preds.push_back(std::move(p));
  }
  // The operator of an `attr <op> literal` conjunct, or null.
  auto compare_op = [&](size_t i) -> const std::string* {
    return conjuncts[i]->kind == ConditionNode::Kind::kCompare
               ? &conjuncts[i]->op
               : nullptr;
  };
  Selection& sel = out.selection;
  auto restriction_of = [&](size_t attr) {
    return std::find_if(
        sel.restrictions.begin(), sel.restrictions.end(),
        [attr](const AttrRestriction& r) { return r.attr == attr; });
  };
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    if (!attrs[i].has_value()) {
      out.residual = out.residual.has_value()
                         ? Predicate::And(*out.residual, preds[i])
                         : preds[i];
      continue;
    }
    auto it = restriction_of(*attrs[i]);
    if (it == sel.restrictions.end()) {
      it = sel.restrictions.insert(it, {*attrs[i], preds[i], {}});
    } else {
      it->pred = Predicate::And(it->pred, preds[i]);
    }
    AttrRestriction& r = *it;
    const std::string* op = compare_op(i);
    if (op == nullptr) continue;
    const Value& literal = conjuncts[i]->literal;
    if (*op == "=") {
      TightenBound(">=", literal, &r.bound);
      TightenBound("<=", literal, &r.bound);
      if (!sel.probe.has_value()) sel.probe = EqRestriction{r.attr, literal};
    } else if (IsRangeOp(*op)) {
      TightenBound(*op, literal, &r.bound);
    }
  }
  std::vector<std::string> parts;
  std::vector<bool> named(conjuncts.size(), false);
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    const std::string* op = compare_op(i);
    if (op == nullptr) continue;
    if (sel.probe.has_value() && *op == "=") {
      parts.push_back(preds[i].ToString(schema));
      named[i] = true;
    } else if (!sel.probe.has_value() && IsRangeOp(*op) &&
               (!sel.ranged.has_value() || sel.ranged->attr == *attrs[i])) {
      if (!sel.ranged.has_value()) {
        sel.ranged =
            RangeRestriction{*attrs[i], restriction_of(*attrs[i])->bound};
        parts.push_back(RangeLabel(schema, *sel.ranged));
      }
      named[i] = true;
    }
  }
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    if (attrs[i].has_value() && !named[i]) {
      parts.push_back(preds[i].ToString(schema));
    }
  }
  out.label = Join(parts, ", ");
  return out;
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

/// One narrowing leaf per shard over `name`, labelled by how it finds
/// candidates and whether it expands: scan, index_scan or
/// index_range_scan, with an `nfr_` prefix under a factorized
/// aggregate.
std::vector<std::unique_ptr<NarrowScanOp>> NarrowingLeaves(
    const std::string& name, const SplitWhere& split,
    const std::vector<BoundRelation>& bases,
    std::span<const CatalogView* const> shards, bool expand) {
  const Selection& sel = split.selection;
  const char* access = sel.probe.has_value()    ? "index_scan"
                       : sel.ranged.has_value() ? "index_range_scan"
                                                : "scan";
  const std::string label =
      StrCat(expand ? "" : "nfr_", access, "(", name,
             split.label.empty() ? "" : ": ", split.label, ")");
  std::vector<std::unique_ptr<NarrowScanOp>> leaves;
  for (size_t i = 0; i < shards.size(); ++i) {
    leaves.push_back(std::make_unique<NarrowScanOp>(
        label, bases[i].relation, shards[i]->frozen_dictionary(), sel,
        expand));
  }
  return leaves;
}

/// The per-shard copies of one access path, concatenated in shard
/// order; a single leaf stands alone.
std::unique_ptr<PlanOp> UnionOf(
    std::vector<std::unique_ptr<NarrowScanOp>> leaves) {
  if (leaves.size() == 1) return std::move(leaves.front());
  std::vector<std::unique_ptr<PlanOp>> inputs;
  for (auto& leaf : leaves) inputs.push_back(std::move(leaf));
  return std::make_unique<UnionOp>("union", std::move(inputs));
}

/// The rows of `name` that `split` selects: the narrowing leaves,
/// under a filter when conjuncts relate two attributes.
std::unique_ptr<PlanOp> SelectedRows(
    const std::string& name, const SplitWhere& split,
    const std::vector<BoundRelation>& bases,
    std::span<const CatalogView* const> shards) {
  std::unique_ptr<PlanOp> op =
      UnionOf(NarrowingLeaves(name, split, bases, shards, /*expand=*/true));
  if (split.residual.has_value()) {
    op = std::make_unique<FilterOp>(StrCat("filter(", name, ")"),
                                    std::move(op), *split.residual);
  }
  return op;
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

  // Single-relation WHERE clauses narrow the access path itself;
  // joined queries resolve the whole clause against the joined schema.
  SplitWhere split;
  if (stmt.joins.empty()) {
    NF2_ASSIGN_OR_RETURN(split, SplitConjuncts(stmt.where.get(), schema));
  }

  // Base access path + joins + filter, as a row pipeline.
  auto make_row_source = [&]() -> Result<std::unique_ptr<PlanOp>> {
    std::unique_ptr<PlanOp> op =
        SelectedRows(stmt.name, split, bases, shards);
    for (const std::string& join_name : stmt.joins) {
      std::vector<BoundRelation> right;
      for (const CatalogView* shard : shards) {
        NF2_ASSIGN_OR_RETURN(BoundRelation r, shard->Bind(join_name));
        right.push_back(r);
      }
      op = std::make_unique<JoinOp>(
          StrCat("join(", join_name, ")"), std::move(op),
          UnionOf(NarrowingLeaves(join_name, SplitWhere{}, right, shards,
                                  /*expand=*/true)));
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
    // aggregate then runs straight over the narrowed NFR components and
    // R* is never expanded.
    const bool factorized = stmt.joins.empty() && !split.residual.has_value();
    if (factorized) {
      std::optional<size_t> group;
      if (!stmt.group_attr.empty()) {
        NF2_ASSIGN_OR_RETURN(size_t g, schema.RequireIndex(stmt.group_attr));
        group = g;
      }
      NF2_ASSIGN_OR_RETURN(std::vector<AggCompute> aggs,
                           ResolveAggregates(stmt.aggregates, schema));
      Schema out_schema = AggregateOutputSchema(schema, group, aggs);
      op = std::make_unique<FactorizedAggregateOp>(
          StrCat("nfr_aggregate(", AggListLabel(stmt), ")"),
          NarrowingLeaves(stmt.name, split, bases, shards, /*expand=*/false),
          group, std::move(aggs), std::move(out_schema));
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

Result<SelectPlan> PlanWhere(const std::string& name,
                             const ConditionNode& where,
                             const CatalogView& catalog) {
  NF2_ASSIGN_OR_RETURN(BoundRelation base, catalog.Bind(name));
  NF2_ASSIGN_OR_RETURN(SplitWhere split,
                       SplitConjuncts(&where, base.info->schema));
  const CatalogView* const one[] = {&catalog};
  SelectPlan plan;
  plan.root = SelectedRows(name, split, {base}, one);
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
