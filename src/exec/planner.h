#ifndef NF2_EXEC_PLANNER_H_
#define NF2_EXEC_PLANNER_H_

#include <memory>
#include <optional>
#include <span>
#include <string>

#include "catalog/catalog.h"
#include "core/update.h"
#include "exec/plan.h"
#include "nfrql/ast.h"
#include "nfrql/result.h"
#include "util/result.h"

namespace nf2 {

/// One relation resolved against a catalog: its metadata plus the
/// canonical-form container whose inverted index the planner consults.
struct BoundRelation {
  const RelationInfo* info = nullptr;
  const CanonicalRelation* relation = nullptr;
};

/// The planner's window onto a catalog — the live database or a pinned
/// snapshot. Pointers returned by Bind must stay valid for the plan's
/// lifetime (live: the engine's relation map is node-stable; snapshot:
/// the caller pins the snapshot while executing).
class CatalogView {
 public:
  virtual ~CatalogView() = default;

  virtual Result<BoundRelation> Bind(const std::string& name) const = 0;

  /// Non-null when point lookups must resolve literals against a
  /// frozen dictionary (snapshot reads) instead of the live one. A
  /// snapshot reader asks it nothing lazy: Find, value and size.
  virtual const DictionaryView* frozen_dictionary() const = 0;
};

/// A compiled SELECT: the operator tree plus how its rows render.
struct SelectPlan {
  std::unique_ptr<PlanOp> root;
  StatementResult::Shape shape = StatementResult::Shape::kSet;
};

/// Rule-based planning of a SELECT against `catalog` (DESIGN.md §10):
///  - the access path is one narrowing leaf: top-level AND-ed conjuncts
///    that reference one attribute each narrow that attribute's
///    component, with candidates from an `=` posting list, else the
///    bound scan of the first ranged attribute, else every tuple;
///  - conjuncts relating two attributes stay a Filter over its rows;
///  - aggregates with no joins and no such filter run factorized over
///    the narrowed NFR (never expanding R*), otherwise over the rows;
///  - joins hash-build their right side; ORDER BY/LIMIT cap the tree.
Result<SelectPlan> PlanSelect(const SelectStatement& stmt,
                              const CatalogView& catalog);

/// The same plan over several catalogs with identical schemas, the
/// shards of one hash-partitioned database (DESIGN.md §13). Each
/// narrowing leaf (a row source, a join's right side, or a factorized
/// aggregate's NFR source) is built once per shard, and a UnionOp
/// concatenates the row leaves in shard order. Everything above the
/// leaves is built once. Hash partitioning keeps the shards' expansions
/// disjoint, so the plan answers exactly as one engine holding their
/// union. With one catalog this is the plan above, with no union node.
Result<SelectPlan> PlanSelect(const SelectStatement& stmt,
                              std::span<const CatalogView* const> shards);

/// The rows of relation `name` that satisfy `where`: the leaf and
/// filter of `SELECT * FROM name WHERE ...`. DELETE and UPDATE ...
/// WHERE drain it on the live database.
Result<SelectPlan> PlanWhere(const std::string& name,
                             const ConditionNode& where,
                             const CatalogView& catalog);

/// Opens, drains and closes `plan` into its rows: the one execution
/// loop of every SELECT, on one engine and across shards.
StatementResult DrainPlan(const SelectPlan& plan);

/// Resolves a parsed WHERE tree against `schema` into a Predicate.
Result<Predicate> ResolveCondition(const ConditionNode& node,
                                   const Schema& schema);

/// Partition-pruning hook: the literal of a top-level AND-ed
/// `attr = literal` conjunct in `where`, or nullopt when no such
/// conjunct exists (or `where` is null). A statement whose WHERE pins
/// the partition attribute this way can only match rows on the shard
/// that value hashes to — the shard router's point-routing test.
std::optional<Value> EqualityConjunct(const ConditionNode* where,
                                      const std::string& attr);

}  // namespace nf2

#endif  // NF2_EXEC_PLANNER_H_
