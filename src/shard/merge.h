#ifndef NF2_SHARD_MERGE_H_
#define NF2_SHARD_MERGE_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/read_view.h"
#include "nfrql/ast.h"
#include "nfrql/result.h"
#include "util/result.h"

namespace nf2 {
namespace shard {

/// Deep copy of a WHERE tree (ConditionNode owns its children through
/// unique_ptr, so statements with conditions are not copyable as-is).
std::unique_ptr<ConditionNode> CloneCondition(const ConditionNode* node);

/// Field-by-field copy of a SELECT, cloning the WHERE tree — the merge
/// layer rewrites per-shard variants (stripped LIMIT, widened
/// projection) without mutating the caller's statement.
SelectStatement CloneSelect(const SelectStatement& stmt);

/// Executes `stmt` scattered across `shards` (in shard order, each
/// through the regular query planner, reading through the shard's
/// view) and merges the per-shard rows into the result the
/// single-engine executor would produce for the union of the shards'
/// data (DESIGN.md §13):
///   - plain SELECTs concatenate (projection duplicates deduplicated
///     keep-first in shard order) and re-apply LIMIT;
///   - ORDER BY re-merges sorted per-shard runs with a k-way heap,
///     ties broken by shard index;
///   - factorized aggregates combine per column: COUNT(*) and SUM add,
///     MIN/MAX take the extreme, COUNT(attr) — a DISTINCT count — adds
///     only when `attr` is the partition attribute (value sets are then
///     hash-disjoint across shards) and otherwise re-counts through a
///     per-shard companion projection; GROUP BY merges per group key.
/// `partition_attr` names the relation's partition attribute;
/// `merged_rows`, when non-null, is incremented by the number of
/// per-shard rows fed into the merge (router observability).
Result<StatementResult> ScatterSelect(const SelectStatement& stmt,
                                      const std::vector<ReadView>& shards,
                                      const std::string& partition_attr,
                                      uint64_t* merged_rows);

}  // namespace shard
}  // namespace nf2

#endif  // NF2_SHARD_MERGE_H_
