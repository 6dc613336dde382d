#ifndef NF2_NFRQL_RESULT_H_
#define NF2_NFRQL_RESULT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/schema.h"
#include "core/tuple.h"
#include "util/result.h"

namespace nf2 {

/// What one NFRQL statement produced, as values rather than text
/// (DESIGN.md §8): a message, an affected-row count, or rows. The
/// executor returns one per statement, the shard router sums counts
/// across shards, and Render writes the reply once, at the protocol
/// edge.
struct StatementResult {
  enum class Kind { kMessage, kCount, kRows };
  /// The mutation a kCount result counts.
  enum class Verb { kInserted, kDeleted, kUpdated };
  /// How kRows render. kSet and kOrdered are box tables plus a row
  /// count: kSet rows are the sorted, deduplicated set, kOrdered rows
  /// keep pipeline order (ORDER BY). kGrouped is one tab-joined line
  /// per group plus a group count; kAggregate is one bare tab-joined
  /// row, so `SELECT COUNT(*)` answers are machine-friendly ("2").
  enum class Shape { kSet, kOrdered, kGrouped, kAggregate };

  static StatementResult Message(std::string text);
  static StatementResult Count(Verb verb, uint64_t count, std::string relation);
  /// kSet rows are sorted and deduplicated here, once.
  static StatementResult Rows(Shape shape, Schema schema,
                              std::vector<FlatTuple> rows);

  Kind kind = Kind::kMessage;
  std::string text;             // kMessage.
  Verb verb = Verb::kInserted;  // kCount.
  uint64_t count = 0;
  std::string relation;
  Shape shape = Shape::kSet;  // kRows.
  Schema schema;
  std::vector<FlatTuple> rows;

  // Trailer, rendered after the body in this order.
  /// PROFILE: the timed span tree.
  std::string profile;
  /// EXPLAIN of a SELECT the shard router scatters: the shard count.
  size_t scatter_shards = 0;
  /// PROFILE through a Session: whether the parse came from the
  /// statement cache.
  std::optional<bool> cache_hit;
};

/// The reply text of `result`.
std::string Render(const StatementResult& result);

/// Render for a fallible result; an error passes through as it is.
Result<std::string> Render(const Result<StatementResult>& result);

}  // namespace nf2

#endif  // NF2_NFRQL_RESULT_H_
