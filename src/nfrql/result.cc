#include "nfrql/result.h"

#include <algorithm>
#include <utility>

#include "core/format.h"
#include "util/string_util.h"

namespace nf2 {

namespace {

std::string TabJoined(const FlatTuple& row) {
  std::vector<std::string> cells;
  cells.reserve(row.degree());
  for (const Value& v : row.values()) cells.push_back(v.ToString());
  return Join(cells, "\t");
}

std::string RenderBody(const StatementResult& r) {
  switch (r.kind) {
    case StatementResult::Kind::kMessage:
      return r.text;
    case StatementResult::Kind::kCount:
      switch (r.verb) {
        case StatementResult::Verb::kInserted:
          return StrCat("inserted ", r.count, " tuple(s) into ", r.relation);
        case StatementResult::Verb::kDeleted:
          return StrCat("deleted ", r.count, " tuple(s) from ", r.relation);
        case StatementResult::Verb::kUpdated:
          return StrCat("updated ", r.count, " tuple(s) in ", r.relation);
      }
      break;
    case StatementResult::Kind::kRows:
      switch (r.shape) {
        case StatementResult::Shape::kSet:
        case StatementResult::Shape::kOrdered:
          return StrCat(RenderRows(r.schema, r.rows), r.rows.size(), " row(s)");
        case StatementResult::Shape::kGrouped: {
          std::string out;
          for (const FlatTuple& row : r.rows) {
            out += StrCat(TabJoined(row), "\n");
          }
          out += StrCat(r.rows.size(), " group(s)");
          return out;
        }
        case StatementResult::Shape::kAggregate:
          return r.rows.empty() ? std::string() : TabJoined(r.rows.front());
      }
      break;
  }
  return std::string();
}

}  // namespace

StatementResult StatementResult::Message(std::string text) {
  StatementResult r;
  r.text = std::move(text);
  return r;
}

StatementResult StatementResult::Count(Verb verb, uint64_t count,
                                       std::string relation) {
  StatementResult r;
  r.kind = Kind::kCount;
  r.verb = verb;
  r.count = count;
  r.relation = std::move(relation);
  return r;
}

StatementResult StatementResult::Rows(Shape shape, Schema schema,
                                      std::vector<FlatTuple> rows) {
  if (shape == Shape::kSet) {
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  }
  StatementResult r;
  r.kind = Kind::kRows;
  r.shape = shape;
  r.schema = std::move(schema);
  r.rows = std::move(rows);
  return r;
}

std::string Render(const StatementResult& result) {
  std::string out = RenderBody(result);
  if (!result.profile.empty()) {
    out += StrCat("\n\nPROFILE\n", result.profile);
  }
  if (result.scatter_shards > 0) {
    out += StrCat("\nscatter: ", result.scatter_shards,
                  " shard(s), merged at router");
  }
  if (result.cache_hit.has_value()) {
    out += StrCat("\nstatement cache: ", *result.cache_hit ? "hit" : "miss");
  }
  return out;
}

Result<std::string> Render(const Result<StatementResult>& result) {
  if (!result.ok()) return result.status();
  return Render(*result);
}

}  // namespace nf2
