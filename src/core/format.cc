#include "core/format.h"

#include <algorithm>
#include <vector>

#include "util/string_util.h"

namespace nf2 {

namespace {

std::string RenderGrid(const std::string& title,
                       const std::vector<std::string>& header,
                       const std::vector<std::vector<std::string>>& rows) {
  const size_t cols = header.size();
  std::vector<size_t> width(cols, 0);
  for (size_t c = 0; c < cols; ++c) {
    width[c] = header[c].size();
  }
  for (const auto& row : rows) {
    for (size_t c = 0; c < cols; ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto rule = [&]() {
    std::string out = "+";
    for (size_t c = 0; c < cols; ++c) {
      out += std::string(width[c] + 2, '-');
      out += "+";
    }
    out += "\n";
    return out;
  };
  auto line = [&](const std::vector<std::string>& cells) {
    std::string out = "|";
    for (size_t c = 0; c < cols; ++c) {
      out += " " + cells[c] + std::string(width[c] - cells[c].size(), ' ') +
             " |";
    }
    out += "\n";
    return out;
  };
  std::string out;
  if (!title.empty()) {
    out += title + "\n";
  }
  out += rule();
  out += line(header);
  out += rule();
  for (const auto& row : rows) {
    out += line(row);
  }
  out += rule();
  return out;
}

std::vector<std::string> Header(const Schema& schema) {
  std::vector<std::string> header;
  header.reserve(schema.degree());
  for (const Attribute& attr : schema.attributes()) {
    header.push_back(attr.name);
  }
  return header;
}

std::string RenderFlat(const std::string& title, const Schema& schema,
                       const std::vector<FlatTuple>& tuples) {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(tuples.size());
  for (const FlatTuple& t : tuples) {
    std::vector<std::string> row;
    row.reserve(t.degree());
    for (const Value& v : t.values()) {
      row.push_back(v.ToString());
    }
    rows.push_back(std::move(row));
  }
  return RenderGrid(title, Header(schema), rows);
}

}  // namespace

std::string RenderTable(const NfrRelation& rel, const std::string& title) {
  std::vector<NfrTuple> sorted(rel.tuples().begin(), rel.tuples().end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::vector<std::string>> rows;
  rows.reserve(sorted.size());
  for (const NfrTuple& t : sorted) {
    std::vector<std::string> row;
    row.reserve(rel.degree());
    for (size_t c = 0; c < rel.degree(); ++c) {
      std::vector<std::string> parts;
      for (const Value& v : t.at(c).values()) {
        parts.push_back(v.ToString());
      }
      row.push_back(Join(parts, ", "));
    }
    rows.push_back(std::move(row));
  }
  return RenderGrid(title, Header(rel.schema()), rows);
}

std::string RenderTable(const FlatRelation& rel, const std::string& title) {
  return RenderFlat(title, rel.schema(), rel.tuples());
}

std::string RenderRows(const Schema& schema,
                       const std::vector<FlatTuple>& rows) {
  return RenderFlat("", schema, rows);
}

}  // namespace nf2
