#ifndef NF2_CORE_FORMAT_H_
#define NF2_CORE_FORMAT_H_

#include <string>
#include <vector>

#include "core/relation.h"

namespace nf2 {

/// Renders an NFR as the paper draws its figures: a boxed table with one
/// column per attribute and comma-joined value sets in the cells, e.g.
///
///   +---------+------------+------+
///   | Student | Course     | Club |
///   +---------+------------+------+
///   | s1      | c1, c2, c3 | b1   |
///   | s2      | c1, c2, c3 | b2   |
///   +---------+------------+------+
///
/// Tuples are printed in canonical (sorted) order so output is stable.
std::string RenderTable(const NfrRelation& rel, const std::string& title = "");

/// Same rendering for a 1NF relation.
std::string RenderTable(const FlatRelation& rel,
                        const std::string& title = "");

/// The same box for 1NF rows, untitled, in the order given: ORDER BY
/// output must not be re-sorted by the renderer.
std::string RenderRows(const Schema& schema,
                       const std::vector<FlatTuple>& rows);

}  // namespace nf2

#endif  // NF2_CORE_FORMAT_H_
