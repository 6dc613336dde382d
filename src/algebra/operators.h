#ifndef NF2_ALGEBRA_OPERATORS_H_
#define NF2_ALGEBRA_OPERATORS_H_

#include <string>
#include <vector>

#include "algebra/predicate.h"
#include "core/relation.h"
#include "util/result.h"

namespace nf2 {

// ---------------------------------------------------------------------
// 1NF relational algebra (the substrate the paper extends).
// ---------------------------------------------------------------------

/// sigma_p(R): tuples of `rel` satisfying `pred`.
FlatRelation Select(const FlatRelation& rel, const Predicate& pred);

/// pi_attrs(R): projection onto attribute positions (duplicates
/// collapse, as always in set semantics).
FlatRelation ProjectRelation(const FlatRelation& rel,
                             const std::vector<size_t>& attrs);

/// Projection by attribute names.
Result<FlatRelation> ProjectByName(const FlatRelation& rel,
                                   const std::vector<std::string>& names);

/// R ∪ S, R - S, R ∩ S. Error when schemas differ.
Result<FlatRelation> Union(const FlatRelation& a, const FlatRelation& b);
Result<FlatRelation> Difference(const FlatRelation& a,
                                const FlatRelation& b);
Result<FlatRelation> Intersect(const FlatRelation& a, const FlatRelation& b);

/// R × S. Error when attribute names collide.
Result<FlatRelation> CartesianProduct(const FlatRelation& a,
                                      const FlatRelation& b);

/// Natural join on shared attribute names (equi-join; when no names are
/// shared this degenerates to the cartesian product).
FlatRelation NaturalJoin(const FlatRelation& left, const FlatRelation& right);

/// Renames attribute `from` to `to`. Error when `from` is missing or
/// `to` already exists.
Result<FlatRelation> Rename(const FlatRelation& rel, const std::string& from,
                            const std::string& to);

// ---------------------------------------------------------------------
// NFR-level operators (Jaeschke–Schek style, the algebra the paper's
// reference [7] defines and the paper builds on).
// ---------------------------------------------------------------------

/// Tuple-level selection: keeps the NFR tuples Predicate::EvalNfrAny
/// admits — every tuple whose expansion contains a simple tuple
/// satisfying `pred`, plus, when an AND relates two comparisons on one
/// attribute, possibly tuples whose expansion contains none.
NfrRelation SelectNfrTuples(const NfrRelation& rel, const Predicate& pred);

/// Exact selection: the NFR denoting sigma_p(R*). EvalNfrAny
/// pre-filters the tuples (it never drops a matching one), and each
/// survivor's expansion is tested row by row; the result is returned as
/// singleton tuples of the matching expansion (re-nest with
/// CanonicalForm for a compact result).
NfrRelation SelectNfrExact(const NfrRelation& rel, const Predicate& pred);

/// One GROUP BY result row: a grouping value and the number of
/// distinct counted values associated with it.
struct GroupCount {
  Value group;
  uint64_t count = 0;
  bool operator==(const GroupCount&) const = default;
};

/// SELECT g, COUNT(DISTINCT c) ... GROUP BY g, evaluated on the NFR:
/// the relation is projected to {group_attr, counted_attr} and re-nested
/// on the counted attribute, after which each count is just a component
/// size — no expansion of the relation (the paper's "reduced logical
/// search space" applied to aggregation). Results are sorted by group
/// value.
Result<std::vector<GroupCount>> GroupedDistinctCounts(
    const NfrRelation& rel, size_t group_attr, size_t counted_attr);

/// Syntactic projection of NFR tuples onto `attrs`. NOTE: after
/// projection the expansions of distinct result tuples may overlap
/// (the disjointness invariant does not survive projection); the result
/// still denotes exactly pi_attrs(R*).
NfrRelation ProjectNfr(const NfrRelation& rel,
                       const std::vector<size_t>& attrs);

}  // namespace nf2

#endif  // NF2_ALGEBRA_OPERATORS_H_
