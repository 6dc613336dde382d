#ifndef NF2_CORE_NEST_H_
#define NF2_CORE_NEST_H_

#include <string>
#include <vector>

#include "core/relation.h"
#include "util/result.h"
#include "util/rng.h"

namespace nf2 {

/// A nest order over a schema: `perm[0]` is nested FIRST, `perm.back()`
/// LAST — we store the application order directly. (The paper's textual
/// abbreviation V_EiEj is ambiguous between the two reading directions;
/// its own worked Example 2 applies the written sequence left-to-right,
/// which is the convention adopted here and verified in nest_test.cc.)
using Permutation = std::vector<size_t>;

/// The identity application order (0, 1, ..., n-1): attribute 0 nested
/// first.
Permutation IdentityPermutation(size_t degree);

/// Builds a permutation from attribute names (first name nested first).
/// Errors if names are missing/duplicated or do not cover the schema.
Result<Permutation> PermutationFromNames(
    const Schema& schema, const std::vector<std::string>& names);

/// True when `perm` is a permutation of {0..degree-1}.
bool IsValidPermutation(const Permutation& perm, size_t degree);

/// All degree! permutations, in lexicographic order. Fatal for
/// degree > 8 (40320 permutations) to avoid accidental blowups.
std::vector<Permutation> AllPermutations(size_t degree);

/// Definition 4: the nest operation V_Ei — all possible compositions
/// over attribute position `attr`, applied exhaustively. By Theorem 2
/// the result is unique, and this implementation computes it directly by
/// grouping tuples on their remaining components (O(N) with hashing).
/// Runs on the interned representation: tuples are encoded against a
/// transient ValueDictionary so grouping keys hash and compare as dense
/// integers instead of variant payloads.
NfrRelation NestOn(const NfrRelation& r, size_t attr);

/// Definition 4 implemented literally as successive pairwise
/// compositions in a random order. Exists to test Theorem 2: for every
/// seed, RandomizedNestOn == NestOn. Quadratic; test-sized inputs only.
NfrRelation RandomizedNestOn(const NfrRelation& r, size_t attr, Rng* rng);

/// Applies NestOn for each position of `perm` in order (perm[0] first).
/// The whole sequence runs in id space: tuples are encoded once, every
/// stage groups and unions dense ids, and the result decodes once.
NfrRelation NestSequence(const NfrRelation& r, const Permutation& perm);

/// Definition 5: the canonical form V_P(R) of a 1NF relation. Encodes
/// the flat tuples straight into id space (no intermediate singleton
/// NFR) and nests there.
NfrRelation CanonicalForm(const FlatRelation& r, const Permutation& perm);

/// Algebraic unnest on one attribute: splits every tuple's `attr`
/// component into singletons (the inverse of NestOn up to re-nesting).
NfrRelation UnnestOn(const NfrRelation& r, size_t attr);

/// Full unnest: the underlying 1NF relation R* (same as r.Expand()).
FlatRelation UnnestAll(const NfrRelation& r);

}  // namespace nf2

#endif  // NF2_CORE_NEST_H_
