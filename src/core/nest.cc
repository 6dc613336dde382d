#include "core/nest.h"

#include <algorithm>
#include <unordered_map>

#include "core/compose.h"
#include "core/value_dictionary.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace nf2 {

Permutation IdentityPermutation(size_t degree) {
  Permutation perm(degree);
  for (size_t i = 0; i < degree; ++i) perm[i] = i;
  return perm;
}

Result<Permutation> PermutationFromNames(
    const Schema& schema, const std::vector<std::string>& names) {
  if (names.size() != schema.degree()) {
    return Status::InvalidArgument(
        StrCat("permutation has ", names.size(), " names but schema degree is ",
               schema.degree()));
  }
  Permutation perm;
  perm.reserve(names.size());
  for (const std::string& name : names) {
    NF2_ASSIGN_OR_RETURN(size_t idx, schema.RequireIndex(name));
    perm.push_back(idx);
  }
  if (!IsValidPermutation(perm, schema.degree())) {
    return Status::InvalidArgument("permutation names contain duplicates");
  }
  return perm;
}

bool IsValidPermutation(const Permutation& perm, size_t degree) {
  if (perm.size() != degree) return false;
  std::vector<bool> seen(degree, false);
  for (size_t p : perm) {
    if (p >= degree || seen[p]) return false;
    seen[p] = true;
  }
  return true;
}

std::vector<Permutation> AllPermutations(size_t degree) {
  NF2_CHECK(degree <= 8) << "AllPermutations limited to degree 8";
  Permutation perm = IdentityPermutation(degree);
  std::vector<Permutation> out;
  do {
    out.push_back(perm);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return out;
}

namespace {

/// Componentwise equality of encoded tuples except position `attr` —
/// the id-space form of NfrTuple::AgreesExcept.
bool AgreesExceptEncoded(const EncodedTuple& a, const EncodedTuple& b,
                         size_t attr) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (i == attr) continue;
    if (a[i] != b[i]) return false;
  }
  return true;
}

/// One NestOn stage in id space: group tuples that agree on every
/// component except `attr` (integer hash + integer equality), then
/// union the attr ids within each group. This is exactly the closure of
/// Definition 1 compositions over `attr`; Theorem 2 guarantees the
/// pairwise order is irrelevant.
std::vector<EncodedTuple> NestEncodedOn(std::vector<EncodedTuple> tuples,
                                        size_t attr) {
  std::unordered_map<size_t, std::vector<size_t>> buckets;
  std::vector<EncodedTuple> merged;
  merged.reserve(tuples.size());
  for (EncodedTuple& t : tuples) {
    size_t h = HashEncodedTupleExcept(t, attr);
    auto& bucket = buckets[h];
    bool joined = false;
    for (size_t idx : bucket) {
      if (AgreesExceptEncoded(merged[idx], t, attr)) {
        merged[idx][attr] = merged[idx][attr].Union(t[attr]);
        joined = true;
        break;
      }
    }
    if (!joined) {
      bucket.push_back(merged.size());
      merged.push_back(std::move(t));
    }
  }
  return merged;
}

NfrRelation DecodeRelation(const Schema& schema, const ValueDictionary& dict,
                           std::vector<EncodedTuple> tuples) {
  std::vector<NfrTuple> out;
  out.reserve(tuples.size());
  for (const EncodedTuple& t : tuples) {
    out.push_back(DecodeTuple(dict, t));
  }
  return NfrRelation(schema, std::move(out));
}

}  // namespace

NfrRelation NestOn(const NfrRelation& r, size_t attr) {
  NF2_CHECK(attr < r.degree()) << "NestOn attribute out of range";
  ValueDictionary dict;
  std::vector<EncodedTuple> encoded;
  encoded.reserve(r.size());
  for (const NfrTuple& t : r.tuples()) {
    encoded.push_back(InternTuple(&dict, t));
  }
  return DecodeRelation(r.schema(), dict,
                        NestEncodedOn(std::move(encoded), attr));
}

NfrRelation RandomizedNestOn(const NfrRelation& r, size_t attr, Rng* rng) {
  NF2_CHECK(attr < r.degree());
  NF2_CHECK(rng != nullptr);
  std::vector<NfrTuple> tuples(r.tuples().begin(), r.tuples().end());
  rng->Shuffle(&tuples);
  bool changed = true;
  while (changed) {
    changed = false;
    // Collect all composable pairs, pick one at random, apply, repeat.
    std::vector<std::pair<size_t, size_t>> pairs;
    for (size_t i = 0; i < tuples.size() && pairs.size() < 64; ++i) {
      for (size_t j = i + 1; j < tuples.size() && pairs.size() < 64; ++j) {
        if (ComposableOn(tuples[i], tuples[j], attr)) {
          pairs.emplace_back(i, j);
        }
      }
    }
    if (!pairs.empty()) {
      auto [i, j] = pairs[rng->NextBelow(pairs.size())];
      tuples[i] = Compose(tuples[i], tuples[j], attr);
      tuples.erase(tuples.begin() + static_cast<ptrdiff_t>(j));
      changed = true;
    }
  }
  return NfrRelation(r.schema(), std::move(tuples));
}

NfrRelation NestSequence(const NfrRelation& r, const Permutation& perm) {
  NF2_CHECK(IsValidPermutation(perm, r.degree()))
      << "NestSequence: invalid permutation";
  // Encode once, run every stage on ids, decode once.
  ValueDictionary dict;
  std::vector<EncodedTuple> encoded;
  encoded.reserve(r.size());
  for (const NfrTuple& t : r.tuples()) {
    encoded.push_back(InternTuple(&dict, t));
  }
  for (size_t attr : perm) {
    encoded = NestEncodedOn(std::move(encoded), attr);
  }
  return DecodeRelation(r.schema(), dict, std::move(encoded));
}

NfrRelation CanonicalForm(const FlatRelation& r, const Permutation& perm) {
  NF2_CHECK(IsValidPermutation(perm, r.degree()))
      << "CanonicalForm: invalid permutation";
  // Flat tuples encode directly to all-singleton id tuples; the
  // intermediate singleton NfrRelation of the definition never
  // materializes.
  ValueDictionary dict;
  std::vector<EncodedTuple> encoded;
  encoded.reserve(r.size());
  for (const FlatTuple& t : r.tuples()) {
    EncodedTuple enc;
    enc.reserve(t.degree());
    for (const Value& v : t.values()) {
      enc.push_back(IdSet(dict.Intern(v)));
    }
    encoded.push_back(std::move(enc));
  }
  for (size_t attr : perm) {
    encoded = NestEncodedOn(std::move(encoded), attr);
  }
  return DecodeRelation(r.schema(), dict, std::move(encoded));
}

NfrRelation UnnestOn(const NfrRelation& r, size_t attr) {
  NF2_CHECK(attr < r.degree());
  std::vector<NfrTuple> out;
  out.reserve(r.size());
  for (const NfrTuple& t : r.tuples()) {
    for (const Value& v : t.at(attr).values()) {
      NfrTuple split = t;
      split.at(attr) = ValueSet(v);
      out.push_back(std::move(split));
    }
  }
  return NfrRelation(r.schema(), std::move(out));
}

FlatRelation UnnestAll(const NfrRelation& r) { return r.Expand(); }

}  // namespace nf2
