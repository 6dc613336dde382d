#include "core/irreducible.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>

#include "core/compose.h"
#include "core/nest.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace nf2 {

bool IsIrreducible(const NfrRelation& r) {
  for (size_t i = 0; i < r.size(); ++i) {
    for (size_t j = i + 1; j < r.size(); ++j) {
      for (size_t c = 0; c < r.degree(); ++c) {
        if (ComposableOn(r.tuple(i), r.tuple(j), c)) return false;
      }
    }
  }
  return true;
}

namespace {

/// One composition step: composes the first composable pair found by
/// `pick` and returns true, or returns false when irreducible.
bool ComposeStep(std::vector<NfrTuple>* tuples, Rng* rng) {
  struct Candidate {
    size_t i, j, c;
  };
  std::vector<Candidate> candidates;
  for (size_t i = 0; i < tuples->size(); ++i) {
    for (size_t j = i + 1; j < tuples->size(); ++j) {
      for (size_t c = 0; c < (*tuples)[i].degree(); ++c) {
        if (ComposableOn((*tuples)[i], (*tuples)[j], c)) {
          candidates.push_back({i, j, c});
          if (rng == nullptr) goto done;  // Deterministic: first found.
        }
      }
    }
  }
done:
  if (candidates.empty()) return false;
  const Candidate& pick =
      rng == nullptr ? candidates.front()
                     : candidates[rng->NextBelow(candidates.size())];
  (*tuples)[pick.i] = Compose((*tuples)[pick.i], (*tuples)[pick.j], pick.c);
  tuples->erase(tuples->begin() + static_cast<ptrdiff_t>(pick.j));
  return true;
}

}  // namespace

NfrRelation ReduceGreedy(const NfrRelation& r) {
  std::vector<NfrTuple> tuples(r.tuples().begin(), r.tuples().end());
  while (ComposeStep(&tuples, nullptr)) {
  }
  return NfrRelation(r.schema(), std::move(tuples));
}

NfrRelation ReduceRandomized(const NfrRelation& r, Rng* rng) {
  NF2_CHECK(rng != nullptr);
  std::vector<NfrTuple> tuples(r.tuples().begin(), r.tuples().end());
  rng->Shuffle(&tuples);
  while (ComposeStep(&tuples, rng)) {
  }
  return NfrRelation(r.schema(), std::move(tuples));
}

namespace {

/// A "box" is an NFR tuple whose expansion lies inside R*: component
/// sets S1 x ... x Sn ⊆ R*. Minimal irreducible forms are minimal
/// partitions of R* into boxes.
struct Box {
  NfrTuple tuple;
  uint64_t mask;  // Bit i set <=> flat tuple i is in the expansion.
};

/// Enumerates every box of `flat` (up to 64 tuples) by growing from
/// singletons: add one more value to one component at a time, keeping
/// only boxes fully contained in R*. Deduplicated by covered mask and
/// tuple identity.
std::vector<Box> EnumerateBoxes(const FlatRelation& flat) {
  const auto& tuples = flat.tuples();
  const size_t n = flat.degree();

  auto mask_of = [&](const NfrTuple& t) -> std::optional<uint64_t> {
    // The box is valid iff its expansion size equals the number of flat
    // tuples it contains.
    uint64_t mask = 0;
    uint64_t contained = 0;
    for (size_t i = 0; i < tuples.size(); ++i) {
      if (t.ExpansionContains(tuples[i])) {
        mask |= (1ULL << i);
        ++contained;
      }
    }
    if (contained != t.ExpandedCount()) return std::nullopt;
    return mask;
  };

  std::vector<Box> boxes;
  std::set<std::pair<uint64_t, size_t>> seen;  // (mask, tuple hash)
  std::vector<NfrTuple> frontier;
  for (const FlatTuple& t : tuples) {
    frontier.push_back(NfrTuple::FromFlat(t));
  }
  for (const NfrTuple& t : frontier) {
    auto m = mask_of(t);
    NF2_CHECK(m.has_value());
    if (seen.insert({*m, t.Hash()}).second) {
      boxes.push_back({t, *m});
    }
  }
  // Grow breadth-first.
  for (size_t head = 0; head < boxes.size(); ++head) {
    const Box box = boxes[head];  // Copy: boxes may reallocate.
    for (size_t attr = 0; attr < n; ++attr) {
      for (const FlatTuple& ft : tuples) {
        const Value& v = ft.at(attr);
        if (box.tuple.at(attr).Contains(v)) continue;
        NfrTuple grown = box.tuple;
        grown.at(attr).Insert(v);
        auto m = mask_of(grown);
        if (!m.has_value()) continue;
        if (seen.insert({*m, grown.Hash()}).second) {
          boxes.push_back({grown, *m});
        }
      }
    }
  }
  return boxes;
}

/// Exact-cover search: partition the full mask into disjoint boxes,
/// minimizing the number of boxes. Branch and bound on the first
/// uncovered tuple.
void SearchMinCover(const std::vector<Box>& boxes,
                    const std::vector<std::vector<size_t>>& boxes_by_tuple,
                    uint64_t full, uint64_t covered,
                    std::vector<size_t>* chosen,
                    std::vector<size_t>* best_choice, size_t* best_count) {
  if (covered == full) {
    if (chosen->size() < *best_count) {
      *best_count = chosen->size();
      *best_choice = *chosen;
    }
    return;
  }
  if (chosen->size() + 1 >= *best_count) return;  // Can't improve.
  // First uncovered tuple index.
  uint64_t remaining = full & ~covered;
  size_t first = static_cast<size_t>(__builtin_ctzll(remaining));
  for (size_t bi : boxes_by_tuple[first]) {
    const Box& box = boxes[bi];
    if ((box.mask & covered) != 0) continue;  // Must stay a partition.
    chosen->push_back(bi);
    SearchMinCover(boxes, boxes_by_tuple, full, covered | box.mask, chosen,
                   best_choice, best_count);
    chosen->pop_back();
  }
}

}  // namespace

Result<NfrRelation> MinimalIrreducible(const FlatRelation& flat,
                                       size_t max_tuples) {
  if (flat.size() > 64 || flat.size() > max_tuples) {
    return Status::FailedPrecondition(
        StrCat("MinimalIrreducible is exhaustive; relation has ", flat.size(),
               " tuples, limit is ", std::min<size_t>(max_tuples, 64)));
  }
  if (flat.empty()) {
    return NfrRelation(flat.schema());
  }
  std::vector<Box> boxes = EnumerateBoxes(flat);
  // Prefer bigger boxes first so good solutions are found early and the
  // bound prunes aggressively.
  std::sort(boxes.begin(), boxes.end(), [](const Box& a, const Box& b) {
    return __builtin_popcountll(a.mask) > __builtin_popcountll(b.mask);
  });
  std::vector<std::vector<size_t>> boxes_by_tuple(flat.size());
  for (size_t bi = 0; bi < boxes.size(); ++bi) {
    for (size_t t = 0; t < flat.size(); ++t) {
      if ((boxes[bi].mask >> t) & 1) {
        boxes_by_tuple[t].push_back(bi);
      }
    }
  }
  uint64_t full = flat.size() == 64 ? ~0ULL : ((1ULL << flat.size()) - 1);
  std::vector<size_t> chosen;
  std::vector<size_t> best_choice;
  size_t best_count = flat.size() + 1;
  SearchMinCover(boxes, boxes_by_tuple, full, 0, &chosen, &best_choice,
                 &best_count);
  NF2_CHECK(!best_choice.empty() || flat.empty());
  std::vector<NfrTuple> tuples;
  tuples.reserve(best_choice.size());
  for (size_t bi : best_choice) {
    tuples.push_back(boxes[bi].tuple);
  }
  NfrRelation out(flat.schema(), std::move(tuples));
  // A minimal box partition is necessarily irreducible: composing two
  // blocks would yield a smaller partition.
  NF2_DCHECK(IsIrreducible(out));
  return out;
}

size_t MinCanonicalSize(const FlatRelation& flat) {
  size_t best = flat.size();
  if (flat.empty()) return 0;
  for (const Permutation& perm : AllPermutations(flat.degree())) {
    best = std::min(best, CanonicalForm(flat, perm).size());
  }
  return best;
}

}  // namespace nf2
