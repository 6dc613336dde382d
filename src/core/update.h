#ifndef NF2_CORE_UPDATE_H_
#define NF2_CORE_UPDATE_H_

#include <memory>
#include <optional>
#include <string>

#include "core/index.h"
#include "core/nest.h"
#include "core/relation.h"
#include "core/value_dictionary.h"
#include "obs/metrics.h"
#include "util/result.h"

namespace nf2 {

/// Operation counters for the §4 update algorithms. The paper measures
/// complexity as the *number of compositions* (Theorem A-4: at most a
/// function of the degree n, independent of the number of tuples).
///
/// The *_ns counters are wall-clock nanoseconds, so `\stats` can show
/// where time goes alongside how much algebra ran. recons_ns covers the
/// top-level recons invocations (including the candidate searches they
/// perform); find_candidate_ns isolates the candt search itself.
struct UpdateStats {
  uint64_t compositions = 0;    // compo() applications (Def. 1)
  uint64_t decompositions = 0;  // unnest() applications (Def. 2)
  uint64_t recons_calls = 0;    // invocations of procedure "recons"
  uint64_t candidate_scans = 0; // tuples examined while searching candt
  uint64_t find_candidate_ns = 0;  // wall time inside FindCandidate
  uint64_t recons_ns = 0;          // wall time inside top-level Recons

  void Reset() { *this = UpdateStats{}; }

  /// Average nanoseconds per FindCandidate call (0 when never called).
  double AvgFindCandidateNs() const;
  /// Average nanoseconds per top-level recons chain, approximated per
  /// recons call (0 when never called).
  double AvgReconsNs() const;

  UpdateStats operator-(const UpdateStats& other) const;
  std::string ToString() const;
};

/// An NFR maintained in canonical form V_P(R*) under a fixed nest order
/// (§3.3), supporting tuple-level insertion and deletion with the §4
/// algorithms: updates touch only the tuples reachable from the
/// candidate chain, never the whole relation.
///
/// Invariant: relation() == CanonicalForm(relation().Expand(), order())
/// after every successful operation — tests enforce this against the
/// nest-from-scratch oracle.
class CanonicalRelation {
 public:
  /// Whether candidate/containment searches scan all tuples (the
  /// paper's algorithms as written) or use an inverted value index
  /// (the §5 "optimization strategy", implemented in core/index.h).
  /// Both produce identical relations; only the search cost differs.
  enum class SearchMode { kScan, kIndexed };

  /// An empty canonical relation. `order` must be a permutation of the
  /// schema's positions; order[0] is nested first. Every tuple is
  /// mirrored as ids of a ValueDictionary, so the searches compare and
  /// hash dense integers. When `dict` is null the relation owns a
  /// private dictionary; the engine passes its per-database dictionary
  /// instead so ids are shared across relations.
  CanonicalRelation(Schema schema, Permutation order,
                    SearchMode mode = SearchMode::kIndexed,
                    std::shared_ptr<ValueDictionary> dict = nullptr);

  /// Builds the canonical form of an existing 1NF relation.
  static Result<CanonicalRelation> FromFlat(
      const FlatRelation& flat, Permutation order,
      SearchMode mode = SearchMode::kIndexed,
      std::shared_ptr<ValueDictionary> dict = nullptr);

  const Schema& schema() const { return relation_.schema(); }
  const Permutation& order() const { return order_; }
  const NfrRelation& relation() const { return relation_; }

  /// Number of NFR tuples currently held.
  size_t size() const { return relation_.size(); }

  /// The inverted index over relation(), whose tuple ids are positions
  /// in it; null in kScan mode.
  const NfrIndex* index() const {
    return index_.has_value() ? &*index_ : nullptr;
  }

  /// True when the simple tuple `t` is in R*.
  bool Contains(const FlatTuple& t) const;

  /// The NFR tuples whose `attr` component contains `value` — a point
  /// query answered from the inverted index when available (kIndexed),
  /// falling back to a scan otherwise. Exactly the tuples a tuple-level
  /// select for `attr = value` returns.
  NfrRelation TuplesContaining(size_t attr, const Value& value) const;

  /// §4.2: inserts simple tuple `t`, restoring canonical form via the
  /// candidate-tuple / recons procedure. AlreadyExists if present.
  Status Insert(const FlatTuple& t);

  /// §4.3: deletes simple tuple `t` — locate the containing tuple
  /// (searcht), unnest it down to `t` re-inserting the split-off
  /// remainders through recons, then drop it. NotFound if absent.
  Status Delete(const FlatTuple& t);

  /// Cumulative operation counters (never reset internally).
  const UpdateStats& stats() const { return stats_; }
  UpdateStats* mutable_stats() { return &stats_; }

  /// Mirrors every stats_ increment into the given registry counters
  /// (the engine passes handles from its MetricsRegistry, so the
  /// database-wide §4 counters stay bit-identical to the sum of the
  /// per-relation UpdateStats). Call before the first operation.
  void set_metrics(const UpdatePathMetrics& metrics) { metrics_ = metrics; }

  SearchMode search_mode() const { return mode_; }

  /// The dictionary the encoded mirror's ids refer to.
  const std::shared_ptr<ValueDictionary>& dictionary() const {
    return dict_;
  }

 private:
  /// The paper's procedure "recons": repeatedly merge `t` into the
  /// relation via its candidate tuple, splitting the candidate on
  /// later-nested attributes as needed; adds `t` verbatim when no
  /// candidate exists.
  void Recons(NfrTuple t, int depth);

  struct Candidate {
    size_t tuple_index;  // Index into relation_.
    size_t m_pos;        // Position in nest order where composition happens.
  };

  /// The paper's "candt": the unique candidate tuple of `t` with the
  /// smallest nest-order position m, if any. A tuple s is a candidate at
  /// position m when s agrees exactly with t on every earlier-nested
  /// attribute, covers t on every later-nested attribute, and is
  /// disjoint from t on the m-th — then unnesting s on the later-nested
  /// attributes (Lemma A-2) makes it composable with t over m.
  std::optional<Candidate> FindCandidate(const NfrTuple& t);

  /// True when the encoded tuple `s` is a candidate for `t` at nest
  /// position `m` — pure integer merges.
  bool IsCandidate(const EncodedTuple& s, const EncodedTuple& t,
                   size_t m) const;

  /// Mutations of relation_ that keep the encoded mirror and the index
  /// in step.
  void AppendTuple(NfrTuple t);
  NfrTuple TakeTupleAt(size_t index);

  /// The unique tuple whose expansion contains `t`, or size() if none.
  size_t FindContainingTuple(const FlatTuple& t) const;

  /// Encodes the simple tuple `t` against dict_ WITHOUT interning new
  /// values: nullopt when some value is not in the dictionary (then no
  /// stored tuple can contain `t`).
  std::optional<EncodedTuple> TryEncodeFlat(const FlatTuple& t) const;

  NfrRelation relation_;
  Permutation order_;
  SearchMode mode_;
  std::shared_ptr<ValueDictionary> dict_;
  CowVector<EncodedTuple> encoded_;  // Mirror of relation_.
  std::optional<NfrIndex> index_;
  UpdateStats stats_;
  UpdatePathMetrics metrics_;  // All-null when not wired to a registry.
};

/// Ablation baseline: re-derives the canonical form of R* ± t from
/// scratch by full re-nesting (what a system without the §4 algorithms
/// would do). Used by bench_update_complexity.
NfrRelation RebuildCanonicalAfterInsert(const NfrRelation& r,
                                        const FlatTuple& t,
                                        const Permutation& order);
NfrRelation RebuildCanonicalAfterDelete(const NfrRelation& r,
                                        const FlatTuple& t,
                                        const Permutation& order);

}  // namespace nf2

#endif  // NF2_CORE_UPDATE_H_
