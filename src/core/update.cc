#include "core/update.h"

#include <chrono>

#include "core/compose.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace nf2 {

namespace {
// Recursion bound for recons: Theorem A-4 bounds the work by a function
// of the degree only; anything past this indicates a broken invariant.
constexpr int kMaxReconsDepth = 100000;

/// Accumulates the elapsed wall time into `*sink` (and, when non-null,
/// into the registry counter `mirror`) on scope exit.
class ScopedNsTimer {
 public:
  explicit ScopedNsTimer(uint64_t* sink, Counter* mirror = nullptr)
      : sink_(sink),
        mirror_(mirror),
        start_(std::chrono::steady_clock::now()) {}
  ~ScopedNsTimer() {
    uint64_t elapsed = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
    *sink_ += elapsed;
    if (mirror_ != nullptr) mirror_->Increment(elapsed);
  }
  ScopedNsTimer(const ScopedNsTimer&) = delete;
  ScopedNsTimer& operator=(const ScopedNsTimer&) = delete;

 private:
  uint64_t* sink_;
  Counter* mirror_;
  std::chrono::steady_clock::time_point start_;
};

/// ++counter plus the registry mirror, in one expression.
inline void BumpMirrored(uint64_t* field, Counter* mirror) {
  ++*field;
  if (mirror != nullptr) mirror->Increment();
}
}  // namespace

double UpdateStats::AvgFindCandidateNs() const {
  // FindCandidate runs exactly once per recons call.
  if (recons_calls == 0) return 0.0;
  return static_cast<double>(find_candidate_ns) /
         static_cast<double>(recons_calls);
}

double UpdateStats::AvgReconsNs() const {
  if (recons_calls == 0) return 0.0;
  return static_cast<double>(recons_ns) / static_cast<double>(recons_calls);
}

UpdateStats UpdateStats::operator-(const UpdateStats& other) const {
  UpdateStats out;
  out.compositions = compositions - other.compositions;
  out.decompositions = decompositions - other.decompositions;
  out.recons_calls = recons_calls - other.recons_calls;
  out.candidate_scans = candidate_scans - other.candidate_scans;
  out.find_candidate_ns = find_candidate_ns - other.find_candidate_ns;
  out.recons_ns = recons_ns - other.recons_ns;
  return out;
}

std::string UpdateStats::ToString() const {
  return StrCat("{compositions=", compositions,
                " decompositions=", decompositions,
                " recons_calls=", recons_calls,
                " candidate_scans=", candidate_scans,
                " recons_ns=", recons_ns, " (", AvgReconsNs(),
                "/call) find_candidate_ns=", find_candidate_ns, " (",
                AvgFindCandidateNs(), "/call)}");
}

CanonicalRelation::CanonicalRelation(Schema schema, Permutation order,
                                     SearchMode mode,
                                     std::shared_ptr<ValueDictionary> dict)
    : relation_(std::move(schema)),
      order_(std::move(order)),
      mode_(mode),
      dict_(dict != nullptr ? std::move(dict)
                            : std::make_shared<ValueDictionary>()) {
  NF2_CHECK(IsValidPermutation(order_, relation_.schema().degree()))
      << "CanonicalRelation: invalid nest order";
  if (mode_ == SearchMode::kIndexed) {
    index_.emplace(relation_.schema().degree(), dict_);
  }
}

Result<CanonicalRelation> CanonicalRelation::FromFlat(
    const FlatRelation& flat, Permutation order, SearchMode mode,
    std::shared_ptr<ValueDictionary> dict) {
  if (!IsValidPermutation(order, flat.degree())) {
    return Status::InvalidArgument(
        "nest order is not a permutation of the schema positions");
  }
  CanonicalRelation out(flat.schema(), std::move(order), mode,
                        std::move(dict));
  NfrRelation canonical = CanonicalForm(flat, out.order_);
  for (const NfrTuple& t : canonical.tuples()) {
    out.AppendTuple(t);
  }
  return out;
}

void CanonicalRelation::AppendTuple(NfrTuple t) {
  EncodedTuple encoded = InternTuple(dict_.get(), t);
  if (index_.has_value()) {
    index_->AddEncoded(relation_.size(), encoded);
  }
  encoded_.push_back(std::move(encoded));
  relation_.Add(std::move(t));
}

NfrTuple CanonicalRelation::TakeTupleAt(size_t index) {
  NfrTuple out = relation_.tuple(index);
  size_t last = relation_.size() - 1;
  if (index_.has_value()) {
    index_->RemoveEncoded(index, encoded_[index]);
    // NfrRelation::RemoveAt swap-removes: the last tuple moves into
    // `index`.
    if (index != last) {
      index_->MoveEncoded(last, index, encoded_[last]);
    }
  }
  encoded_.SwapRemove(index);
  relation_.RemoveAt(index);
  return out;
}

std::optional<EncodedTuple> CanonicalRelation::TryEncodeFlat(
    const FlatTuple& t) const {
  EncodedTuple encoded;
  encoded.reserve(t.degree());
  for (const Value& v : t.values()) {
    std::optional<ValueId> id = dict_->Find(v);
    if (!id.has_value()) return std::nullopt;
    encoded.push_back(IdSet(*id));
  }
  return encoded;
}

size_t CanonicalRelation::FindContainingTuple(const FlatTuple& t) const {
  std::optional<EncodedTuple> probe = TryEncodeFlat(t);
  if (!probe.has_value()) return relation_.size();  // Unseen value.
  if (index_.has_value()) {
    std::vector<size_t> ids = index_->ContainingEncoded(*probe);
    NF2_DCHECK(ids.size() <= 1) << "disjoint-expansion invariant broken";
    return ids.empty() ? relation_.size() : ids.front();
  }
  // Scan over the encoded mirror: an NFR tuple contains the simple
  // tuple iff every component holds the corresponding id.
  for (size_t i = 0; i < encoded_.size(); ++i) {
    bool contains = true;
    for (size_t attr = 0; attr < t.degree(); ++attr) {
      if (!encoded_[i][attr].Contains((*probe)[attr].single())) {
        contains = false;
        break;
      }
    }
    if (contains) return i;
  }
  return relation_.size();
}

NfrRelation CanonicalRelation::TuplesContaining(size_t attr,
                                                const Value& value) const {
  NF2_CHECK(attr < schema().degree()) << "attribute out of range";
  NfrRelation out(schema());
  if (index_.has_value()) {
    const std::vector<size_t>* ids = index_->Postings(attr, value);
    if (ids != nullptr) {
      for (size_t id : *ids) {
        out.Add(relation_.tuple(id));
      }
    }
    return out;
  }
  for (const NfrTuple& t : relation_.tuples()) {
    if (t.at(attr).Contains(value)) {
      out.Add(t);
    }
  }
  return out;
}

bool CanonicalRelation::Contains(const FlatTuple& t) const {
  if (t.degree() != schema().degree()) return false;
  return FindContainingTuple(t) != relation_.size();
}

Status CanonicalRelation::Insert(const FlatTuple& t) {
  if (t.degree() != schema().degree()) {
    return Status::InvalidArgument(
        StrCat("tuple degree ", t.degree(), " != schema degree ",
               schema().degree()));
  }
  if (Contains(t)) {
    return Status::AlreadyExists(
        StrCat("tuple ", t.ToString(), " already present"));
  }
  ScopedNsTimer timer(&stats_.recons_ns, metrics_.recons_ns);
  Recons(NfrTuple::FromFlat(t), /*depth=*/0);
  return Status::OK();
}

Status CanonicalRelation::Delete(const FlatTuple& t) {
  if (t.degree() != schema().degree()) {
    return Status::InvalidArgument(
        StrCat("tuple degree ", t.degree(), " != schema degree ",
               schema().degree()));
  }
  // The paper's searcht: the unique NFR tuple whose expansion holds t.
  size_t idx = FindContainingTuple(t);
  if (idx == relation_.size()) {
    return Status::NotFound(StrCat("tuple ", t.ToString(), " not present"));
  }
  NfrTuple q = TakeTupleAt(idx);
  // Unnest q on each attribute from the latest-nested down, extracting
  // t's value and re-inserting the remainder through recons (§4.3).
  for (size_t k = order_.size(); k-- > 0;) {
    size_t attr = order_[k];
    if (q.at(attr).IsSingleton()) continue;
    Result<Decomposition> split = Decompose(q, attr, t.at(attr));
    NF2_CHECK(split.ok()) << split.status().ToString();
    BumpMirrored(&stats_.decompositions, metrics_.decompositions);
    {
      ScopedNsTimer timer(&stats_.recons_ns, metrics_.recons_ns);
      Recons(std::move(split->remainder), /*depth=*/0);
    }
    q = std::move(split->extracted);
  }
  // q is now exactly the simple tuple t; it stays deleted.
  NF2_DCHECK(q.IsSimple());
  return Status::OK();
}

bool CanonicalRelation::IsCandidate(const EncodedTuple& s,
                                    const EncodedTuple& t, size_t m) const {
  const size_t n = order_.size();
  for (size_t k = 0; k < n; ++k) {
    size_t attr = order_[k];
    if (k < m) {
      // Earlier-nested attributes must agree exactly (they are the
      // components composition will require equal and that no further
      // unnesting may touch).
      if (s[attr] != t[attr]) return false;
    } else if (k == m) {
      // The composition attribute: t brings genuinely new values.
      if (!s[attr].IsDisjointFrom(t[attr])) return false;
    } else {
      // Later-nested attributes can be unnested down to t's values
      // (Lemma A-2), so coverage suffices.
      if (!t[attr].IsSubsetOf(s[attr])) return false;
    }
  }
  return true;
}

std::optional<CanonicalRelation::Candidate> CanonicalRelation::FindCandidate(
    const NfrTuple& t) {
  ScopedNsTimer timer(&stats_.find_candidate_ns, metrics_.find_candidate_ns);
  const size_t n = order_.size();
  // The probe is encoded once (interning any values it introduces) and
  // every comparison below is an integer merge against the encoded
  // mirror.
  const EncodedTuple probe = InternTuple(dict_.get(), t);
  auto is_candidate = [&](size_t i, size_t m) {
    BumpMirrored(&stats_.candidate_scans, metrics_.candidate_scans);
    return IsCandidate(encoded_[i], probe, m);
  };
  if (!index_.has_value()) {
    // Scan nest-order positions from the first-nested attribute; Lemma
    // A-1 gives at most one candidate per position, and the algorithm
    // wants the smallest such position.
    for (size_t m = 0; m < n; ++m) {
      for (size_t i = 0; i < relation_.size(); ++i) {
        if (is_candidate(i, m)) {
          return Candidate{i, m};
        }
      }
    }
    return std::nullopt;
  }
  // Indexed search. A candidate at position m must contain every value
  // of t on every attribute except order_[m] (exact equality and
  // disjointness are verified afterwards). Per-attribute containing
  // sets combine via prefix/suffix intersections so each position costs
  // one merge.
  std::vector<std::vector<size_t>> containing(n);
  for (size_t k = 0; k < n; ++k) {
    containing[k] = index_->ContainingAllIds(order_[k], probe[order_[k]]);
  }
  // prefix[k] = intersection of containing[0..k-1].
  std::vector<std::vector<size_t>> suffix(n + 1);
  suffix[n] = {};  // Unused sentinel.
  for (size_t k = n; k-- > 0;) {
    suffix[k] = (k == n - 1)
                    ? containing[k]
                    : IntersectSorted(containing[k], suffix[k + 1]);
  }
  std::vector<size_t> prefix;  // Intersection of containing[0..m-1].
  bool prefix_is_universe = true;
  for (size_t m = 0; m < n; ++m) {
    // Candidates at m: (∩_{k<m}) ∩ (∩_{k>m}).
    std::vector<size_t> ids;
    if (m + 1 < n) {
      ids = prefix_is_universe ? suffix[m + 1]
                               : IntersectSorted(prefix, suffix[m + 1]);
    } else {
      ids = prefix_is_universe ? std::vector<size_t>() : prefix;
      if (prefix_is_universe) {
        // Degenerate degree-1 relation: every tuple is a candidate
        // prospect.
        ids.resize(relation_.size());
        for (size_t i = 0; i < relation_.size(); ++i) ids[i] = i;
      }
    }
    for (size_t i : ids) {
      if (is_candidate(i, m)) {
        return Candidate{i, m};
      }
    }
    // Extend the prefix with containing[m] for the next position.
    prefix = prefix_is_universe ? containing[m]
                                : IntersectSorted(prefix, containing[m]);
    prefix_is_universe = false;
  }
  return std::nullopt;
}

void CanonicalRelation::Recons(NfrTuple t, int depth) {
  NF2_CHECK(depth < kMaxReconsDepth)
      << "recons recursion exceeded bound — canonical invariant broken";
  BumpMirrored(&stats_.recons_calls, metrics_.recons_calls);
  std::optional<Candidate> cand = FindCandidate(t);
  if (!cand.has_value()) {
    AppendTuple(std::move(t));
    return;
  }
  NfrTuple p = TakeTupleAt(cand->tuple_index);
  const size_t n = order_.size();
  // Unnest p on later-nested attributes until it matches t there,
  // re-inserting each remainder recursively (§4.2 procedure recons).
  for (size_t k = n; k-- > cand->m_pos + 1;) {
    size_t attr = order_[k];
    if (p.at(attr) == t.at(attr)) continue;
    Result<Decomposition> split = DecomposeSubset(p, attr, t.at(attr));
    NF2_CHECK(split.ok()) << split.status().ToString();
    BumpMirrored(&stats_.decompositions, metrics_.decompositions);
    Recons(std::move(split->remainder), depth + 1);
    p = std::move(split->extracted);
  }
  // p now agrees with t everywhere except the composition attribute.
  size_t m_attr = order_[cand->m_pos];
  NF2_CHECK(ComposableOn(p, t, m_attr))
      << "candidate not composable after unnesting: p="
      << p.ToString(schema()) << " t=" << t.ToString(schema());
  NfrTuple w = Compose(p, t, m_attr);
  BumpMirrored(&stats_.compositions, metrics_.compositions);
  // The composed tuple may itself compose further (Lemma A-3).
  Recons(std::move(w), depth + 1);
}

NfrRelation RebuildCanonicalAfterInsert(const NfrRelation& r,
                                        const FlatTuple& t,
                                        const Permutation& order) {
  FlatRelation flat = r.Expand();
  flat.Insert(t);
  return CanonicalForm(flat, order);
}

NfrRelation RebuildCanonicalAfterDelete(const NfrRelation& r,
                                        const FlatTuple& t,
                                        const Permutation& order) {
  FlatRelation flat = r.Expand();
  flat.Erase(t);
  return CanonicalForm(flat, order);
}

}  // namespace nf2
