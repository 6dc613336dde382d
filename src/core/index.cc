#include "core/index.h"

#include <algorithm>

#include "util/logging.h"

namespace nf2 {

NfrIndex::NfrIndex(size_t degree,
                   std::shared_ptr<const ValueDictionary> dict)
    : degree_(degree), dict_(std::move(dict)), postings_by_id_(degree) {
  NF2_CHECK(dict_ != nullptr) << "NfrIndex needs a dictionary";
}

void NfrIndex::AddEncoded(size_t tuple_id, const EncodedTuple& t) {
  NF2_CHECK(t.size() == degree_);
  for (size_t attr = 0; attr < degree_; ++attr) {
    CowVector<std::vector<size_t>>& slots = postings_by_id_[attr];
    for (ValueId v : t[attr].ids()) {
      if (v >= slots.size()) slots.resize(v + 1);
      std::vector<size_t>& ids = slots.Mutable(v);
      auto it = std::lower_bound(ids.begin(), ids.end(), tuple_id);
      NF2_DCHECK(it == ids.end() || *it != tuple_id);
      ids.insert(it, tuple_id);
    }
  }
}

void NfrIndex::RemoveEncoded(size_t tuple_id, const EncodedTuple& t) {
  NF2_CHECK(t.size() == degree_);
  for (size_t attr = 0; attr < degree_; ++attr) {
    CowVector<std::vector<size_t>>& slots = postings_by_id_[attr];
    for (ValueId v : t[attr].ids()) {
      NF2_CHECK(v < slots.size()) << "index missing value id " << v;
      std::vector<size_t>& ids = slots.Mutable(v);
      auto it = std::lower_bound(ids.begin(), ids.end(), tuple_id);
      NF2_CHECK(it != ids.end() && *it == tuple_id)
          << "index missing id for value id " << v;
      ids.erase(it);
      // An emptied posting list keeps its heap buffer otherwise —
      // churn-heavy workloads would hold peak capacity forever.
      if (ids.empty()) {
        std::vector<size_t>().swap(ids);
      }
    }
    // Reclaim trailing empty slots. Interior empties must stay (their
    // ValueIds may return), but the tail can always shrink.
    slots.TrimDefaults();
  }
}

void NfrIndex::MoveEncoded(size_t from_id, size_t to_id,
                           const EncodedTuple& t) {
  if (from_id == to_id) return;
  RemoveEncoded(from_id, t);
  AddEncoded(to_id, t);
}

const std::vector<size_t>* NfrIndex::Postings(size_t attr,
                                              const Value& v) const {
  NF2_CHECK(attr < degree_);
  std::optional<ValueId> id = dict_->Find(v);
  if (!id.has_value()) return nullptr;
  return PostingsById(attr, *id);
}

const std::vector<size_t>* NfrIndex::PostingsById(size_t attr,
                                                  ValueId id) const {
  NF2_CHECK(attr < degree_);
  const CowVector<std::vector<size_t>>& slots = postings_by_id_[attr];
  if (id >= slots.size() || slots[id].empty()) return nullptr;
  return &slots[id];
}

std::vector<size_t> IntersectSorted(const std::vector<size_t>& a,
                                    const std::vector<size_t>& b) {
  std::vector<size_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<size_t> NfrIndex::ContainingInRange(
    size_t attr, const RangeBound& bound, const DictionaryView* values) const {
  NF2_CHECK(attr < degree_);
  // Id-keyed slots carry no value order. Every value is compared once,
  // in id order, which a rank table could not beat: handing out the ids
  // in value order is itself a pass over all of them.
  if (values == nullptr) values = dict_.get();
  std::vector<size_t> out;
  const CowVector<std::vector<size_t>>& slots = postings_by_id_[attr];
  const size_t ids = std::min<size_t>(slots.size(), values->size());
  for (ValueId id = 0; id < ids; ++id) {
    if (slots[id].empty() || !bound.Admits(values->value(id))) continue;
    out.insert(out.end(), slots[id].begin(), slots[id].end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<size_t> NfrIndex::ContainingAllIds(size_t attr,
                                               const IdSet& ids) const {
  NF2_CHECK(!ids.empty());
  const std::vector<size_t>* first = PostingsById(attr, ids[0]);
  if (first == nullptr) return {};
  std::vector<size_t> out = *first;
  for (size_t i = 1; i < ids.size() && !out.empty(); ++i) {
    const std::vector<size_t>* next = PostingsById(attr, ids[i]);
    if (next == nullptr) return {};
    out = IntersectSorted(out, *next);
  }
  return out;
}

std::vector<size_t> NfrIndex::ContainingEncoded(const EncodedTuple& t) const {
  NF2_CHECK(t.size() == degree_);
  std::vector<size_t> out = ContainingAllIds(0, t[0]);
  for (size_t attr = 1; attr < degree_ && !out.empty(); ++attr) {
    out = IntersectSorted(out, ContainingAllIds(attr, t[attr]));
  }
  return out;
}

size_t NfrIndex::slot_count() const {
  size_t total = 0;
  for (const auto& per_attr : postings_by_id_) {
    total += per_attr.size();
  }
  return total;
}

size_t NfrIndex::entry_count() const {
  size_t total = 0;
  for (const auto& per_attr : postings_by_id_) {
    for (const auto& ids : per_attr) {
      total += ids.size();
    }
  }
  return total;
}

}  // namespace nf2
