#include "core/value_dictionary.h"

#include <algorithm>
#include <numeric>

#include "util/hash.h"
#include "util/logging.h"

namespace nf2 {

uint32_t DictionaryView::HashOf(const Value& v) {
  // splitmix64's finalizer: Value::Hash of small ints is nearly the int
  // itself, and probing wants every bit mixed into the low ones.
  uint64_t h = v.Hash();
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<uint32_t>(h ^ (h >> 31));
}

size_t DictionaryView::Probe(const Value& v, uint32_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.id == kNoId || (slot.hash == hash && values_[slot.id] == v)) {
      return i;
    }
  }
}

std::optional<ValueId> DictionaryView::Find(const Value& v) const {
  if (slots_.empty()) return std::nullopt;
  ValueId id = slots_[Probe(v, HashOf(v))].id;
  if (id == kNoId) return std::nullopt;
  return id;
}

ValueDictionary::ValueDictionary(const ValueDictionary& other)
    : DictionaryView(other), ranks_dirty_(!other.empty()) {}

void ValueDictionary::GrowSlots() {
  CowVector<Slot> grown;
  grown.resize(slots_.empty() ? 16 : 2 * slots_.size());
  const size_t mask = grown.size() - 1;
  for (const Slot& slot : slots_) {
    if (slot.id == kNoId) continue;
    size_t i = slot.hash & mask;
    while (grown[i].id != kNoId) i = (i + 1) & mask;
    grown.Mutable(i) = slot;
  }
  slots_ = std::move(grown);
}

ValueId ValueDictionary::Intern(const Value& v) {
  const uint32_t hash = HashOf(v);
  if (!slots_.empty()) {
    ValueId found = slots_[Probe(v, hash)].id;
    if (found != kNoId) return found;
  }
  NF2_CHECK(values_.size() < kMaxValues) << "value dictionary full";
  if (2 * (values_.size() + 1) > slots_.size()) GrowSlots();
  ValueId id = static_cast<ValueId>(values_.size());
  if (!ranks_dirty_) {
    if (values_.empty() || values_[max_value_id_] < v) {
      // Monotone intern: the new value takes the next rank directly.
      ranks_.push_back(id);
      max_value_id_ = id;
    } else {
      ranks_dirty_ = true;
    }
  }
  slots_.Mutable(Probe(v, hash)) = Slot{id, hash};
  values_.push_back(v);
  return id;
}

const Value& DictionaryView::value(ValueId id) const {
  NF2_CHECK(id < values_.size()) << "ValueId " << id << " out of range";
  return values_[id];
}

void ValueDictionary::EnsureRanks() const {
  if (!ranks_dirty_ && ranks_.size() == values_.size()) return;
  std::vector<ValueId> by_value(values_.size());
  std::iota(by_value.begin(), by_value.end(), 0);
  std::sort(by_value.begin(), by_value.end(),
            [this](ValueId a, ValueId b) { return values_[a] < values_[b]; });
  ranks_.resize(values_.size());
  for (uint32_t rank = 0; rank < by_value.size(); ++rank) {
    ranks_[by_value[rank]] = rank;
  }
  if (!by_value.empty()) max_value_id_ = by_value.back();
  ranks_dirty_ = false;
}

uint32_t ValueDictionary::Rank(ValueId id) const {
  NF2_CHECK(id < values_.size()) << "ValueId " << id << " out of range";
  EnsureRanks();
  return ranks_[id];
}

int ValueDictionary::CompareIds(ValueId a, ValueId b) const {
  if (a == b) return 0;
  uint32_t ra = Rank(a);
  uint32_t rb = Rank(b);
  return ra < rb ? -1 : 1;
}

IdSet::IdSet(std::vector<ValueId> ids) : ids_(std::move(ids)) {
  std::sort(ids_.begin(), ids_.end());
  ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
}

IdSet IdSet::FromSorted(std::vector<ValueId> ids) {
  NF2_DCHECK(std::is_sorted(ids.begin(), ids.end()) &&
             std::adjacent_find(ids.begin(), ids.end()) == ids.end())
      << "IdSet::FromSorted input not sorted-unique";
  IdSet out;
  out.ids_ = std::move(ids);
  return out;
}

ValueId IdSet::single() const {
  NF2_CHECK(IsSingleton()) << "IdSet::single() on set of size " << ids_.size();
  return ids_[0];
}

bool IdSet::Contains(ValueId id) const {
  return std::binary_search(ids_.begin(), ids_.end(), id);
}

bool IdSet::Insert(ValueId id) {
  auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  if (it != ids_.end() && *it == id) return false;
  ids_.insert(it, id);
  return true;
}

bool IdSet::Erase(ValueId id) {
  auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  if (it == ids_.end() || *it != id) return false;
  ids_.erase(it);
  return true;
}

IdSet IdSet::Union(const IdSet& other) const {
  IdSet out;
  out.ids_.reserve(ids_.size() + other.ids_.size());
  std::set_union(ids_.begin(), ids_.end(), other.ids_.begin(),
                 other.ids_.end(), std::back_inserter(out.ids_));
  return out;
}

IdSet IdSet::Intersect(const IdSet& other) const {
  IdSet out;
  std::set_intersection(ids_.begin(), ids_.end(), other.ids_.begin(),
                        other.ids_.end(), std::back_inserter(out.ids_));
  return out;
}

IdSet IdSet::Difference(const IdSet& other) const {
  IdSet out;
  std::set_difference(ids_.begin(), ids_.end(), other.ids_.begin(),
                      other.ids_.end(), std::back_inserter(out.ids_));
  return out;
}

bool IdSet::IsSubsetOf(const IdSet& other) const {
  return std::includes(other.ids_.begin(), other.ids_.end(), ids_.begin(),
                       ids_.end());
}

bool IdSet::IsDisjointFrom(const IdSet& other) const {
  auto a = ids_.begin();
  auto b = other.ids_.begin();
  while (a != ids_.end() && b != other.ids_.end()) {
    if (*a == *b) return false;
    if (*a < *b) {
      ++a;
    } else {
      ++b;
    }
  }
  return true;
}

size_t IdSet::Hash() const {
  size_t seed = 0xcbf29ce484222325ULL;
  for (ValueId id : ids_) {
    seed = HashCombine(seed, id);
  }
  return seed;
}

IdSet InternValueSet(ValueDictionary* dict, const ValueSet& s) {
  std::vector<ValueId> ids;
  ids.reserve(s.size());
  for (const Value& v : s.values()) {
    ids.push_back(dict->Intern(v));
  }
  return IdSet(std::move(ids));
}

ValueSet DecodeIdSet(const ValueDictionary& dict, const IdSet& s) {
  // Sort ids by rank so the decoded elements come out in ascending
  // value order and ValueSet can skip its own payload sort.
  std::vector<ValueId> by_value(s.ids());
  std::sort(by_value.begin(), by_value.end(),
            [&dict](ValueId a, ValueId b) {
              return dict.Rank(a) < dict.Rank(b);
            });
  std::vector<Value> values;
  values.reserve(by_value.size());
  for (ValueId id : by_value) {
    values.push_back(dict.value(id));
  }
  return ValueSet::FromSortedUnique(std::move(values));
}

EncodedTuple InternTuple(ValueDictionary* dict, const NfrTuple& t) {
  EncodedTuple out;
  out.reserve(t.degree());
  for (const ValueSet& c : t.components()) {
    out.push_back(InternValueSet(dict, c));
  }
  return out;
}

NfrTuple DecodeTuple(const ValueDictionary& dict, const EncodedTuple& t) {
  std::vector<ValueSet> components;
  components.reserve(t.size());
  for (const IdSet& s : t) {
    components.push_back(DecodeIdSet(dict, s));
  }
  return NfrTuple(std::move(components));
}

size_t HashEncodedTupleExcept(const EncodedTuple& t, size_t skip_attr) {
  size_t seed = 0x9e57;
  for (size_t i = 0; i < t.size(); ++i) {
    if (i == skip_attr) continue;
    seed = HashCombine(seed, t[i].Hash());
  }
  return seed;
}

}  // namespace nf2
