#include "core/relation.h"

#include <algorithm>

#include "util/hash.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace nf2 {

FlatRelation::FlatRelation(Schema schema, std::vector<FlatTuple> tuples)
    : schema_(std::move(schema)), tuples_(std::move(tuples)) {
  for (const FlatTuple& t : tuples_) {
    NF2_CHECK(t.degree() == schema_.degree())
        << "Tuple degree " << t.degree() << " != schema degree "
        << schema_.degree();
  }
  std::sort(tuples_.begin(), tuples_.end());
  tuples_.erase(std::unique(tuples_.begin(), tuples_.end()), tuples_.end());
}

const FlatTuple& FlatRelation::tuple(size_t i) const {
  NF2_CHECK(i < tuples_.size());
  return tuples_[i];
}

bool FlatRelation::Contains(const FlatTuple& t) const {
  return std::binary_search(tuples_.begin(), tuples_.end(), t);
}

bool FlatRelation::Insert(FlatTuple t) {
  NF2_CHECK(t.degree() == schema_.degree())
      << "Tuple degree mismatch on insert";
  auto it = std::lower_bound(tuples_.begin(), tuples_.end(), t);
  if (it != tuples_.end() && *it == t) {
    return false;
  }
  tuples_.insert(it, std::move(t));
  return true;
}

bool FlatRelation::Erase(const FlatTuple& t) {
  auto it = std::lower_bound(tuples_.begin(), tuples_.end(), t);
  if (it == tuples_.end() || *it != t) {
    return false;
  }
  tuples_.erase(it);
  return true;
}

size_t FlatRelation::Hash() const {
  size_t seed = 0x1f1a7;
  for (const FlatTuple& t : tuples_) {
    seed = HashCombine(seed, t.Hash());
  }
  return seed;
}

std::string FlatRelation::ToString() const {
  std::string out = StrCat("FlatRelation", schema_.ToString(), " {",
                           tuples_.size(), " tuples}\n");
  for (const FlatTuple& t : tuples_) {
    out += StrCat("  ", t.ToString(), "\n");
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const FlatRelation& rel) {
  return os << rel.ToString();
}

NfrRelation::NfrRelation(Schema schema, std::vector<NfrTuple> tuples)
    : schema_(std::move(schema)) {
  for (NfrTuple& t : tuples) Add(std::move(t));
}

NfrRelation NfrRelation::FromFlat(const FlatRelation& flat) {
  std::vector<NfrTuple> tuples;
  tuples.reserve(flat.size());
  for (const FlatTuple& t : flat.tuples()) {
    tuples.push_back(NfrTuple::FromFlat(t));
  }
  return NfrRelation(flat.schema(), std::move(tuples));
}

const NfrTuple& NfrRelation::tuple(size_t i) const {
  NF2_CHECK(i < tuples_.size());
  return tuples_[i];
}

void NfrRelation::Add(NfrTuple t) {
  NF2_CHECK(t.degree() == schema_.degree()) << "NFR tuple degree mismatch";
  NF2_CHECK(t.IsWellFormed()) << "NFR tuple has empty component";
  tuples_.push_back(std::move(t));
}

void NfrRelation::RemoveAt(size_t index) {
  NF2_CHECK(index < tuples_.size());
  tuples_.SwapRemove(index);
}

bool NfrRelation::Remove(const NfrTuple& t) {
  size_t idx = IndexOf(t);
  if (idx == tuples_.size()) return false;
  RemoveAt(idx);
  return true;
}

size_t NfrRelation::IndexOf(const NfrTuple& t) const {
  for (size_t i = 0; i < tuples_.size(); ++i) {
    if (tuples_[i] == t) return i;
  }
  return tuples_.size();
}

FlatRelation NfrRelation::Expand() const {
  std::vector<FlatTuple> flat;
  for (const NfrTuple& t : tuples_) {
    std::vector<FlatTuple> expanded = t.Expand();
    flat.insert(flat.end(), expanded.begin(), expanded.end());
  }
  return FlatRelation(schema_, std::move(flat));
}

uint64_t NfrRelation::ExpandedSize() const {
  uint64_t total = 0;
  for (const NfrTuple& t : tuples_) {
    total += t.ExpandedCount();
  }
  return total;
}

bool NfrRelation::ExpansionContains(const FlatTuple& flat) const {
  return FindContaining(flat) != tuples_.size();
}

size_t NfrRelation::FindContaining(const FlatTuple& flat) const {
  for (size_t i = 0; i < tuples_.size(); ++i) {
    if (tuples_[i].ExpansionContains(flat)) return i;
  }
  return tuples_.size();
}

Status NfrRelation::Validate() const {
  for (size_t i = 0; i < tuples_.size(); ++i) {
    if (tuples_[i].degree() != schema_.degree()) {
      return Status::Corruption(
          StrCat("tuple ", i, " degree mismatch"));
    }
    if (!tuples_[i].IsWellFormed()) {
      return Status::Corruption(
          StrCat("tuple ", i, " has an empty component"));
    }
  }
  // Pairwise disjointness of expansions: two NFR tuples overlap iff
  // every pair of corresponding components intersects.
  for (size_t i = 0; i < tuples_.size(); ++i) {
    for (size_t j = i + 1; j < tuples_.size(); ++j) {
      bool overlap = true;
      for (size_t k = 0; k < schema_.degree(); ++k) {
        if (tuples_[i].at(k).IsDisjointFrom(tuples_[j].at(k))) {
          overlap = false;
          break;
        }
      }
      if (overlap) {
        return Status::Corruption(
            StrCat("tuples ", i, " and ", j,
                   " have overlapping expansions: ",
                   tuples_[i].ToString(schema_), " vs ",
                   tuples_[j].ToString(schema_)));
      }
    }
  }
  return Status::OK();
}

bool NfrRelation::EqualsAsSet(const NfrRelation& other) const {
  if (schema_ != other.schema_ || tuples_.size() != other.tuples_.size()) {
    return false;
  }
  std::vector<NfrTuple> a(tuples_.begin(), tuples_.end());
  std::vector<NfrTuple> b(other.tuples_.begin(), other.tuples_.end());
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

bool NfrRelation::EquivalentTo(const NfrRelation& other) const {
  return Expand() == other.Expand();
}

std::string NfrRelation::ToString() const {
  std::string out = StrCat("NfrRelation", schema_.ToString(), " {",
                           tuples_.size(), " tuples}\n");
  std::vector<NfrTuple> sorted(tuples_.begin(), tuples_.end());
  std::sort(sorted.begin(), sorted.end());
  for (const NfrTuple& t : sorted) {
    out += StrCat("  ", t.ToString(schema_), "\n");
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const NfrRelation& rel) {
  return os << rel.ToString();
}

FlatRelation MakeStringRelation(
    std::initializer_list<const char*> attr_names,
    std::initializer_list<std::initializer_list<const char*>> rows) {
  Schema schema = Schema::OfStrings(attr_names);
  std::vector<FlatTuple> tuples;
  for (const auto& row : rows) {
    std::vector<Value> values;
    values.reserve(row.size());
    for (const char* cell : row) {
      values.push_back(Value::String(cell));
    }
    NF2_CHECK(values.size() == schema.degree())
        << "Row width mismatch in MakeStringRelation";
    tuples.emplace_back(std::move(values));
  }
  return FlatRelation(std::move(schema), std::move(tuples));
}

}  // namespace nf2
