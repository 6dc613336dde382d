#include "core/tuple.h"

#include <algorithm>
#include <limits>

#include "util/hash.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace nf2 {

const Value& FlatTuple::at(size_t i) const {
  NF2_CHECK(i < values_.size()) << "FlatTuple index out of range";
  return values_[i];
}

Value& FlatTuple::at(size_t i) {
  NF2_CHECK(i < values_.size()) << "FlatTuple index out of range";
  return values_[i];
}

bool FlatTuple::operator<(const FlatTuple& other) const {
  return std::lexicographical_compare(values_.begin(), values_.end(),
                                      other.values_.begin(),
                                      other.values_.end());
}

size_t FlatTuple::Hash() const {
  return HashRange(values_.begin(), values_.end());
}

std::string FlatTuple::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(values_.size());
  for (const Value& v : values_) {
    parts.push_back(v.ToString());
  }
  return StrCat("(", Join(parts, ", "), ")");
}

std::ostream& operator<<(std::ostream& os, const FlatTuple& tuple) {
  return os << tuple.ToString();
}

NfrTuple NfrTuple::FromFlat(const FlatTuple& flat) {
  std::vector<ValueSet> components;
  components.reserve(flat.degree());
  for (const Value& v : flat.values()) {
    components.push_back(ValueSet(v));
  }
  return NfrTuple(std::move(components));
}

const ValueSet& NfrTuple::at(size_t i) const {
  NF2_CHECK(i < components_.size()) << "NfrTuple index out of range";
  return components_[i];
}

ValueSet& NfrTuple::at(size_t i) {
  NF2_CHECK(i < components_.size()) << "NfrTuple index out of range";
  return components_[i];
}

bool NfrTuple::IsSimple() const {
  for (const ValueSet& c : components_) {
    if (!c.IsSingleton()) return false;
  }
  return true;
}

bool NfrTuple::IsWellFormed() const {
  for (const ValueSet& c : components_) {
    if (c.empty()) return false;
  }
  return true;
}

uint64_t NfrTuple::ExpandedCount() const {
  uint64_t count = 1;
  for (const ValueSet& c : components_) {
    uint64_t size = c.size();
    if (size != 0 &&
        count > std::numeric_limits<uint64_t>::max() / size) {
      return std::numeric_limits<uint64_t>::max();
    }
    count *= size;
  }
  return count;
}

std::vector<FlatTuple> NfrTuple::Expand() const {
  std::vector<FlatTuple> out;
  if (components_.empty()) return out;
  for (const ValueSet& c : components_) {
    if (c.empty()) return out;  // Ill-formed tuple denotes nothing.
  }
  std::vector<size_t> index(components_.size(), 0);
  while (true) {
    std::vector<Value> values;
    values.reserve(components_.size());
    for (size_t i = 0; i < components_.size(); ++i) {
      values.push_back(components_[i][index[i]]);
    }
    out.emplace_back(std::move(values));
    // Odometer increment, last component fastest (keeps output sorted
    // because each component is itself sorted).
    size_t i = components_.size();
    while (i > 0) {
      --i;
      if (++index[i] < components_[i].size()) break;
      index[i] = 0;
      if (i == 0) return out;
    }
  }
}

bool NfrTuple::ExpansionContains(const FlatTuple& flat) const {
  if (flat.degree() != components_.size()) return false;
  for (size_t i = 0; i < components_.size(); ++i) {
    if (!components_[i].Contains(flat.at(i))) return false;
  }
  return true;
}

bool NfrTuple::AgreesExcept(const NfrTuple& other, size_t c) const {
  if (degree() != other.degree()) return false;
  for (size_t i = 0; i < components_.size(); ++i) {
    if (i == c) continue;
    if (components_[i] != other.components_[i]) return false;
  }
  return true;
}

bool NfrTuple::IsComponentwiseSubsetOf(const NfrTuple& other) const {
  if (degree() != other.degree()) return false;
  for (size_t i = 0; i < components_.size(); ++i) {
    if (!components_[i].IsSubsetOf(other.components_[i])) return false;
  }
  return true;
}

bool NfrTuple::operator<(const NfrTuple& other) const {
  return std::lexicographical_compare(components_.begin(), components_.end(),
                                      other.components_.begin(),
                                      other.components_.end());
}

size_t NfrTuple::Hash() const {
  size_t seed = 0x45f2db;
  for (const ValueSet& c : components_) {
    seed = HashCombine(seed, c.Hash());
  }
  return seed;
}

std::string NfrTuple::ToString(const Schema& schema) const {
  std::vector<std::string> parts;
  parts.reserve(components_.size());
  for (size_t i = 0; i < components_.size(); ++i) {
    std::string name = i < schema.degree() ? schema.attribute(i).name
                                           : StrCat("E", i + 1);
    parts.push_back(StrCat(name, "(", components_[i].ToString(), ")"));
  }
  return StrCat("[", Join(parts, " "), "]");
}

std::string NfrTuple::ToString() const { return ToString(Schema()); }

std::ostream& operator<<(std::ostream& os, const NfrTuple& tuple) {
  return os << tuple.ToString();
}

}  // namespace nf2
