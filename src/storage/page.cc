#include "storage/page.h"

#include <cstring>

#include "util/string_util.h"

namespace nf2 {

namespace {
constexpr size_t kHeaderSize = 4;       // slot_count + free_end.
constexpr size_t kSlotSize = 4;         // offset + length.
constexpr size_t kSlotCountPos = 0;
constexpr size_t kFreeEndPos = 2;
}  // namespace

Page::Page() { Format(); }

void Page::Format() {
  bytes_.fill(0);
  SetU16At(kSlotCountPos, 0);
  SetU16At(kFreeEndPos, static_cast<uint16_t>(kPageSize));
}

uint16_t Page::GetU16At(size_t pos) const {
  uint16_t v;
  std::memcpy(&v, bytes_.data() + pos, sizeof(v));
  return v;
}

void Page::SetU16At(size_t pos, uint16_t v) {
  std::memcpy(bytes_.data() + pos, &v, sizeof(v));
}

uint16_t Page::slot_count() const { return GetU16At(kSlotCountPos); }

size_t Page::FreeSpace() const {
  size_t slots_end = kHeaderSize + slot_count() * kSlotSize;
  size_t free_end = GetU16At(kFreeEndPos);
  size_t gap = free_end > slots_end ? free_end - slots_end : 0;
  return gap > kSlotSize ? gap - kSlotSize : 0;
}

std::optional<uint16_t> Page::Insert(std::string_view record) {
  if (record.size() > 0xffff) return std::nullopt;
  if (FreeSpace() < record.size()) return std::nullopt;
  uint16_t count = slot_count();
  uint16_t free_end = GetU16At(kFreeEndPos);
  uint16_t offset = static_cast<uint16_t>(free_end - record.size());
  std::memcpy(bytes_.data() + offset, record.data(), record.size());
  size_t slot_pos = kHeaderSize + count * kSlotSize;
  SetU16At(slot_pos, offset);
  SetU16At(slot_pos + 2, static_cast<uint16_t>(record.size()));
  SetU16At(kFreeEndPos, offset);
  SetU16At(kSlotCountPos, count + 1);
  return count;
}

Result<std::string> Page::Read(uint16_t slot) const {
  if (slot >= slot_count()) {
    return Status::OutOfRange(StrCat("slot ", slot, " out of range"));
  }
  size_t slot_pos = kHeaderSize + slot * kSlotSize;
  if (slot_pos + kSlotSize > kPageSize) {
    return Status::Corruption(
        StrCat("slot ", slot, " lies past the page end (page claims ",
               slot_count(), " slots)"));
  }
  uint16_t offset = GetU16At(slot_pos);
  uint16_t length = GetU16At(slot_pos + 2);
  if (size_t{offset} + length > kPageSize) {
    return Status::Corruption(
        StrCat("slot ", slot, " points past the page end"));
  }
  return std::string(bytes_.data() + offset, length);
}

Result<std::vector<std::string>> Page::Records() const {
  std::vector<std::string> out;
  for (uint16_t s = 0; s < slot_count(); ++s) {
    NF2_ASSIGN_OR_RETURN(std::string record, Read(s));
    out.push_back(std::move(record));
  }
  return out;
}

}  // namespace nf2
