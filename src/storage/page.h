#ifndef NF2_STORAGE_PAGE_H_
#define NF2_STORAGE_PAGE_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace nf2 {

/// Fixed page size; small enough that tests exercise multi-page files.
inline constexpr size_t kPageSize = 4096;

using PageId = uint32_t;
inline constexpr PageId kInvalidPageId = 0xffffffffu;

/// A slotted page: records grow from the tail, the slot directory grows
/// from the head.
///
/// Layout:
///   [u16 slot_count][u16 free_end]
///   [slot 0: u16 offset, u16 length] [slot 1] ...
///   ... free space ...
///   [record bytes, packed toward the end]
///
/// Pages are written whole by the checkpoint serializer and read back
/// from disk, so every read bounds the slot directory and each record
/// against the page: a damaged page yields Corruption, never an
/// out-of-page read.
class Page {
 public:
  Page();

  /// Re-initializes an empty slotted page.
  void Format();

  /// Number of slots, as the page header claims.
  uint16_t slot_count() const;

  /// Bytes available for one more record (accounting for its slot).
  size_t FreeSpace() const;

  /// Appends a record; returns its slot index, or nullopt when the page
  /// is full. Records larger than the page payload never fit.
  std::optional<uint16_t> Insert(std::string_view record);

  /// Reads the record in `slot`; OutOfRange for a slot past
  /// slot_count(), Corruption when the slot's directory entry or its
  /// record bytes lie outside the page.
  Result<std::string> Read(uint16_t slot) const;

  /// Every record in slot order; Corruption when any slot is damaged.
  Result<std::vector<std::string>> Records() const;

  /// Raw page bytes (exactly kPageSize).
  const char* data() const { return bytes_.data(); }
  char* mutable_data() { return bytes_.data(); }

 private:
  uint16_t GetU16At(size_t pos) const;
  void SetU16At(size_t pos, uint16_t v);

  std::array<char, kPageSize> bytes_;
};

}  // namespace nf2

#endif  // NF2_STORAGE_PAGE_H_
