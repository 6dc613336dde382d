#ifndef NF2_STORAGE_CHECKPOINT_H_
#define NF2_STORAGE_CHECKPOINT_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/nest.h"
#include "core/relation.h"
#include "core/schema.h"
#include "storage/env.h"
#include "storage/page.h"
#include "storage/serde.h"
#include "util/result.h"

namespace nf2 {

/// Incremental, page-level checkpoints (DESIGN.md §12) — the one
/// module that reads and writes table files.
///
/// Each table file is shadow-paged: the MANIFEST maps every *logical*
/// page of a table to the *physical* page slot holding its live
/// version, and recovery reads a table only through that mapping.
/// Writing a checkpoint serializes the relation into logical page
/// images, skips every page whose CRC matches the manifest, and writes
/// the changed ones into physical slots the durable manifest does NOT
/// reference — old versions stay intact until the next manifest is
/// published by an atomic rename. The WAL truncate after that rename is
/// the commit point: a crash anywhere earlier recovers from the old
/// manifest plus a full (idempotent) replay, a crash after it from the
/// new manifest.

/// The metadata record every table file carries in logical page 0,
/// slot 0: the relation's schema and nest order.
struct TableMeta {
  Schema schema;
  Permutation nest_order;
};

std::string EncodeTableMeta(const TableMeta& meta);
Result<TableMeta> DecodeTableMeta(std::string_view bytes);

/// Deterministically packs `relation` into logical page images: the
/// metadata record in page 0 slot 0, then one record per NFR tuple,
/// first-fit in tuple order. The nested relation IS the physical
/// representation (the paper's "internal view"), with correspondingly
/// fewer records than the 1NF expansion. The incremental checkpoint
/// diffs these images against the manifest's per-page CRCs to find the
/// pages worth writing.
Result<std::vector<Page>> SerializeTablePages(const Schema& schema,
                                              const Permutation& nest_order,
                                              const NfrRelation& relation);

/// The live version of one logical page.
struct PageVersion {
  PageId physical = kInvalidPageId;  // Slot in the heap file.
  uint64_t version = 0;              // checkpoint_seq that wrote it.
  uint32_t crc = 0;                  // CRC32 of the full page image.

  bool operator==(const PageVersion&) const = default;
};

/// The manifest entry for one table file.
struct TableManifest {
  /// Physical size of the heap file, in pages, after the checkpoint.
  PageId physical_pages = 0;
  /// Logical page index -> live version. Index 0 holds the metadata
  /// record.
  std::vector<PageVersion> pages;

  bool operator==(const TableManifest&) const = default;
};

/// The whole-database checkpoint manifest, persisted as MANIFEST.nf2
/// via WriteFileAtomic (never torn; either the old mapping or the new
/// one is on disk).
struct Manifest {
  uint64_t checkpoint_seq = 0;  // Monotone, bumped per checkpoint.
  uint64_t dict_size = 0;       // Dictionary entries covered by dict.nf2.
  std::map<std::string, TableManifest> tables;  // Key: table file name.
  /// WAL stream position carried across the truncate this checkpoint
  /// commits with: the truncate bumps the log to `wal_epoch` and its
  /// first post-truncate record gets lsn >= `wal_base_lsn`. Recovery
  /// folds these into the reopened log (AdoptDurablePosition) so a
  /// stream position (epoch, lsn) is never reissued across a restart.
  uint64_t wal_epoch = 0;
  uint64_t wal_base_lsn = 0;

  bool operator==(const Manifest&) const = default;
};

void EncodeManifest(const Manifest& m, BufferWriter* out);
Result<Manifest> DecodeManifest(BufferReader* in);

/// Loads and CRC-verifies the manifest; NotFound when the file does not
/// exist, Corruption when it fails validation or was written in another
/// format version — recovery must then fail closed rather than guess a
/// page mapping.
Result<Manifest> LoadManifest(Env* env, const std::string& path);

/// Atomically replaces the manifest file (write temp -> sync -> rename
/// -> sync dir).
Status SaveManifestAtomic(Env* env, const std::string& path,
                          const Manifest& m);

/// What one CheckpointTableDelta call did.
struct CheckpointDeltaStats {
  uint64_t pages_written = 0;
  uint64_t pages_skipped = 0;
  uint64_t bytes_written = 0;

  CheckpointDeltaStats& operator+=(const CheckpointDeltaStats& o) {
    pages_written += o.pages_written;
    pages_skipped += o.pages_skipped;
    bytes_written += o.bytes_written;
    return *this;
  }
};

/// Writes `relation` into the table file at `path` against `*entry`
/// (the durable manifest's mapping for the file), updating `*entry` in
/// place to the new mapping:
///  - Durable mapping present: changed logical pages go to physical
///    slots the old mapping does not reference (shadow paging);
///    unchanged pages are skipped. Safe because recovery reads the file
///    only through the durable mapping.
///  - No durable mapping (a relation created since the last
///    checkpoint): the whole file is written via temp + rename + dir
///    sync. Recovery ignores an unmapped file, and the rename leaves
///    any stray file of the same name whole until it lands.
/// The file is fdatasync'd before returning whenever anything was
/// written. The caller must only persist `*entry` (SaveManifestAtomic)
/// AFTER this returns OK.
Result<CheckpointDeltaStats> CheckpointTableDelta(
    Env* env, const std::string& path, const Schema& schema,
    const Permutation& nest_order, const NfrRelation& relation,
    TableManifest* entry, uint64_t new_version);

/// A table read through a manifest mapping.
struct MappedTable {
  Schema schema;
  Permutation nest_order;
  NfrRelation relation;
};

/// Reads the table at `path` through `entry`'s logical->physical
/// mapping, verifying every page against its manifest CRC. Any
/// mismatch — a missing file, a page past the file end, a CRC or
/// decode failure — is Corruption: a mapped read must never silently
/// mix page versions or drop a record.
Result<MappedTable> ReadTableMapped(Env* env, const std::string& path,
                                    const TableManifest& entry);

}  // namespace nf2

#endif  // NF2_STORAGE_CHECKPOINT_H_
