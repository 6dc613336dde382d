#include "storage/checkpoint.h"

#include <filesystem>
#include <vector>

#include "storage/heap_file.h"
#include "util/string_util.h"

namespace nf2 {

namespace {
constexpr uint32_t kTableMagic = 0x4e463252;     // "NF2R".
constexpr uint32_t kManifestMagic = 0x4e463243;  // "NF2C".
// Manifest format version, NF2FS-style: the major number (top 16 bits)
// bumps on incompatible layout changes, the minor (bottom 16) on
// compatible additions. The plain 1 (read as 0.1) that earlier builds
// wrote carried per-table file identity stamps; 2.0 has none and always
// ends with the WAL position.
constexpr uint32_t kManifestVersion = 0x00020000;
// Encoded size of one PageVersion: physical u32, version u64, crc u32.
constexpr size_t kPageVersionBytes = 16;

std::string VersionString(uint32_t version) {
  return StrCat(version >> 16, ".", version & 0xffff);
}

std::string_view PageView(const Page& page) {
  return std::string_view(page.data(), kPageSize);
}
}  // namespace

std::string EncodeTableMeta(const TableMeta& meta) {
  BufferWriter out;
  out.PutU32(kTableMagic);
  EncodeSchema(meta.schema, &out);
  out.PutU32(static_cast<uint32_t>(meta.nest_order.size()));
  for (size_t p : meta.nest_order) {
    out.PutU32(static_cast<uint32_t>(p));
  }
  return out.data();
}

Result<TableMeta> DecodeTableMeta(std::string_view bytes) {
  BufferReader in(bytes);
  NF2_ASSIGN_OR_RETURN(uint32_t magic, in.GetU32());
  if (magic != kTableMagic) {
    return Status::Corruption("bad table magic");
  }
  TableMeta meta;
  NF2_ASSIGN_OR_RETURN(meta.schema, DecodeSchema(&in));
  NF2_ASSIGN_OR_RETURN(uint32_t n, in.GetU32());
  if (n > in.remaining() / 4) {
    return Status::Corruption(
        StrCat("nest order of ", n, " positions exceeds the record size"));
  }
  meta.nest_order.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    NF2_ASSIGN_OR_RETURN(uint32_t p, in.GetU32());
    meta.nest_order.push_back(p);
  }
  if (!IsValidPermutation(meta.nest_order, meta.schema.degree())) {
    return Status::Corruption("stored nest order is not a permutation");
  }
  if (!in.AtEnd()) {
    return Status::Corruption("trailing bytes after table metadata");
  }
  return meta;
}

Result<std::vector<Page>> SerializeTablePages(const Schema& schema,
                                              const Permutation& nest_order,
                                              const NfrRelation& relation) {
  if (relation.schema() != schema) {
    return Status::InvalidArgument("relation schema mismatch on serialize");
  }
  std::vector<Page> pages(1);
  if (!pages.back().Insert(EncodeTableMeta({schema, nest_order})).has_value()) {
    return Status::Internal("metadata does not fit in one page");
  }
  BufferWriter out;
  for (const NfrTuple& t : relation.tuples()) {
    out.Clear();
    EncodeNfrTuple(t, &out);
    if (!pages.back().Insert(out.data()).has_value()) {
      pages.emplace_back();
      if (!pages.back().Insert(out.data()).has_value()) {
        return Status::InvalidArgument(
            StrCat("tuple record of ", out.size(),
                   " bytes does not fit in a fresh page"));
      }
    }
  }
  return pages;
}

void EncodeManifest(const Manifest& m, BufferWriter* out) {
  out->PutU32(kManifestMagic);
  out->PutU32(kManifestVersion);
  out->PutU64(m.checkpoint_seq);
  out->PutU64(m.dict_size);
  out->PutU32(static_cast<uint32_t>(m.tables.size()));
  for (const auto& [name, t] : m.tables) {
    out->PutString(name);
    out->PutU32(t.physical_pages);
    out->PutU32(static_cast<uint32_t>(t.pages.size()));
    for (const PageVersion& pv : t.pages) {
      out->PutU32(pv.physical);
      out->PutU64(pv.version);
      out->PutU32(pv.crc);
    }
  }
  out->PutU64(m.wal_epoch);
  out->PutU64(m.wal_base_lsn);
}

Result<Manifest> DecodeManifest(BufferReader* in) {
  NF2_ASSIGN_OR_RETURN(uint32_t magic, in->GetU32());
  if (magic != kManifestMagic) {
    return Status::Corruption("bad manifest magic");
  }
  NF2_ASSIGN_OR_RETURN(uint32_t version, in->GetU32());
  if (version != kManifestVersion) {
    return Status::Corruption(
        StrCat("manifest format ", VersionString(version),
               " is not supported; this build reads format ",
               VersionString(kManifestVersion)));
  }
  Manifest m;
  NF2_ASSIGN_OR_RETURN(m.checkpoint_seq, in->GetU64());
  NF2_ASSIGN_OR_RETURN(m.dict_size, in->GetU64());
  NF2_ASSIGN_OR_RETURN(uint32_t n_tables, in->GetU32());
  for (uint32_t i = 0; i < n_tables; ++i) {
    NF2_ASSIGN_OR_RETURN(std::string name, in->GetString());
    TableManifest t;
    NF2_ASSIGN_OR_RETURN(t.physical_pages, in->GetU32());
    NF2_ASSIGN_OR_RETURN(uint32_t n_pages, in->GetU32());
    if (n_pages > in->remaining() / kPageVersionBytes) {
      return Status::Corruption(
          StrCat("manifest entry for ", name, " announces ", n_pages,
                 " pages, more than its remaining bytes hold"));
    }
    t.pages.reserve(n_pages);
    for (uint32_t p = 0; p < n_pages; ++p) {
      PageVersion pv;
      NF2_ASSIGN_OR_RETURN(pv.physical, in->GetU32());
      NF2_ASSIGN_OR_RETURN(pv.version, in->GetU64());
      NF2_ASSIGN_OR_RETURN(pv.crc, in->GetU32());
      if (pv.physical >= t.physical_pages) {
        return Status::Corruption(
            StrCat("manifest maps logical page ", p, " of ", name,
                   " to physical ", pv.physical, " past file end ",
                   t.physical_pages));
      }
      t.pages.push_back(pv);
    }
    m.tables.emplace(std::move(name), std::move(t));
  }
  NF2_ASSIGN_OR_RETURN(m.wal_epoch, in->GetU64());
  NF2_ASSIGN_OR_RETURN(m.wal_base_lsn, in->GetU64());
  return m;
}

Result<Manifest> LoadManifest(Env* env, const std::string& path) {
  if (!env->FileExists(path)) {
    return Status::NotFound(StrCat("manifest ", path, " not found"));
  }
  NF2_ASSIGN_OR_RETURN(std::string bytes, env->ReadFileToString(path));
  if (bytes.size() < 4) {
    return Status::Corruption("manifest too short for checksum");
  }
  std::string_view payload(bytes.data(), bytes.size() - 4);
  BufferReader crc_reader(
      std::string_view(bytes.data() + payload.size(), 4));
  NF2_ASSIGN_OR_RETURN(uint32_t stored_crc, crc_reader.GetU32());
  if (Crc32(payload) != stored_crc) {
    return Status::Corruption("manifest checksum mismatch");
  }
  BufferReader in(payload);
  NF2_ASSIGN_OR_RETURN(Manifest m, DecodeManifest(&in));
  if (!in.AtEnd()) {
    return Status::Corruption("trailing bytes after manifest");
  }
  return m;
}

Status SaveManifestAtomic(Env* env, const std::string& path,
                          const Manifest& m) {
  BufferWriter payload;
  EncodeManifest(m, &payload);
  BufferWriter file;
  file.PutRaw(payload.data());
  file.PutU32(Crc32(payload.data()));
  return env->WriteFileAtomic(path, file.data());
}

namespace {
// Writes the serialized `pages` as the whole file at `path` via temp +
// rename + dir sync (crash-atomic: either the old file or the complete
// new one survives), and sets `*entry` to the identity mapping. The
// path for a file no durable manifest entry maps.
Status WriteWholeTableFile(Env* env, const std::string& path,
                           const std::vector<Page>& pages,
                           uint64_t new_version, TableManifest* entry,
                           CheckpointDeltaStats* stats) {
  const std::string tmp = path + ".tmp";
  TableManifest next;
  {
    NF2_ASSIGN_OR_RETURN(std::unique_ptr<HeapFile> file,
                         HeapFile::Create(env, tmp));
    for (size_t i = 0; i < pages.size(); ++i) {
      NF2_RETURN_IF_ERROR(
          file->WritePageAt(static_cast<PageId>(i), pages[i]));
      next.pages.push_back({static_cast<PageId>(i), new_version,
                            Crc32(PageView(pages[i]))});
      ++stats->pages_written;
      stats->bytes_written += kPageSize;
    }
    next.physical_pages = file->page_count();
    NF2_RETURN_IF_ERROR(file->Sync());
  }
  NF2_RETURN_IF_ERROR(env->RenameFile(tmp, path));
  const std::string dir = std::filesystem::path(path).parent_path().string();
  NF2_RETURN_IF_ERROR(env->SyncDir(dir.empty() ? "." : dir));
  *entry = std::move(next);
  return Status::OK();
}
}  // namespace

Result<CheckpointDeltaStats> CheckpointTableDelta(
    Env* env, const std::string& path, const Schema& schema,
    const Permutation& nest_order, const NfrRelation& relation,
    TableManifest* entry, uint64_t new_version) {
  CheckpointDeltaStats stats;
  NF2_ASSIGN_OR_RETURN(std::vector<Page> pages,
                       SerializeTablePages(schema, nest_order, relation));
  if (entry->pages.empty()) {
    NF2_RETURN_IF_ERROR(
        WriteWholeTableFile(env, path, pages, new_version, entry, &stats));
    return stats;
  }

  NF2_ASSIGN_OR_RETURN(std::unique_ptr<HeapFile> file,
                       HeapFile::Open(env, path));
  // Physical slots the durable mapping references must survive until
  // the next manifest is published; anything else below page_count is a
  // free shadow slot.
  std::vector<bool> referenced(file->page_count(), false);
  for (const PageVersion& pv : entry->pages) {
    if (pv.physical < referenced.size()) referenced[pv.physical] = true;
  }

  TableManifest next;
  PageId free_cursor = 0;
  bool wrote = false;
  for (size_t i = 0; i < pages.size(); ++i) {
    const uint32_t crc = Crc32(PageView(pages[i]));
    if (i < entry->pages.size() && entry->pages[i].crc == crc) {
      next.pages.push_back(entry->pages[i]);
      ++stats.pages_skipped;
      continue;
    }
    while (free_cursor < referenced.size() && referenced[free_cursor]) {
      ++free_cursor;
    }
    // With no free slot left, the cursor sits at page_count() and the
    // write appends.
    const PageId slot = free_cursor;
    if (slot == referenced.size()) referenced.push_back(false);
    referenced[slot] = true;
    NF2_RETURN_IF_ERROR(file->WritePageAt(slot, pages[i]));
    next.pages.push_back({slot, new_version, crc});
    ++stats.pages_written;
    stats.bytes_written += kPageSize;
    wrote = true;
  }
  next.physical_pages = file->page_count();
  if (wrote) NF2_RETURN_IF_ERROR(file->Sync());
  *entry = std::move(next);
  return stats;
}

Result<MappedTable> ReadTableMapped(Env* env, const std::string& path,
                                    const TableManifest& entry) {
  if (entry.pages.empty()) {
    return Status::Corruption(
        StrCat("empty manifest mapping for ", path));
  }
  if (!env->FileExists(path)) {
    return Status::Corruption(
        StrCat("table file ", path, " is mapped by the manifest but missing"));
  }
  NF2_ASSIGN_OR_RETURN(std::unique_ptr<HeapFile> file,
                       HeapFile::Open(env, path));
  MappedTable out;
  Page page;
  for (size_t i = 0; i < entry.pages.size(); ++i) {
    const PageVersion& pv = entry.pages[i];
    if (pv.physical >= file->page_count()) {
      return Status::Corruption(
          StrCat("manifest maps logical page ", i, " of ", path,
                 " past file end"));
    }
    NF2_RETURN_IF_ERROR(file->ReadPage(pv.physical, &page));
    if (Crc32(PageView(page)) != pv.crc) {
      return Status::Corruption(
          StrCat("page checksum mismatch on logical page ", i, " of ",
                 path));
    }
    NF2_ASSIGN_OR_RETURN(std::vector<std::string> records, page.Records());
    size_t first_tuple = 0;
    if (i == 0) {
      if (records.empty()) {
        return Status::Corruption(
            StrCat("table file ", path, " has no metadata record"));
      }
      NF2_ASSIGN_OR_RETURN(TableMeta meta, DecodeTableMeta(records[0]));
      out.schema = std::move(meta.schema);
      out.nest_order = std::move(meta.nest_order);
      out.relation = NfrRelation(out.schema);
      first_tuple = 1;
    }
    for (size_t r = first_tuple; r < records.size(); ++r) {
      BufferReader reader(records[r]);
      NF2_ASSIGN_OR_RETURN(NfrTuple tuple, DecodeNfrTuple(&reader));
      if (tuple.degree() != out.schema.degree()) {
        return Status::Corruption("stored tuple degree mismatch");
      }
      if (!tuple.IsWellFormed()) {
        return Status::Corruption("empty component in stored tuple");
      }
      out.relation.Add(std::move(tuple));
    }
  }
  return out;
}

}  // namespace nf2
