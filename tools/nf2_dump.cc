// nf2_dump — prints the contents of a single nf2db table file (.tbl):
// the stored schema, nest order, page statistics, and every live tuple.
//
// Table files are shadow-paged by incremental checkpoints (DESIGN.md
// §12): the flat byte order holds stale page versions, and only the
// logical->physical mapping in the MANIFEST.nf2 beside the file is the
// live view. The dump reads through that mapping; a file the manifest
// does not map (a relation created since the last checkpoint, or a
// leftover) has no live view, and the dump exits 1 saying so.
//
//   $ nf2_dump <table_file> [--tuples] [--shard <i>]
//
// For sharded databases (nf2d --shards N, DESIGN.md §13) the table
// files live under <db_dir>/shard-<i>/; --shard <i> redirects the
// given path into that shard's subdirectory, so scripts can keep the
// unsharded path and pick the shard with a flag.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "core/format.h"
#include "storage/checkpoint.h"
#include "storage/env.h"
#include "util/string_util.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <table_file> [--tuples] [--shard <i>]\n",
                 argv[0]);
    return 2;
  }
  bool show_tuples = false;
  long shard = -1;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tuples") == 0) {
      show_tuples = true;
    } else if (std::strcmp(argv[i], "--shard") == 0 && i + 1 < argc) {
      char* end = nullptr;
      shard = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || shard < 0) {
        std::fprintf(stderr, "--shard takes a non-negative index\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "usage: %s <table_file> [--tuples] [--shard <i>]\n",
                   argv[0]);
      return 2;
    }
  }

  std::filesystem::path path(argv[1]);
  if (shard >= 0) {
    path = path.parent_path() / ("shard-" + std::to_string(shard)) /
           path.filename();
  }
  const std::string file = path.string();
  nf2::Env* env = nf2::Env::Default();
  auto manifest = nf2::LoadManifest(
      env, (path.parent_path() / "MANIFEST.nf2").string());
  const nf2::TableManifest* entry = nullptr;
  if (manifest.ok()) {
    auto it = manifest->tables.find(path.filename().string());
    if (it != manifest->tables.end()) entry = &it->second;
  } else if (manifest.status().code() != nf2::StatusCode::kNotFound) {
    std::fprintf(stderr, "cannot read MANIFEST.nf2: %s\n",
                 manifest.status().ToString().c_str());
    return 1;
  }
  if (entry == nullptr) {
    std::fprintf(stderr, "%s is not mapped by MANIFEST.nf2\n", file.c_str());
    return 1;
  }
  auto mapped = nf2::ReadTableMapped(env, file, *entry);
  if (!mapped.ok()) {
    std::fprintf(stderr, "mapped read failed: %s\n",
                 mapped.status().ToString().c_str());
    return 1;
  }
  std::printf("table file : %s\n", file.c_str());
  std::printf("view       : MANIFEST.nf2 mapping (%zu logical pages, "
              "%llu physical)\n",
              entry->pages.size(),
              static_cast<unsigned long long>(entry->physical_pages));
  std::printf("schema     : %s\n", mapped->schema.ToString().c_str());
  std::vector<std::string> order_names;
  for (size_t p : mapped->nest_order) {
    order_names.push_back(mapped->schema.attribute(p).name);
  }
  std::printf("nest order : %s\n", nf2::Join(order_names, " then ").c_str());
  std::printf("tuples     : %zu\n", mapped->relation.size());
  uint64_t expanded = 0;
  for (const nf2::NfrTuple& tuple : mapped->relation.tuples()) {
    expanded += tuple.ExpandedCount();
  }
  std::printf("|R*|       : %llu\n",
              static_cast<unsigned long long>(expanded));
  if (show_tuples) {
    std::printf("\n");
    for (const nf2::NfrTuple& tuple : mapped->relation.tuples()) {
      std::printf("%s\n", tuple.ToString(mapped->schema).c_str());
    }
  } else {
    std::printf("\n%s", nf2::RenderTable(mapped->relation).c_str());
  }
  return 0;
}
