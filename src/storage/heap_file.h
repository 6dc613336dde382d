#ifndef NF2_STORAGE_HEAP_FILE_H_
#define NF2_STORAGE_HEAP_FILE_H_

#include <memory>
#include <string>

#include "storage/env.h"
#include "storage/page.h"
#include "util/result.h"

namespace nf2 {

/// A file of fixed-size pages, read and written whole by the checkpoint
/// (storage/checkpoint.h) — the only reader and writer of table files.
/// All I/O flows through the owning Env, so fault-injection tests can
/// cut the write stream at any syscall.
///
/// Not thread-safe; the engine checkpoints from its writer context.
class HeapFile {
 public:
  HeapFile() = default;
  ~HeapFile();

  HeapFile(const HeapFile&) = delete;
  HeapFile& operator=(const HeapFile&) = delete;

  /// Creates a new empty file (truncates an existing one).
  static Result<std::unique_ptr<HeapFile>> Create(Env* env,
                                                  const std::string& path);

  /// Opens an existing file; NotFound if missing. A trailing partial
  /// page (a crash mid shadow-page append) is floored away: the torn
  /// region is never referenced by any manifest and is overwritten by
  /// the next extension.
  static Result<std::unique_ptr<HeapFile>> Open(Env* env,
                                                const std::string& path);

  const std::string& path() const { return path_; }
  PageId page_count() const { return page_count_; }

  /// Reads page `id` into `*page`.
  Status ReadPage(PageId id, Page* page);

  /// Writes `page` at `id`, extending the file by exactly one page when
  /// `id == page_count()` — the shadow-page writer's append path, which
  /// places a full image rather than a fresh empty page.
  Status WritePageAt(PageId id, const Page& page);

  /// fdatasyncs the file: every written page is on stable storage when
  /// this returns OK.
  Status Sync();

 private:
  std::string path_;
  std::unique_ptr<RandomRWFile> file_;
  PageId page_count_ = 0;
};

}  // namespace nf2

#endif  // NF2_STORAGE_HEAP_FILE_H_
