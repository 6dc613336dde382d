#ifndef NF2_CORE_COW_VECTOR_H_
#define NF2_CORE_COW_VECTOR_H_

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace nf2 {

/// Elements per chunk of every CowVector.
inline constexpr size_t kCowChunkSize = 64;

/// A vector stored in fixed-size chunks behind shared_ptr — the one
/// copy-on-write container under everything a snapshot publish shares
/// with the writer (DESIGN.md §9): NFR tuples, their encoded mirror,
/// the id-keyed index postings and the value dictionary.
///
/// Copying copies only the chunk pointers, and leaves every chunk
/// shared between the source and the copy. A shared chunk is never
/// written again: the first write through either side clones that one
/// chunk (kCowChunkSize element copies at most) and later writes reach
/// the private clone in place. Whether a chunk is private is this
/// vector's own bookkeeping, cleared by the copy and set by the clone;
/// it never reads another holder's reference count. So a copy handed to
/// concurrent readers stays immutable for as long as they hold it, with
/// no synchronization beyond whatever handed it over.
///
/// Reads cost what std::vector's do plus a chunk-table load, and
/// iteration walks a chunk's elements contiguously. The first chunk
/// grows with its elements, so a small vector (a query's temporary
/// relation) costs what a std::vector does; every later chunk is
/// reserved whole.
template <typename T>
class CowVector {
  static constexpr size_t kChunk = kCowChunkSize;
  /// At most kChunk elements. An owned chunk holds exactly its live
  /// elements; a shared one may still hold elements popped since.
  using Chunk = std::vector<T>;

 public:
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator() = default;
    reference operator*() const { return *item_; }
    pointer operator->() const { return item_; }
    const_iterator& operator++() {
      ++index_;
      if (++item_ == chunk_end_) Seek();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++*this;
      return before;
    }
    bool operator==(const const_iterator& other) const {
      return index_ == other.index_;
    }

   private:
    friend class CowVector;
    const_iterator(const CowVector* owner, size_t index)
        : owner_(owner), index_(index) {
      Seek();
    }
    void Seek() {
      if (index_ >= owner_->size_) return;
      const Chunk& chunk = *owner_->chunks_[index_ / kChunk];
      item_ = chunk.data() + index_ % kChunk;
      chunk_end_ = chunk.data() + chunk.size();
    }

    const CowVector* owner_ = nullptr;
    size_t index_ = 0;
    const T* item_ = nullptr;
    const T* chunk_end_ = nullptr;
  };

  CowVector() = default;
  explicit CowVector(std::vector<T> items) {
    for (T& item : items) push_back(std::move(item));
  }

  /// Shares every chunk with `other` (which stays valid and unchanged).
  CowVector(const CowVector& other)
      : chunks_(other.chunks_), size_(other.size_) {
    other.ShareAll();
  }
  CowVector& operator=(const CowVector& other) {
    if (this != &other) {
      chunks_ = other.chunks_;
      owned_.clear();
      size_ = other.size_;
      other.ShareAll();
    }
    return *this;
  }
  CowVector(CowVector&& other) noexcept
      : chunks_(std::exchange(other.chunks_, {})),
        owned_(std::exchange(other.owned_, {})),
        size_(std::exchange(other.size_, 0)) {}
  CowVector& operator=(CowVector&& other) noexcept {
    if (this != &other) {
      chunks_ = std::exchange(other.chunks_, {});
      owned_ = std::exchange(other.owned_, {});
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const T& operator[](size_t i) const {
    return (*chunks_[i / kChunk])[i % kChunk];
  }
  const T& back() const { return (*this)[size_ - 1]; }

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

  /// Writable element `i`; clones its chunk first when shared.
  T& Mutable(size_t i) {
    NF2_DCHECK(i < size_);
    return OwnChunk(i / kChunk)[i % kChunk];
  }

  void push_back(T value) {
    if (size_ % kChunk == 0) {
      auto fresh = std::make_shared<Chunk>();
      if (!chunks_.empty()) fresh->reserve(kChunk);
      chunks_.push_back(std::move(fresh));
      MarkOwned(chunks_.size() - 1);
    }
    OwnChunk(size_ / kChunk).push_back(std::move(value));
    ++size_;
  }

  void pop_back() {
    NF2_DCHECK(size_ > 0);
    --size_;
    const size_t c = size_ / kChunk;
    if (size_ % kChunk == 0) {
      chunks_.pop_back();
      if (owned_.size() > chunks_.size()) owned_.resize(chunks_.size());
    } else if (Owned(c)) {
      // A shared chunk keeps the element: it stays visible to the
      // copies sharing that chunk.
      chunks_[c]->pop_back();
    }
  }

  /// Moves the last element into position `i` and drops the last
  /// position (O(1); order is not preserved).
  void SwapRemove(size_t i) {
    NF2_DCHECK(i < size_);
    const size_t last = size_ - 1;
    if (i != last) {
      T& slot = Mutable(i);
      T& tail = (*chunks_[last / kChunk])[last % kChunk];
      if (Owned(last / kChunk)) {
        slot = std::move(tail);
      } else {
        slot = tail;
      }
    }
    pop_back();
  }

  /// Grows with default-constructed elements or shrinks from the back.
  /// Whole chunks of new elements share one static blank chunk until
  /// written, and whole chunks past `n` are dropped at once, so a
  /// resize costs one step per chunk, not per element.
  void resize(size_t n) {
    if (n < size_) {
      const size_t keep = (n + kChunk - 1) / kChunk;
      chunks_.resize(keep);
      if (owned_.size() > keep) owned_.resize(keep);
      if (n % kChunk != 0 && Owned(keep - 1)) {
        chunks_[keep - 1]->resize(n % kChunk);
      }
      size_ = n;
      return;
    }
    if (size_ % kChunk != 0 && n > size_) {
      const size_t c = size_ / kChunk;
      const size_t fill = std::min(n, (c + 1) * kChunk);
      OwnChunk(c).resize(fill - c * kChunk);
      size_ = fill;
    }
    while (size_ < n) {
      chunks_.push_back(Blank());
      size_ = std::min(n, size_ + kChunk);
    }
  }

  /// Drops trailing elements equal to T(); a blank chunk goes whole.
  void TrimDefaults() {
    while (size_ > 0) {
      const size_t c = (size_ - 1) / kChunk;
      if (chunks_[c] == Blank()) {
        resize(c * kChunk);
      } else if (back() == T()) {
        pop_back();
      } else {
        return;
      }
    }
  }

 private:
  bool Owned(size_t c) const { return c < owned_.size() && owned_[c]; }

  /// The all-default chunk every resize shares. It has no control
  /// block, so sharing it touches no reference count, and no vector
  /// ever owns it, so it is never written.
  static const std::shared_ptr<Chunk>& Blank() {
    static Chunk blank(kChunk);
    static const std::shared_ptr<Chunk> shared(std::shared_ptr<Chunk>(),
                                               &blank);
    return shared;
  }

  void MarkOwned(size_t c) {
    if (owned_.size() <= c) owned_.resize(chunks_.size(), false);
    owned_[c] = true;
  }

  /// Chunk `c`, cloned first when it is shared — copying only its live
  /// elements.
  Chunk& OwnChunk(size_t c) {
    if (!Owned(c)) {
      const Chunk& shared = *chunks_[c];
      auto fresh = std::make_shared<Chunk>();
      if (c > 0) fresh->reserve(kChunk);
      fresh->assign(shared.begin(),
                    shared.begin() + std::min(kChunk, size_ - c * kChunk));
      chunks_[c] = std::move(fresh);
      MarkOwned(c);
    }
    return *chunks_[c];
  }

  /// After a copy every chunk is shared. Reads before writing, so
  /// copying a vector that owns nothing (a published copy) writes
  /// nothing.
  void ShareAll() const {
    if (!owned_.empty()) owned_.clear();
  }

  std::vector<std::shared_ptr<Chunk>> chunks_;
  /// owned_[c]: chunk c was created or cloned by this vector since its
  /// last copy, so no other vector can reach it. Missing entries are
  /// false.
  mutable std::vector<bool> owned_;
  size_t size_ = 0;
};

}  // namespace nf2

#endif  // NF2_CORE_COW_VECTOR_H_
