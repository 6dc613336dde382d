#include "core/cow_vector.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace nf2 {
namespace {

constexpr size_t C = kCowChunkSize;

using Strings = CowVector<std::string>;

std::string Item(size_t i) { return "item-" + std::to_string(i); }

Strings Filled(size_t n) {
  Strings v;
  for (size_t i = 0; i < n; ++i) v.push_back(Item(i));
  return v;
}

/// Every element of `v` is Item(i), in order, by index and by iterator.
void ExpectItems(const Strings& v, size_t n) {
  ASSERT_EQ(v.size(), n);
  size_t i = 0;
  for (const std::string& s : v) {
    EXPECT_EQ(s, Item(i)) << i;
    EXPECT_EQ(v[i], Item(i)) << i;
    ++i;
  }
  EXPECT_EQ(i, n);
}

TEST(CowVectorTest, CopySharesEveryChunk) {
  Strings a = Filled(3 * C + 5);
  Strings b = a;
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(&a[i], &b[i]) << i;
}

TEST(CowVectorTest, CopyUnchangedByPushBackAcrossAChunkBoundary) {
  Strings a = Filled(2 * C - 1);
  Strings b = a;
  a.push_back("tail");  // Fills the shared last chunk: clones it.
  a.push_back("next");  // Opens a fresh chunk.
  ExpectItems(b, 2 * C - 1);
  ASSERT_EQ(a.size(), 2 * C + 1);
  EXPECT_EQ(a[2 * C - 1], "tail");
  EXPECT_EQ(a[2 * C], "next");
  // Only the written chunk was cloned; the first is still shared.
  EXPECT_EQ(&a[0], &b[0]);
  EXPECT_NE(&a[C], &b[C]);
}

TEST(CowVectorTest, CopyUnchangedByPopBack) {
  Strings a = Filled(C + 1);
  Strings b = a;
  a.pop_back();  // Empties the last chunk: dropped.
  a.pop_back();  // Pops out of the shared first chunk.
  ExpectItems(b, C + 1);
  ExpectItems(a, C - 1);
  // Refilling the popped position writes a clone, not b's chunk.
  a.push_back("refill");
  EXPECT_EQ(a[C - 1], "refill");
  ExpectItems(b, C + 1);
}

TEST(CowVectorTest, CopyUnchangedByElementWritesAtChunkBoundaries) {
  Strings a = Filled(3 * C);
  Strings b = a;
  for (size_t i : {size_t{0}, C - 1, C, 2 * C - 1, 3 * C - 1}) {
    a.Mutable(i) = "written";
  }
  ExpectItems(b, 3 * C);
  EXPECT_EQ(a[C - 1], "written");
  EXPECT_EQ(a[C], "written");
  EXPECT_EQ(a[1], Item(1));
  // And the other way round: writing through the copy leaves the source.
  b.Mutable(C + 1) = "from b";
  EXPECT_EQ(a[C + 1], Item(C + 1));
}

TEST(CowVectorTest, SwapRemoveOutOfASharedChunk) {
  Strings a = Filled(2 * C + 3);
  Strings b = a;
  a.SwapRemove(1);  // The last element moves into the shared first chunk.
  ExpectItems(b, 2 * C + 3);
  ASSERT_EQ(a.size(), 2 * C + 2);
  EXPECT_EQ(a[1], Item(2 * C + 2));
  EXPECT_EQ(a[0], Item(0));
  // Removing the last position itself is a plain pop.
  a.SwapRemove(a.size() - 1);
  EXPECT_EQ(a.size(), 2 * C + 1);
  EXPECT_EQ(a.back(), Item(2 * C));
  ExpectItems(b, 2 * C + 3);
}

TEST(CowVectorTest, EmptyCopies) {
  Strings empty;
  Strings copy = empty;
  EXPECT_TRUE(copy.empty());
  EXPECT_EQ(copy.begin(), copy.end());
  copy.push_back("x");
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.begin(), empty.end());
  Strings moved = std::move(copy);
  EXPECT_EQ(moved.size(), 1u);
  EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
  copy = moved;
  copy.pop_back();
  EXPECT_TRUE(copy.empty());
  EXPECT_EQ(moved[0], "x");
}

TEST(CowVectorTest, CopyOutlivesItsSource) {
  auto source = std::make_unique<Strings>(Filled(2 * C + 7));
  Strings copy = *source;
  source->Mutable(3) = "changed";
  source.reset();
  std::vector<std::string> seen(copy.begin(), copy.end());
  ASSERT_EQ(seen.size(), 2 * C + 7);
  EXPECT_EQ(seen[3], Item(3));
  ExpectItems(copy, 2 * C + 7);
}

TEST(CowVectorTest, ResizeGrowsWithDefaultsAndShrinksWhole) {
  CowVector<std::vector<int>> v;
  v.resize(5 * C + 2);
  ASSERT_EQ(v.size(), 5 * C + 2);
  for (const std::vector<int>& x : v) EXPECT_TRUE(x.empty());
  v.Mutable(C + 5).push_back(5);
  v.Mutable(4 * C).push_back(7);
  CowVector<std::vector<int>> copy = v;
  v.resize(C + 1);
  EXPECT_EQ(v.size(), C + 1);
  EXPECT_EQ(copy[4 * C], std::vector<int>{7});
  // Regrowing past a dropped position yields defaults, even inside the
  // chunk still shared with the copy, which keeps its element.
  v.resize(5 * C + 2);
  EXPECT_TRUE(v[C + 5].empty());
  EXPECT_TRUE(v[4 * C].empty());
  EXPECT_EQ(copy[C + 5], std::vector<int>{5});
  EXPECT_EQ(copy[4 * C], std::vector<int>{7});
}

TEST(CowVectorTest, TrimDefaultsDropsTheEmptyTail) {
  CowVector<std::vector<int>> v;
  v.resize(2);
  v.Mutable(1).push_back(1);
  v.resize(10 * C);
  v.Mutable(6 * C + 3).push_back(2);
  CowVector<std::vector<int>> copy = v;
  v.Mutable(6 * C + 3).clear();
  v.TrimDefaults();
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(copy.size(), 10 * C);
  EXPECT_EQ(copy[6 * C + 3], std::vector<int>{2});
  v.Mutable(1).clear();
  v.TrimDefaults();
  EXPECT_TRUE(v.empty());
}

}  // namespace
}  // namespace nf2
