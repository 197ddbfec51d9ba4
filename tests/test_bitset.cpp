#include "util/bitset.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

namespace atcd {
namespace {

TEST(DynBitset, StartsEmpty) {
  DynBitset b(100);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_TRUE(b.none());
  EXPECT_EQ(b.count(), 0u);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_FALSE(b.test(i));
}

TEST(DynBitset, SetAndClearAcrossWordBoundaries) {
  DynBitset b(130);
  for (std::size_t i : {0u, 63u, 64u, 65u, 127u, 128u, 129u}) {
    b.set(i);
    EXPECT_TRUE(b.test(i)) << i;
  }
  EXPECT_EQ(b.count(), 7u);
  b.set(64, false);
  EXPECT_FALSE(b.test(64));
  EXPECT_EQ(b.count(), 6u);
  b.reset();
  EXPECT_TRUE(b.none());
}

TEST(DynBitset, SubsetOrder) {
  DynBitset a(70), b(70);
  a.set(3);
  a.set(65);
  b = a;
  b.set(10);
  EXPECT_TRUE(a.is_subset_of(b));
  EXPECT_FALSE(b.is_subset_of(a));
  EXPECT_TRUE(a.is_subset_of(a));
  EXPECT_TRUE(DynBitset(70).is_subset_of(a));
}

TEST(DynBitset, UnionIntersectionDifference) {
  DynBitset a(10), b(10);
  a.set(1);
  a.set(2);
  b.set(2);
  b.set(3);
  EXPECT_EQ((a | b).ones(), (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_EQ((a & b).ones(), (std::vector<std::size_t>{2}));
  DynBitset c = a;
  c.subtract(b);
  EXPECT_EQ(c.ones(), (std::vector<std::size_t>{1}));
}

TEST(DynBitset, OnesMatchesBitByBitScanAcrossWords) {
  DynBitset b(200);
  for (const std::size_t i : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 150u, 199u})
    b.set(i);
  std::vector<std::size_t> expect;
  for (std::size_t i = 0; i < b.size(); ++i)
    if (b.test(i)) expect.push_back(i);
  EXPECT_EQ(b.ones(), expect);
  EXPECT_TRUE(DynBitset(130).ones().empty());
  EXPECT_TRUE(DynBitset().ones().empty());
}

TEST(DynBitset, FromMaskMatchesBitPattern) {
  const auto b = DynBitset::from_mask(10, 0b1010110101);
  EXPECT_EQ(b.to_string(), "1010110101");
  EXPECT_EQ(b.count(), 6u);
}

TEST(DynBitset, FromMaskClipsBeyondSize) {
  // Bits beyond the size must be dropped so equality stays canonical.
  const auto b = DynBitset::from_mask(4, 0xFF);
  EXPECT_EQ(b.count(), 4u);
  EXPECT_EQ(b, DynBitset::from_mask(4, 0x0F));
}

TEST(DynBitset, EqualityAndOrdering) {
  DynBitset a(5), b(5);
  EXPECT_EQ(a, b);
  a.set(2);
  EXPECT_NE(a, b);
  EXPECT_TRUE(b < a || a < b);
}

TEST(DynBitset, HashDistinguishesTypicalValues) {
  std::unordered_set<std::size_t> hashes;
  for (std::uint64_t m = 0; m < 256; ++m)
    hashes.insert(DynBitset::from_mask(8, m).hash());
  // FNV over words: collisions over 256 tiny values would be alarming.
  EXPECT_EQ(hashes.size(), 256u);
}

TEST(DynBitset, ZeroSized) {
  DynBitset b(0);
  EXPECT_TRUE(b.none());
  EXPECT_EQ(b.count(), 0u);
  EXPECT_EQ(b.to_string(), "");
  EXPECT_EQ(b, DynBitset::from_mask(0, 0));
}

}  // namespace
}  // namespace atcd
