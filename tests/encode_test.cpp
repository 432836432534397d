#include "lists/encode.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "lists/generators.hpp"
#include "lists/validate.hpp"

namespace lr90 {
namespace {

TEST(Encode, PackUnpackRoundTrip) {
  const packed_t w = pack_link_value(0xdeadbeefu, 0x12345678u);
  EXPECT_EQ(packed_link(w), 0xdeadbeefu);
  EXPECT_EQ(packed_value(w), 0x12345678u);
}

TEST(Encode, ExtremesRoundTrip) {
  const packed_t w = pack_link_value(0xffffffffu, 0xffffffffu);
  EXPECT_EQ(packed_link(w), 0xffffffffu);
  EXPECT_EQ(packed_value(w), 0xffffffffu);
  const packed_t z = pack_link_value(0, 0);
  EXPECT_EQ(packed_link(z), 0u);
  EXPECT_EQ(packed_value(z), 0u);
}

TEST(Encode, ListRoundTrip) {
  Rng rng(1);
  const LinkedList l = random_list(50, rng, ValueInit::kUniformSmall);
  const auto packed = encode_list(l);
  const LinkedList back = decode_list(packed, l.head);
  EXPECT_TRUE(lists_equal(l, back));
}

TEST(Encode, EmptyList) {
  LinkedList l;
  const auto packed = encode_list(l);
  EXPECT_TRUE(packed.empty());
  const LinkedList back = decode_list(packed, 0);
  EXPECT_EQ(back.head, kNoVertex);
}

TEST(Encode, CanEncodeAcceptsSmallNonNegative) {
  Rng rng(2);
  const LinkedList l = random_list(10, rng, ValueInit::kOnes);
  EXPECT_TRUE(can_encode(l));
}

TEST(Encode, CanEncodeRejectsNegativeValues) {
  Rng rng(3);
  LinkedList l = random_list(10, rng);
  l.value[3] = -1;
  EXPECT_FALSE(can_encode(l));
}

TEST(Encode, CanEncodeRejectsHugeValues) {
  Rng rng(4);
  LinkedList l = random_list(10, rng);
  l.value[0] = static_cast<value_t>(1) << 33;
  EXPECT_FALSE(can_encode(l));
}

TEST(Encode, SelfLoopSurvivesEncoding) {
  Rng rng(5);
  const LinkedList l = random_list(20, rng);
  const auto packed = encode_list(l);
  const index_t tail = l.find_tail();
  EXPECT_EQ(packed_link(packed[tail]), tail);
}

// -- the host hot-path word -------------------------------------------------

TEST(HotWord, PackUnpackRoundTrip) {
  for (const bool tail : {false, true}) {
    for (const index_t link :
         {index_t{0}, index_t{1}, index_t{12345}, index_t{0x7fffffff}}) {
      for (const std::int32_t lane :
           {std::int32_t{0}, std::int32_t{1}, std::int32_t{-1},
            std::numeric_limits<std::int32_t>::min(),
            std::numeric_limits<std::int32_t>::max()}) {
        const packed_t w =
            hot_pack(tail, link, static_cast<std::uint32_t>(lane));
        EXPECT_EQ(hot_tail(w), tail);
        EXPECT_EQ(hot_link(w), link);
        EXPECT_EQ(hot_value(w), static_cast<value_t>(lane))
            << "sign extension must reconstruct the value";
      }
    }
  }
}

TEST(HotWord, TailFlagDoesNotLeakIntoLinkOrValue) {
  // The flag is stolen from the top bit of the link lane: flipping it
  // must change nothing else.
  const packed_t off = hot_pack(false, 0x7fffffff, 0xffffffffu);
  const packed_t on = hot_pack(true, 0x7fffffff, 0xffffffffu);
  EXPECT_EQ(hot_link(off), hot_link(on));
  EXPECT_EQ(hot_value(off), hot_value(on));
  EXPECT_FALSE(hot_tail(off));
  EXPECT_TRUE(hot_tail(on));
  EXPECT_EQ(on, off | kHotTailBit);
}

TEST(HotWord, RandomRoundTrips) {
  Rng rng(0x407);
  for (int i = 0; i < 5000; ++i) {
    const bool tail = rng.coin();
    const auto link = static_cast<index_t>(rng.uniform(1ull << 31));
    const auto lane = static_cast<std::uint32_t>(rng.next_u64());
    const packed_t w = hot_pack(tail, link, lane);
    ASSERT_EQ(hot_tail(w), tail);
    ASSERT_EQ(hot_link(w), link);
    ASSERT_EQ(hot_value(w),
              static_cast<value_t>(static_cast<std::int32_t>(lane)));
  }
}

TEST(HotWord, ValueFitsMatchesLaneRoundTrip) {
  EXPECT_TRUE(hot_value_fits(0));
  EXPECT_TRUE(hot_value_fits(1));
  EXPECT_TRUE(hot_value_fits(-1));
  EXPECT_TRUE(hot_value_fits(std::numeric_limits<std::int32_t>::max()));
  EXPECT_TRUE(hot_value_fits(std::numeric_limits<std::int32_t>::min()));
  EXPECT_FALSE(hot_value_fits(static_cast<value_t>(1) << 31));
  EXPECT_FALSE(
      hot_value_fits(static_cast<value_t>(
                         std::numeric_limits<std::int32_t>::min()) -
                     1));
  EXPECT_FALSE(hot_value_fits(std::numeric_limits<value_t>::max()));
  EXPECT_FALSE(hot_value_fits(std::numeric_limits<value_t>::min()));
}

TEST(HotWide, PackRangeKeepsAllSixtyFourValueBits) {
  Rng rng(0x1de);
  const LinkedList l = random_list(257, rng);
  std::vector<value_t> values(l.size());
  std::vector<std::uint8_t> tails(l.size());
  for (std::size_t i = 0; i < l.size(); ++i) {
    values[i] = static_cast<value_t>(rng.next_u64());  // misses any lane
    tails[i] = rng.coin() ? 1 : 0;
  }
  std::vector<HotWide> out(l.size());
  EXPECT_TRUE(hot_pack_range(l.next.data(), values.data(), tails.data(),
                             out.data(), 0, l.size()));
  for (std::size_t i = 0; i < l.size(); ++i) {
    ASSERT_EQ(hot_link(out[i]), l.next[i]);
    ASSERT_EQ(hot_tail(out[i]), tails[i] != 0);
    ASSERT_EQ(hot_value(out[i]), values[i]);
  }
  // Ranking packs the constant 1.
  EXPECT_TRUE(hot_pack_range(l.next.data(), nullptr, tails.data(),
                             out.data(), 0, l.size()));
  for (const HotWide& r : out) ASSERT_EQ(hot_value(r), 1);
}

TEST(HotWord, CachedTailIsUsedAndGuarded) {
  Rng rng(6);
  LinkedList l = random_list(100, rng);
  const index_t scan_tail = [&] {
    for (std::size_t v = 0; v < l.size(); ++v)
      if (l.next[v] == static_cast<index_t>(v))
        return static_cast<index_t>(v);
    return kNoVertex;
  }();
  // The generator caches the tail at build time.
  EXPECT_EQ(l.tail, scan_tail);
  EXPECT_EQ(l.find_tail(), scan_tail);
  // A stale cache (links edited by hand) degrades to the scan, never a
  // wrong answer.
  l.tail = (scan_tail + 1) % static_cast<index_t>(l.size());
  EXPECT_EQ(l.find_tail(), scan_tail);
  l.tail = kNoVertex;
  EXPECT_EQ(l.find_tail(), scan_tail);
}

}  // namespace
}  // namespace lr90
