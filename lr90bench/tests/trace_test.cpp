// Unit tests of the benchmark's span recorder and percentile math.
#include "trace.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace lr90bench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRank) {
  const std::vector<double> v = one_to(100);
  EXPECT_EQ(percentile(v, 50.0), 50.0);
  EXPECT_EQ(percentile(v, 90.0), 90.0);
  EXPECT_EQ(percentile(v, 99.0), 99.0);
  EXPECT_EQ(percentile(v, 100.0), 100.0);
  EXPECT_EQ(percentile({7.0}, 50.0), 7.0);
  EXPECT_EQ(percentile({}, 50.0), 0.0);
  // Unsorted input; the median of an even count is the lower middle.
  EXPECT_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 50.0), 2.0);
}

TEST(Percentile, SamplesBeyond) {
  EXPECT_EQ(samples_beyond(90.0, 100), 10u);
  EXPECT_EQ(samples_beyond(99.0, 100), 1u);
  EXPECT_EQ(samples_beyond(99.0, 1000), 10u);
  EXPECT_EQ(samples_beyond(50.0, 3), 1u);
  EXPECT_EQ(samples_beyond(90.0, 0), 0u);
}

TEST(Percentile, HighestTailNeedsTenBeyond) {
  EXPECT_FALSE(highest_tail(one_to(99)).has_value());  // p90: 9 beyond

  auto t = highest_tail(one_to(100));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->p, 90.0);
  EXPECT_EQ(t->value, 90.0);
  EXPECT_EQ(t->samples, 100u);
  EXPECT_EQ(t->beyond, 10u);

  t = highest_tail(one_to(999));  // p99 has only 9 beyond
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->p, 90.0);

  t = highest_tail(one_to(1000));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->p, 99.0);
  EXPECT_EQ(t->value, 990.0);
  EXPECT_EQ(t->beyond, 10u);

  t = highest_tail(one_to(20000));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->p, 99.9);
  EXPECT_EQ(t->beyond, 20u);
  EXPECT_EQ(t->samples, 20000u);
}

TEST(SelfTime, SubtractsChildrenOnce) {
  // Span{name, start_ns, end_ns, parent id (1-based), request}
  const std::vector<Span> spans = {
      {"root", 0, 100, 0, 7},
      {"a", 10, 40, 1, 7},
      {"b", 30, 50, 1, 7},  // overlaps a: 10..50 covered once
      {"c", 60, 70, 1, 7},
      {"grandchild", 62, 65, 4, 7},  // counts against c, not root
      {"other", 0, 5, 0, 8},
  };
  const std::vector<double> self = self_ns(spans);
  ASSERT_EQ(self.size(), 6u);
  EXPECT_EQ(self[0], 100.0 - 40.0 - 10.0);
  EXPECT_EQ(self[1], 30.0);
  EXPECT_EQ(self[3], 10.0 - 3.0);
  EXPECT_EQ(self[5], 5.0);
}

TEST(SelfTime, ChildOutsideParentIsClipped) {
  const std::vector<Span> spans = {{"root", 10, 20, 0, 1},
                                   {"late", 15, 30, 1, 1}};
  EXPECT_EQ(self_ns(spans)[0], 5.0);
}

TEST(SpanRecorder, BeginEndNestAndGroupByName) {
  SpanRecorder rec(true);
  const auto outer = rec.begin("outer", 1);
  const auto inner = rec.begin("inner", 1, outer);
  rec.end(inner);
  rec.end(outer);
  ASSERT_EQ(rec.spans().size(), 2u);
  EXPECT_EQ(rec.spans()[1].parent, outer);
  EXPECT_GE(rec.spans()[0].end_ns, rec.spans()[1].end_ns);
  const auto by_name = rec.self_us_by_name();
  EXPECT_EQ(by_name.at("outer").size(), 1u);
  EXPECT_GE(by_name.at("outer")[0], 0.0);
}

TEST(SpanRecorder, DisabledRecordsNothing) {
  SpanRecorder rec(false);
  const auto id = rec.begin("x", 1);
  rec.end(id);
  EXPECT_EQ(id, 0u);
  EXPECT_TRUE(rec.spans().empty());
}

}  // namespace
}  // namespace lr90bench
