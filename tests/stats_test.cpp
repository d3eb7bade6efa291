#include <gtest/gtest.h>

#include "stats/histogram.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"
#include "trace/counter_registry.hpp"

namespace saisim::stats {
namespace {

TEST(Summary, BasicMoments) {
  Summary s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Summary, EmptyIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.sum(), 0.0);
}

TEST(Log2Histogram, BucketsPowersOfTwo) {
  Log2Histogram h;
  h.add(0);
  h.add(1);
  h.add(2);
  h.add(3);
  h.add(1024);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.bucket(0), 2u);  // 0 and 1
  EXPECT_EQ(h.bucket(1), 2u);  // 2 and 3
  EXPECT_EQ(h.bucket(10), 1u);
}

// The total is kept exactly, beside the buckets: a mean derived from it
// carries no bucketing error.
TEST(Log2Histogram, MeanIsExact) {
  Log2Histogram h;
  h.add(10);
  h.add(20);
  h.add(30);
  EXPECT_EQ(h.total(), 60u);
  EXPECT_DOUBLE_EQ(static_cast<double>(h.total()) /
                       static_cast<double>(h.count()),
                   20.0);
}

// A run's histogram reaches its quantiles by folding into a registry
// recorder, which reports the upper edge of the containing bucket.
TEST(Log2Histogram, QuantileFindsBucketEdge) {
  Log2Histogram h;
  for (int i = 0; i < 99; ++i) h.add(4);  // bucket 2, edge 7
  h.add(1u << 20);
  trace::CounterRegistry reg;
  reg.latency("l").merge(h);
  EXPECT_EQ(reg.latency("l").quantile(0.5), 7u);
  EXPECT_GE(reg.latency("l").quantile(0.999), (1u << 20) - 1);
}

TEST(Table, TextRenderingAligns) {
  Table t({"name", "value"});
  t.add_row({std::string("alpha"), 1.5});
  t.add_row({std::string("b"), i64{42}});
  const std::string text = t.to_text();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("1.50"), std::string::npos);
  EXPECT_NE(text.find("42"), std::string::npos);
}

TEST(Table, CsvEscapesSpecials) {
  Table t({"a,b", "c"});
  t.add_row({std::string("x\"y"), std::string("plain")});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"x\"\"y\""), std::string::npos);
  EXPECT_NE(csv.find("plain"), std::string::npos);
}

TEST(Table, RowWidthMismatchAborts) {
  Table t({"one", "two"});
  EXPECT_DEATH(t.add_row({std::string("only")}), "row width");
}

}  // namespace
}  // namespace saisim::stats
