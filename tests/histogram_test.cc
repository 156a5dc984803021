// Unit and property tests for common/histogram.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/histogram.h"
#include "common/random.h"

namespace ecostore {

// Reaches the private bucket lookup for the test below.
class HistogramTestPeer {
 public:
  static size_t BucketFor(const Histogram& h, int64_t value) {
    return h.BucketFor(value);
  }
  static const std::vector<int64_t>& Limits(const Histogram& h) {
    return h.bucket_limits();
  }
};

namespace {

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
}

TEST(HistogramTest, ExactAggregates) {
  Histogram h;
  for (int64_t v : {10, 20, 30, 40}) h.Add(v);
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.min(), 10);
  EXPECT_EQ(h.max(), 40);
  EXPECT_DOUBLE_EQ(h.Mean(), 25.0);
}

TEST(HistogramTest, NegativeClampsToZero) {
  Histogram h;
  h.Add(-5);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.count(), 1);
}

TEST(HistogramTest, QuantilesOrdered) {
  Histogram h;
  Xoshiro256 rng(1);
  for (int i = 0; i < 10000; ++i) h.Add(rng.UniformInt(0, 1000000));
  double p10 = h.Quantile(0.10);
  double p50 = h.Quantile(0.50);
  double p99 = h.Quantile(0.99);
  EXPECT_LE(p10, p50);
  EXPECT_LE(p50, p99);
  // Uniform distribution: medians near the middle (log buckets are
  // coarse, allow generous slack).
  EXPECT_NEAR(p50, 500000, 200000);
}

TEST(HistogramTest, MergeAddsUp) {
  Histogram a, b;
  a.Add(5);
  a.Add(100);
  b.Add(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3);
  EXPECT_EQ(a.min(), 5);
  EXPECT_EQ(a.max(), 1000);
  EXPECT_DOUBLE_EQ(a.Mean(), (5.0 + 100.0 + 1000.0) / 3.0);
}

TEST(HistogramTest, CountAboveBoundary) {
  Histogram h;
  for (int64_t v : {1, 2, 3, 100, 200, 5000}) h.Add(v);
  EXPECT_EQ(h.CountAbove(h.max()), 0);
  EXPECT_GE(h.CountAbove(0), 5);  // everything above the first bucket
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Add(7);
  h.Reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
}

TEST(HistogramTest, ToStringMentionsCount) {
  Histogram h;
  h.Add(42);
  EXPECT_NE(h.ToString().find("count=1"), std::string::npos);
}

// The O(1) bucket lookup agrees with a binary search over the limits at
// every boundary, one either side of it, and the extremes.
TEST(HistogramTest, BucketForMatchesLowerBound) {
  Histogram h;
  const std::vector<int64_t>& limits = HistogramTestPeer::Limits(h);
  auto reference = [&](int64_t v) {
    return static_cast<size_t>(
        std::lower_bound(limits.begin(), limits.end(), v) - limits.begin());
  };
  std::vector<int64_t> probes = {0, std::numeric_limits<int64_t>::max()};
  for (int64_t limit : limits) {
    probes.push_back(limit - 1);
    probes.push_back(limit);
    if (limit < std::numeric_limits<int64_t>::max()) {
      probes.push_back(limit + 1);
    }
  }
  for (int w = 0; w < 63; ++w) {
    probes.push_back(int64_t{1} << w);
    probes.push_back((int64_t{1} << w) - 1);
  }
  for (int64_t v : probes) {
    EXPECT_EQ(HistogramTestPeer::BucketFor(h, v), reference(v))
        << "value " << v;
  }
}

// Property sweep: for many random datasets, mean is exact and quantiles
// bounded by min/max.
class HistogramPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HistogramPropertyTest, MeanExactQuantilesBounded) {
  Xoshiro256 rng(GetParam());
  Histogram h;
  double sum = 0;
  int n = 1 + static_cast<int>(rng.UniformInt(0, 5000));
  for (int i = 0; i < n; ++i) {
    int64_t v = rng.UniformInt(0, 1u << static_cast<int>(rng.UniformInt(0, 30)));
    h.Add(v);
    sum += static_cast<double>(v);
  }
  EXPECT_DOUBLE_EQ(h.Mean(), sum / n);
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    double value = h.Quantile(q);
    EXPECT_GE(value, 0.0);
    EXPECT_LE(value, static_cast<double>(h.max()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

}  // namespace
}  // namespace ecostore
