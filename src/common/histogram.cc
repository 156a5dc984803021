#include "common/histogram.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdio>
#include <limits>

namespace ecostore {

/// Geometric limits 1, 2, 3, 4, 6, 9, ... up to > 4e18, and first[w]: the
/// bucket of the smallest value of bit width w. Limits grow by >= 1.5x, so
/// one width class [2^(w-1), 2^w) spans at most three buckets and BucketFor
/// needs at most two compares past first[w].
struct Histogram::Buckets {
  std::vector<int64_t> limits;
  std::array<uint8_t, 65> first{};

  Buckets() {
    int64_t limit = 1;
    while (limit < std::numeric_limits<int64_t>::max() / 2) {
      limits.push_back(limit);
      limit += std::max<int64_t>(1, limit / 2);
    }
    limits.push_back(std::numeric_limits<int64_t>::max());
    assert(limits.size() <= std::numeric_limits<uint8_t>::max());
    for (int w = 0; w <= 64; ++w) {
      int64_t lowest = w == 0 ? 0 : int64_t{1} << std::min(w - 1, 62);
      first[static_cast<size_t>(w)] = static_cast<uint8_t>(
          std::lower_bound(limits.begin(), limits.end(), lowest) -
          limits.begin());
    }
  }
};

Histogram::Histogram() {
  static const Buckets kBuckets;
  buckets_ = &kBuckets;
  counts_.assign(kBuckets.limits.size(), 0);
}

const std::vector<int64_t>& Histogram::bucket_limits() const {
  return buckets_->limits;
}

void Histogram::Reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
  min_ = 0;
  max_ = 0;
}

size_t Histogram::BucketFor(int64_t value) const {
  // Same bucket as lower_bound(limits, value), in O(1).
  const std::vector<int64_t>& limits = buckets_->limits;
  size_t i = buckets_->first[static_cast<size_t>(
      std::bit_width(static_cast<uint64_t>(std::max<int64_t>(value, 0))))];
  if (limits[i] < value) ++i;
  if (limits[i] < value) ++i;
  assert(limits[i] >= value && (i == 0 || limits[i - 1] < value));
  return i;
}

void Histogram::Add(int64_t value) {
  if (value < 0) value = 0;
  counts_[BucketFor(value)]++;
  if (count_ == 0 || value < min_) min_ = value;
  if (value > max_) max_ = value;
  count_++;
  sum_ += static_cast<double>(value);
}

void Histogram::Merge(const Histogram& other) {
  assert(counts_.size() == other.counts_.size());
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  if (other.count_ > 0) {
    if (count_ == 0 || other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  double target = q * static_cast<double>(count_);
  int64_t seen = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    if (static_cast<double>(seen + counts_[i]) >= target) {
      int64_t lo = (i == 0) ? 0 : buckets_->limits[i - 1];
      int64_t hi = std::min(buckets_->limits[i], max_);
      double within =
          (target - static_cast<double>(seen)) / static_cast<double>(counts_[i]);
      return static_cast<double>(lo) +
             within * static_cast<double>(hi - lo);
    }
    seen += counts_[i];
  }
  return static_cast<double>(max_);
}

int64_t Histogram::CountAbove(int64_t threshold) const {
  size_t start = BucketFor(threshold);
  int64_t total = 0;
  // Values equal to threshold live in bucket `start`; count only buckets
  // strictly above it, which makes the result exact for boundary thresholds
  // and conservative otherwise.
  for (size_t i = start + 1; i < counts_.size(); ++i) total += counts_[i];
  return total;
}

std::string Histogram::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "count=%lld mean=%.1f p50=%.0f p95=%.0f p99=%.0f max=%lld",
                static_cast<long long>(count_), Mean(), Quantile(0.5),
                Quantile(0.95), Quantile(0.99),
                static_cast<long long>(max_));
  return buf;
}

}  // namespace ecostore
