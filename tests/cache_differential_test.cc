// Randomized differential test: the slab-indexed StorageCache against the
// pre-rewrite map/list implementation (bench/legacy_cache.h), driven with
// identical operation streams covering eviction, write-delay destage,
// preload selection/loading, InvalidateItem and FlushAll. Demand batches
// are compared as per-item aggregates sorted by item — demand order
// within one batch is explicitly not contractual. After every operation
// the slab cache must also pass its own CheckInvariants().

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "bench/legacy_cache.h"
#include "common/random.h"
#include "storage/storage_cache.h"

namespace ecostore {
namespace {

storage::CacheConfig DiffCacheConfig() {
  storage::CacheConfig config;
  config.block_size = 4096;
  config.total_bytes = 96 * 4096;
  config.preload_area_bytes = 24 * 4096;
  config.write_delay_area_bytes = 24 * 4096;
  config.default_dirty_ratio = 0.25;
  config.write_delay_dirty_ratio = 0.5;
  return config;
}

/// Sorts a demand batch by item for order-insensitive comparison. Each
/// batch is already aggregated (one entry per item), so sorted equality
/// means identical per-item totals.
std::vector<std::pair<DataItemId, std::pair<int64_t, int64_t>>> Normalize(
    const std::vector<storage::FlushDemand>& demands) {
  std::vector<std::pair<DataItemId, std::pair<int64_t, int64_t>>> norm;
  norm.reserve(demands.size());
  for (const auto& d : demands) {
    norm.emplace_back(d.item, std::make_pair(d.blocks, d.bytes));
  }
  std::sort(norm.begin(), norm.end());
  return norm;
}

std::vector<std::pair<DataItemId, std::pair<int64_t, int64_t>>> Normalize(
    const std::vector<legacy::FlushDemand>& demands) {
  std::vector<std::pair<DataItemId, std::pair<int64_t, int64_t>>> norm;
  norm.reserve(demands.size());
  for (const auto& d : demands) {
    norm.emplace_back(d.item, std::make_pair(d.blocks, d.bytes));
  }
  std::sort(norm.begin(), norm.end());
  return norm;
}

void ExpectConsistent(const storage::StorageCache& cache, int step) {
  Status status = cache.CheckInvariants();
  ASSERT_TRUE(status.ok()) << "step " << step << ": " << status.ToString();
}

/// Asserts the two caches agree on every public counter.
void ExpectSameCounters(const storage::StorageCache& slab,
                        const legacy::LegacyStorageCache& ref, int step) {
  ASSERT_EQ(slab.hit_blocks(), ref.hit_blocks()) << "step " << step;
  ASSERT_EQ(slab.miss_blocks(), ref.miss_blocks()) << "step " << step;
  ASSERT_EQ(slab.absorbed_write_blocks(), ref.absorbed_write_blocks())
      << "step " << step;
  ASSERT_EQ(slab.general_dirty_blocks(), ref.general_dirty_blocks())
      << "step " << step;
  ASSERT_EQ(slab.write_delay_dirty_blocks(), ref.write_delay_dirty_blocks())
      << "step " << step;
}

class CacheDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CacheDifferentialTest, SlabMatchesMapReference) {
  Xoshiro256 rng(GetParam());
  storage::StorageCache slab(DiffCacheConfig());
  legacy::LegacyStorageCache ref(DiffCacheConfig());
  std::vector<storage::FlushDemand> scratch;

  constexpr int kItems = 8;
  constexpr int kBlocksPerItem = 48;
  for (int step = 0; step < 5000; ++step) {
    DataItemId item = static_cast<DataItemId>(rng.UniformInt(0, kItems - 1));
    int64_t offset = rng.UniformInt(0, kBlocksPerItem - 1) * 4096;
    int32_t size =
        static_cast<int32_t>(rng.UniformInt(1, 3) * 4096 - rng.UniformInt(0, 1));
    switch (rng.UniformInt(0, 9)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // read
        auto s = slab.Read(item, offset, size, &scratch);
        auto l = ref.Read(item, offset, size);
        ASSERT_EQ(s.hit_blocks, l.hit_blocks) << "step " << step;
        ASSERT_EQ(s.miss_blocks, l.miss_blocks) << "step " << step;
        ASSERT_EQ(Normalize(scratch), Normalize(l.eviction_flushes))
            << "step " << step;
        break;
      }
      case 4:
      case 5:
      case 6: {  // write
        auto s = slab.Write(item, offset, size, &scratch);
        auto l = ref.Write(item, offset, size);
        ASSERT_EQ(s.write_delayed, l.write_delayed) << "step " << step;
        ASSERT_EQ(Normalize(scratch), Normalize(l.destage)) << "step " << step;
        break;
      }
      case 7: {  // rotate the write-delay set
        std::unordered_set<DataItemId> wd;
        for (int i = 0; i < kItems; ++i) {
          if (rng.Bernoulli(0.3)) wd.insert(static_cast<DataItemId>(i));
        }
        ASSERT_EQ(Normalize(slab.SetWriteDelayItems(wd)),
                  Normalize(ref.SetWriteDelayItems(wd)))
            << "step " << step;
        break;
      }
      case 8: {  // rotate the preload set, occasionally finish loads
        if (rng.Bernoulli(0.5)) {
          std::vector<std::pair<DataItemId, int64_t>> sizes;
          for (int i = 0; i < kItems; ++i) {
            if (rng.Bernoulli(0.25)) {
              sizes.emplace_back(static_cast<DataItemId>(i), 8 * 4096);
            }
          }
          auto s = slab.SetPreloadItems(sizes);
          auto l = ref.SetPreloadItems(sizes);
          ASSERT_EQ(s.ok(), l.ok()) << "step " << step;
          if (s.ok()) {
            ASSERT_EQ(s.value(), l.value()) << "step " << step;
          }
        } else {
          Status s = slab.MarkPreloaded(item);
          Status l = ref.MarkPreloaded(item);
          ASSERT_EQ(s.ok(), l.ok()) << "step " << step;
        }
        break;
      }
      case 9: {  // invalidate or flush everything
        if (rng.Bernoulli(0.7)) {
          ASSERT_EQ(Normalize(slab.InvalidateItem(item)),
                    Normalize(ref.InvalidateItem(item)))
              << "step " << step;
        } else {
          ASSERT_EQ(Normalize(slab.FlushAll()), Normalize(ref.FlushAll()))
              << "step " << step;
        }
        break;
      }
    }
    ExpectSameCounters(slab, ref, step);
    ASSERT_EQ(slab.IsPreloaded(item), ref.IsPreloaded(item))
        << "step " << step;
    ExpectConsistent(slab, step);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheDifferentialTest,
                         ::testing::Range<uint64_t>(1, 25));

// InvalidateItem-heavy stream: many items whose resident blocks
// interleave across the slab (each item's slot chain is scattered among
// the others'), invalidated one by one in random order, with a rotating
// write-delay set so invalidations also drop write-delay blocks.
class CacheInvalidateDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CacheInvalidateDifferentialTest, ChainsMatchMapReference) {
  Xoshiro256 rng(GetParam());
  storage::CacheConfig config = DiffCacheConfig();
  config.total_bytes = 160 * 4096;  // 112-block general area
  storage::StorageCache slab(config);
  legacy::LegacyStorageCache ref(config);
  std::vector<storage::FlushDemand> scratch;

  constexpr int kItems = 48;
  constexpr int kBlocksPerItem = 6;
  int step = 0;
  for (int round = 0; round < 60; ++round) {
    // Fill: round-robin-ish single-block touches interleave the items'
    // slots in the slab.
    for (int i = 0; i < 150; ++i, ++step) {
      auto item = static_cast<DataItemId>(rng.UniformInt(0, kItems - 1));
      int64_t offset = rng.UniformInt(0, kBlocksPerItem - 1) * 4096;
      if (rng.Bernoulli(0.6)) {
        auto s = slab.Read(item, offset, 4096, &scratch);
        auto l = ref.Read(item, offset, 4096);
        ASSERT_EQ(s.hit_blocks, l.hit_blocks) << "step " << step;
        ASSERT_EQ(Normalize(scratch), Normalize(l.eviction_flushes))
            << "step " << step;
      } else {
        slab.Write(item, offset, 4096, &scratch);
        auto l = ref.Write(item, offset, 4096);
        ASSERT_EQ(Normalize(scratch), Normalize(l.destage)) << "step " << step;
      }
      ExpectSameCounters(slab, ref, step);
      ExpectConsistent(slab, step);
    }
    if (round % 4 == 0) {
      std::unordered_set<DataItemId> wd;
      for (int i = 0; i < kItems; ++i) {
        if (rng.Bernoulli(0.1)) wd.insert(static_cast<DataItemId>(i));
      }
      ASSERT_EQ(Normalize(slab.SetWriteDelayItems(wd)),
                Normalize(ref.SetWriteDelayItems(wd)))
          << "step " << step;
    }
    // Invalidate a random subset of the items in random order.
    std::vector<DataItemId> order;
    for (int i = 0; i < kItems; ++i) {
      if (rng.Bernoulli(0.5)) order.push_back(static_cast<DataItemId>(i));
    }
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1],
                order[static_cast<size_t>(
                    rng.UniformInt(0, static_cast<int64_t>(i) - 1))]);
    }
    for (DataItemId item : order) {
      ++step;
      ASSERT_EQ(Normalize(slab.InvalidateItem(item)),
                Normalize(ref.InvalidateItem(item)))
          << "step " << step << " item " << item;
      ExpectSameCounters(slab, ref, step);
      ExpectConsistent(slab, step);
    }
    // The invalidated items are gone: re-reading them misses alike.
    for (DataItemId item : order) {
      ++step;
      auto s = slab.Read(item, 0, kBlocksPerItem * 4096, &scratch);
      auto l = ref.Read(item, 0, kBlocksPerItem * 4096);
      ASSERT_EQ(s.miss_blocks, l.miss_blocks) << "step " << step;
      ASSERT_EQ(Normalize(scratch), Normalize(l.eviction_flushes))
          << "step " << step;
      ExpectConsistent(slab, step);
    }
  }
  ASSERT_EQ(Normalize(slab.FlushAll()), Normalize(ref.FlushAll()));
  ExpectSameCounters(slab, ref, step);
  ExpectConsistent(slab, step);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheInvalidateDifferentialTest,
                         ::testing::Range<uint64_t>(1, 9));

// Several items with dirty write-delay blocks leave in one
// SetWriteDelayItems call while others stay: the single batched table
// rebuild must drop exactly the leavers' blocks.
TEST(CacheDifferentialBatchTest, ManyDirtyItemsLeaveWriteDelayAtOnce) {
  storage::CacheConfig config = DiffCacheConfig();
  config.total_bytes = 160 * 4096;
  config.write_delay_area_bytes = 64 * 4096;  // destage at 32 dirty blocks
  storage::StorageCache slab(config);
  legacy::LegacyStorageCache ref(config);
  std::vector<storage::FlushDemand> scratch;

  constexpr int kItems = 7;
  constexpr int kBlocks = 3;
  std::unordered_set<DataItemId> all;
  for (int i = 0; i < kItems; ++i) all.insert(static_cast<DataItemId>(i));
  ASSERT_EQ(Normalize(slab.SetWriteDelayItems(all)),
            Normalize(ref.SetWriteDelayItems(all)));
  ExpectConsistent(slab, 0);
  for (int i = 0; i < kItems; ++i) {
    for (int b = 0; b < kBlocks; ++b) {
      auto s = slab.Write(i, b * 4096, 4096, &scratch);
      auto l = ref.Write(i, b * 4096, 4096);
      ASSERT_TRUE(s.write_delayed);
      ASSERT_EQ(Normalize(scratch), Normalize(l.destage));
      ExpectConsistent(slab, i * kBlocks + b);
    }
  }
  ASSERT_EQ(slab.write_delay_dirty_blocks(), kItems * kBlocks);

  // Items 0, 2, 3 and 5 leave together; 1, 4 and 6 stay.
  std::unordered_set<DataItemId> stay = {1, 4, 6};
  auto demands = Normalize(slab.SetWriteDelayItems(stay));
  ASSERT_EQ(demands, Normalize(ref.SetWriteDelayItems(stay)));
  ASSERT_EQ(demands.size(), 4u);
  ExpectConsistent(slab, 0);
  EXPECT_EQ(slab.write_delay_dirty_blocks(), ref.write_delay_dirty_blocks());
  EXPECT_EQ(slab.write_delay_dirty_blocks(), 3 * kBlocks);

  // Stayers still hit in the write-delay area; leavers miss.
  for (int i = 0; i < kItems; ++i) {
    auto s = slab.Read(i, 0, kBlocks * 4096, &scratch);
    auto l = ref.Read(i, 0, kBlocks * 4096);
    EXPECT_EQ(s.hit_blocks, l.hit_blocks) << "item " << i;
    EXPECT_EQ(s.miss_blocks, l.miss_blocks) << "item " << i;
    EXPECT_EQ(s.hit_blocks, stay.count(i) > 0 ? kBlocks : 0) << "item " << i;
    ExpectConsistent(slab, i);
  }
  EXPECT_EQ(slab.hit_blocks(), ref.hit_blocks());
  EXPECT_EQ(slab.miss_blocks(), ref.miss_blocks());
  EXPECT_EQ(Normalize(slab.FlushAll()), Normalize(ref.FlushAll()));
  ExpectConsistent(slab, 0);
}

}  // namespace
}  // namespace ecostore
