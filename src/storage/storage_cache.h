#ifndef ECOSTORE_STORAGE_STORAGE_CACHE_H_
#define ECOSTORE_STORAGE_STORAGE_CACHE_H_

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/storage_config.h"

namespace ecostore::storage {

/// A destage demand produced by the cache: `blocks` dirty blocks of `item`
/// must be written to the item's enclosure. The StorageSystem translates
/// demands into physical bulk writes.
struct FlushDemand {
  DataItemId item = kInvalidDataItem;
  int64_t blocks = 0;
  int64_t bytes = 0;
};

/// \brief The RAID controller's battery-backed cache (paper §II-A, §II-E.2).
///
/// Three areas share the configured capacity:
///  - the *general* area: a block-granular LRU holding clean read blocks
///    and write-back dirty blocks, destaged in one go when the default
///    dirty-block rate is exceeded (paper §V-B);
///  - the *preload* area: whole data items pinned by the proposed method's
///    preload function (paper §IV-F) — reads of loaded items always hit;
///  - the *write-delay* area: dirty blocks of items selected by the
///    write-delay function (paper §IV-E), destaged only when the enlarged
///    dirty-block rate is exceeded.
///
/// The cache is a bookkeeping model: it tracks block residency and dirty
/// state but holds no payload bytes. It never performs I/O itself; flush
/// demands are returned to the caller.
///
/// The per-I/O hot path is allocation-free once warm. General-area
/// blocks live in a contiguous slot slab. An open-addressing index maps
/// (item, block) keys, stored inline in its buckets, to slot ids. Recency
/// is an intrusive doubly linked list of slot ids threaded through the
/// slab, and so is each item's chain of resident slots. A bitmap marks the
/// dirty slots. Per-item state is one dense record indexed by item id.
/// Write-delay residency is a flat open-addressing key set. Read/Write
/// append flush demands to a caller-owned scratch vector instead of
/// allocating a fresh one per call.
class StorageCache {
 public:
  struct ReadOutcome {
    int64_t hit_blocks = 0;
    int64_t miss_blocks = 0;

    bool fully_hit() const { return miss_blocks == 0; }
  };

  struct WriteOutcome {
    /// True when the dirty blocks went to the write-delay area.
    bool write_delayed = false;
  };

  explicit StorageCache(const CacheConfig& config);

  const CacheConfig& config() const { return config_; }

  /// Serves a logical read. Missed blocks are assumed to be fetched by the
  /// caller and are inserted into the general area. `eviction_flushes` is
  /// a caller-owned scratch vector: it is cleared on entry and receives
  /// one aggregated demand per item whose dirty blocks were pushed out by
  /// caching the missed blocks. The caller must consume it before the
  /// next Read/Write call reuses it.
  ReadOutcome Read(DataItemId item, int64_t offset, int32_t size,
                   std::vector<FlushDemand>* eviction_flushes);

  /// Absorbs a logical write into the write-delay area (for selected
  /// items) or the general write-back area. `destage` is a caller-owned
  /// scratch vector (cleared on entry) receiving eviction write-backs and
  /// any dirty-rate-threshold destage; empty most of the time.
  WriteOutcome Write(DataItemId item, int64_t offset, int32_t size,
                     std::vector<FlushDemand>* destage);

  /// One item that left the write-delay set, with the dirty blocks that
  /// were destaged on its way out (0 when it had none).
  struct WdChange {
    DataItemId item = kInvalidDataItem;
    int64_t flushed_blocks = 0;
    int64_t flushed_bytes = 0;
  };

  /// Replaces the write-delay item set (paper §V-B). Dirty write-delay
  /// blocks of items leaving the set must be destaged; they are returned.
  /// When non-null, `entered` receives the ids that newly joined the set
  /// and `left` the items that exited (with their destaged dirty blocks),
  /// both sorted by item id so callers can emit deterministic per-item
  /// attribution events regardless of the hash set's iteration order.
  std::vector<FlushDemand> SetWriteDelayItems(
      const std::unordered_set<DataItemId>& items,
      std::vector<DataItemId>* entered = nullptr,
      std::vector<WdChange>* left = nullptr);

  /// Replaces the preload item set (paper §V-C). `sizes` gives each item's
  /// size; the sum must fit the preload area. Returns the items that are
  /// newly selected and must be loaded by the caller (already-loaded items
  /// are kept; deselected items are dropped immediately).
  Result<std::vector<DataItemId>> SetPreloadItems(
      const std::vector<std::pair<DataItemId, int64_t>>& sizes);

  /// Marks a preload-selected item as resident (its load completed).
  Status MarkPreloaded(DataItemId item);

  bool IsPreloadSelected(DataItemId item) const {
    const ItemInfo* info = FindItem(item);
    return info != nullptr && info->preload_selected;
  }
  bool IsPreloaded(DataItemId item) const {
    const ItemInfo* info = FindItem(item);
    return info != nullptr && info->preloaded;
  }
  bool IsWriteDelayed(DataItemId item) const {
    const ItemInfo* info = FindItem(item);
    return info != nullptr && info->write_delayed;
  }

  /// Flushes every dirty block in both areas (used at end of run and when
  /// the runtime power saver forces a destage). Returns the demands.
  std::vector<FlushDemand> FlushAll();

  /// Drops all clean general-area blocks of an item (used after the item
  /// migrates, since its physical location changed). Dirty blocks are
  /// returned as demands to write to the *new* location. Costs O(the
  /// item's resident blocks), not O(cache blocks).
  std::vector<FlushDemand> InvalidateItem(DataItemId item);

  /// Checks the internal bookkeeping against itself: the slab against its
  /// index, the LRU length, each item's slot chain, the dirty bitmap and
  /// the dirty counters. O(cache size); for tests, not for the hot path.
  Status CheckInvariants() const;

  /// Plan-level membership of one item (no block residency), used by the
  /// sharded engine to move an item's cache standing between per-shard
  /// caches when the item migrates across the shard boundary. Blocks do
  /// not transfer: the caller is expected to InvalidateItem() on the
  /// source cache first (physical locations changed anyway), so only the
  /// preload/write-delay selection and residency flags carry over.
  struct ItemState {
    bool preload_selected = false;
    bool preloaded = false;
    bool write_delayed = false;
    int64_t preload_bytes = 0;
  };

  ItemState ExportItemState(DataItemId item) const;
  /// Overwrites the item's membership flags with `state`.
  void AdoptItemState(DataItemId item, const ItemState& state);
  /// Clears the item's membership flags (post-export, on the source).
  void DropItemState(DataItemId item);

  int64_t hit_blocks() const { return hit_blocks_; }
  int64_t miss_blocks() const { return miss_blocks_; }
  int64_t absorbed_write_blocks() const { return absorbed_write_blocks_; }
  int64_t general_dirty_blocks() const { return general_dirty_; }
  int64_t write_delay_dirty_blocks() const { return wd_dirty_total_; }

 private:
  static constexpr int32_t kNilSlot = -1;

  /// One general-area cache block. Free slots are marked with
  /// item == kInvalidDataItem and have no list links. `block` comes first
  /// so the two intrusive lists (recency, and the owning item's resident
  /// slots) fit in 32 bytes.
  struct Slot {
    int64_t block = 0;
    DataItemId item = kInvalidDataItem;
    int32_t lru_prev = kNilSlot;
    int32_t lru_next = kNilSlot;
    int32_t chain_prev = kNilSlot;
    int32_t chain_next = kNilSlot;
    bool dirty = false;
  };
  static_assert(sizeof(Slot) == 32);

  /// One general-area index bucket. The key is stored inline so probes
  /// and backward-shift deletes never read the slab; slot == kNilSlot
  /// marks an empty bucket.
  struct Bucket {
    int64_t block = 0;
    DataItemId item = kInvalidDataItem;
    int32_t slot = kNilSlot;
  };

  /// Per-item cache state, indexed by item id and resolved once per
  /// request (not per block): preload pinning, write-delay membership,
  /// the item's dirty block count in the write-delay area, the head of
  /// its resident-slot chain and its demand-aggregation stamp.
  struct ItemInfo {
    int64_t preload_bytes = 0;
    int64_t wd_dirty = 0;
    int32_t chain_head = kNilSlot;
    uint32_t demand_epoch = 0;
    uint32_t demand_pos = 0;
    bool preload_selected = false;
    bool preloaded = false;
    bool write_delayed = false;
  };
  static_assert(sizeof(ItemInfo) <= 32);

  /// A write-delay area resident block; item == kInvalidDataItem marks an
  /// empty table cell.
  struct WdKey {
    DataItemId item = kInvalidDataItem;
    int64_t block = 0;
  };

  static uint64_t HashKey(DataItemId item, int64_t block) {
    // splitmix64 finalizer over the packed key: open addressing needs
    // dispersion that the identity hash of the old unordered_map did not.
    uint64_t x = (static_cast<uint64_t>(static_cast<uint32_t>(item)) << 40) ^
                 static_cast<uint64_t>(block);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
  }

  int64_t FirstBlock(int64_t offset) const { return offset / config_.block_size; }
  int64_t LastBlock(int64_t offset, int32_t size) const {
    return (offset + std::max<int32_t>(size, 1) - 1) / config_.block_size;
  }

  const ItemInfo* FindItem(DataItemId item) const {
    auto idx = static_cast<size_t>(item);
    return idx < items_.size() ? &items_[idx] : nullptr;
  }
  /// The item's record, growing the table on first sight of the id.
  ItemInfo& ItemAt(DataItemId item) {
    auto idx = static_cast<size_t>(item);
    if (idx >= items_.size()) items_.resize(idx + 1);
    return items_[idx];
  }

  // --- general-area slab + index ---
  int32_t TableFind(DataItemId item, int64_t block) const;
  void TableInsert(DataItemId item, int64_t block, int32_t slot);
  void TableErase(DataItemId item, int64_t block);
  void TableGrow();
  void LruUnlink(int32_t slot);
  void LruPushFront(int32_t slot);
  void LruMoveToFront(int32_t slot);
  void ChainUnlink(int32_t slot);
  void MarkDirty(int32_t slot);
  void MarkClean(int32_t slot);
  /// Inserts an absent block of an item that has a record, evicting the
  /// LRU victim first when full. Eviction demands go to the active demand
  /// accumulator.
  void InsertGeneral(DataItemId item, int64_t block, bool dirty);
  void EvictLru();
  /// Frees an occupied slot that is already off its item chain: destages
  /// it when dirty, unlinks it from the LRU and the index, and pushes it
  /// on the free list.
  void ReleaseSlot(int32_t slot);

  // --- write-delay flat set ---
  bool WdContains(DataItemId item, int64_t block) const;
  /// Returns true when newly inserted.
  bool WdInsert(DataItemId item, int64_t block);
  void WdGrow();
  void WdClear();
  /// Drops every write-delay block of the listed items with one table
  /// rebuild, however many items leave.
  void WdEraseItems(std::vector<DataItemId> items);

  // --- demand aggregation (O(1) per append) ---
  /// Directs subsequent AddDemand calls into `out` (which is NOT cleared).
  void BeginDemands(std::vector<FlushDemand>* out);
  void AddDemand(DataItemId item, int64_t blocks, int64_t bytes);

  /// Destages all dirty general-area blocks (they stay resident, clean).
  void DestageGeneralInto();
  /// Destages all write-delay blocks.
  void DestageWriteDelayInto();

  CacheConfig config_;
  int64_t general_capacity_blocks_;
  int64_t wd_capacity_blocks_;

  // General area: slot slab, free list, open-addressing index, intrusive
  // LRU (head = most recent) and one dirty bit per slot.
  std::vector<Slot> slots_;
  std::vector<int32_t> free_slots_;
  std::vector<Bucket> table_;
  size_t table_mask_ = 0;
  int32_t lru_head_ = kNilSlot;
  int32_t lru_tail_ = kNilSlot;
  int64_t general_size_ = 0;
  int64_t general_dirty_ = 0;
  std::vector<uint64_t> dirty_bits_;

  // Write-delay area block set.
  std::vector<WdKey> wd_table_;
  size_t wd_mask_ = 0;
  size_t wd_size_ = 0;
  int64_t wd_dirty_total_ = 0;

  // Per-item records, indexed by item id and grown on demand.
  std::vector<ItemInfo> items_;

  // Demand accumulator: each item's record carries an epoch/position
  // stamp so repeated demands for one item fold together without
  // rescanning the output vector.
  uint32_t demand_epoch_ = 0;
  std::vector<FlushDemand>* demand_out_ = nullptr;

  int64_t hit_blocks_ = 0;
  int64_t miss_blocks_ = 0;
  int64_t absorbed_write_blocks_ = 0;
};

}  // namespace ecostore::storage

#endif  // ECOSTORE_STORAGE_STORAGE_CACHE_H_
