#include "storage/storage_cache.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <string>
#include <utility>

namespace ecostore::storage {

namespace {
constexpr size_t kInitialTableSize = 16;  // power of two
}  // namespace

StorageCache::StorageCache(const CacheConfig& config) : config_(config) {
  general_capacity_blocks_ =
      std::max<int64_t>(1, config_.general_area_bytes() / config_.block_size);
  wd_capacity_blocks_ = std::max<int64_t>(
      1, config_.write_delay_area_bytes / config_.block_size);
  table_.assign(kInitialTableSize, Bucket{});
  table_mask_ = kInitialTableSize - 1;
  wd_table_.assign(kInitialTableSize, WdKey{});
  wd_mask_ = kInitialTableSize - 1;
}

// ---------------------------------------------------------------------------
// General-area open-addressing index.

int32_t StorageCache::TableFind(DataItemId item, int64_t block) const {
  size_t i = HashKey(item, block) & table_mask_;
  while (true) {
    const Bucket& b = table_[i];
    if (b.slot == kNilSlot) return kNilSlot;
    if (b.item == item && b.block == block) return b.slot;
    i = (i + 1) & table_mask_;
  }
}

void StorageCache::TableInsert(DataItemId item, int64_t block, int32_t slot) {
  // Grow before probing so the insert position is final. Any eviction must
  // happen before this call: a hole opened by TableErase earlier in this
  // key's probe chain would otherwise orphan the entry.
  if ((static_cast<size_t>(general_size_) + 1) * 2 > table_.size()) {
    TableGrow();
  }
  size_t i = HashKey(item, block) & table_mask_;
  while (table_[i].slot != kNilSlot) i = (i + 1) & table_mask_;
  table_[i] = Bucket{block, item, slot};
}

void StorageCache::TableErase(DataItemId item, int64_t block) {
  size_t i = HashKey(item, block) & table_mask_;
  while (true) {
    const Bucket& b = table_[i];
    assert(b.slot != kNilSlot && "erasing a block that is not indexed");
    if (b.slot == kNilSlot) return;
    if (b.item == item && b.block == block) break;
    i = (i + 1) & table_mask_;
  }
  // Backward-shift deletion: keep every displaced entry reachable from its
  // home position without leaving tombstones behind.
  size_t hole = i;
  size_t j = i;
  while (true) {
    j = (j + 1) & table_mask_;
    const Bucket& b = table_[j];
    if (b.slot == kNilSlot) break;
    size_t home = HashKey(b.item, b.block) & table_mask_;
    bool movable = (j > hole) ? (home <= hole || home > j)
                              : (home <= hole && home > j);
    if (movable) {
      table_[hole] = b;
      hole = j;
    }
  }
  table_[hole] = Bucket{};
}

void StorageCache::TableGrow() {
  std::vector<Bucket> old = std::move(table_);
  table_.assign(old.size() * 2, Bucket{});
  table_mask_ = table_.size() - 1;
  for (const Bucket& b : old) {
    if (b.slot == kNilSlot) continue;
    size_t i = HashKey(b.item, b.block) & table_mask_;
    while (table_[i].slot != kNilSlot) i = (i + 1) & table_mask_;
    table_[i] = b;
  }
}

// ---------------------------------------------------------------------------
// Intrusive LRU over slab slots (head = most recently used).

void StorageCache::LruUnlink(int32_t slot) {
  Slot& s = slots_[slot];
  if (s.lru_prev != kNilSlot) {
    slots_[s.lru_prev].lru_next = s.lru_next;
  } else {
    lru_head_ = s.lru_next;
  }
  if (s.lru_next != kNilSlot) {
    slots_[s.lru_next].lru_prev = s.lru_prev;
  } else {
    lru_tail_ = s.lru_prev;
  }
  s.lru_prev = kNilSlot;
  s.lru_next = kNilSlot;
}

void StorageCache::LruPushFront(int32_t slot) {
  Slot& s = slots_[slot];
  s.lru_prev = kNilSlot;
  s.lru_next = lru_head_;
  if (lru_head_ != kNilSlot) slots_[lru_head_].lru_prev = slot;
  lru_head_ = slot;
  if (lru_tail_ == kNilSlot) lru_tail_ = slot;
}

void StorageCache::LruMoveToFront(int32_t slot) {
  if (lru_head_ == slot) return;
  LruUnlink(slot);
  LruPushFront(slot);
}

// ---------------------------------------------------------------------------
// Per-item resident-slot chains and the dirty bitmap.

void StorageCache::ChainUnlink(int32_t slot) {
  Slot& s = slots_[slot];
  if (s.chain_prev != kNilSlot) {
    slots_[s.chain_prev].chain_next = s.chain_next;
  } else {
    items_[static_cast<size_t>(s.item)].chain_head = s.chain_next;
  }
  if (s.chain_next != kNilSlot) slots_[s.chain_next].chain_prev = s.chain_prev;
  s.chain_prev = kNilSlot;
  s.chain_next = kNilSlot;
}

void StorageCache::MarkDirty(int32_t slot) {
  slots_[slot].dirty = true;
  dirty_bits_[static_cast<size_t>(slot) >> 6] |= uint64_t{1} << (slot & 63);
  general_dirty_++;
}

void StorageCache::MarkClean(int32_t slot) {
  slots_[slot].dirty = false;
  dirty_bits_[static_cast<size_t>(slot) >> 6] &= ~(uint64_t{1} << (slot & 63));
  general_dirty_--;
}

// ---------------------------------------------------------------------------
// Slot allocation and release.

void StorageCache::ReleaseSlot(int32_t slot) {
  Slot& s = slots_[slot];
  if (s.dirty) {
    MarkClean(slot);
    AddDemand(s.item, 1, config_.block_size);
  }
  LruUnlink(slot);
  TableErase(s.item, s.block);
  s.item = kInvalidDataItem;
  free_slots_.push_back(slot);
  general_size_--;
}

void StorageCache::EvictLru() {
  int32_t victim = lru_tail_;
  assert(victim != kNilSlot);
  ChainUnlink(victim);
  ReleaseSlot(victim);
}

void StorageCache::InsertGeneral(DataItemId item, int64_t block, bool dirty) {
  while (general_size_ >= general_capacity_blocks_) EvictLru();
  int32_t s;
  if (!free_slots_.empty()) {
    s = free_slots_.back();
    free_slots_.pop_back();
  } else {
    s = static_cast<int32_t>(slots_.size());
    slots_.push_back(Slot{});
    if (slots_.size() > dirty_bits_.size() * 64) dirty_bits_.push_back(0);
  }
  Slot& slot = slots_[s];
  slot.item = item;
  slot.block = block;
  // Push onto the item's resident-slot chain.
  ItemInfo& info = items_[static_cast<size_t>(item)];
  slot.chain_prev = kNilSlot;
  slot.chain_next = info.chain_head;
  if (info.chain_head != kNilSlot) slots_[info.chain_head].chain_prev = s;
  info.chain_head = s;
  LruPushFront(s);
  TableInsert(item, block, s);
  general_size_++;
  if (dirty) MarkDirty(s);
}

// ---------------------------------------------------------------------------
// Write-delay flat block set.

bool StorageCache::WdContains(DataItemId item, int64_t block) const {
  size_t i = HashKey(item, block) & wd_mask_;
  while (true) {
    const WdKey& k = wd_table_[i];
    if (k.item == kInvalidDataItem) return false;
    if (k.item == item && k.block == block) return true;
    i = (i + 1) & wd_mask_;
  }
}

bool StorageCache::WdInsert(DataItemId item, int64_t block) {
  if ((wd_size_ + 1) * 2 > wd_table_.size()) WdGrow();
  size_t i = HashKey(item, block) & wd_mask_;
  while (true) {
    WdKey& k = wd_table_[i];
    if (k.item == kInvalidDataItem) {
      k.item = item;
      k.block = block;
      wd_size_++;
      return true;
    }
    if (k.item == item && k.block == block) return false;
    i = (i + 1) & wd_mask_;
  }
}

void StorageCache::WdGrow() {
  std::vector<WdKey> old = std::move(wd_table_);
  wd_table_.assign(old.size() * 2, WdKey{});
  wd_mask_ = wd_table_.size() - 1;
  for (const WdKey& k : old) {
    if (k.item == kInvalidDataItem) continue;
    size_t i = HashKey(k.item, k.block) & wd_mask_;
    while (wd_table_[i].item != kInvalidDataItem) i = (i + 1) & wd_mask_;
    wd_table_[i] = k;
  }
}

void StorageCache::WdClear() {
  if (wd_size_ == 0) return;
  std::fill(wd_table_.begin(), wd_table_.end(), WdKey{});
  wd_size_ = 0;
}

void StorageCache::WdEraseItems(std::vector<DataItemId> items) {
  // Cold path (policy period / migration): one rebuild for the whole
  // batch rather than backward-shifting one key at a time.
  if (items.empty()) return;
  std::sort(items.begin(), items.end());
  std::vector<WdKey> keep;
  keep.reserve(wd_size_);
  for (const WdKey& k : wd_table_) {
    if (k.item != kInvalidDataItem &&
        !std::binary_search(items.begin(), items.end(), k.item)) {
      keep.push_back(k);
    }
  }
  std::fill(wd_table_.begin(), wd_table_.end(), WdKey{});
  wd_size_ = 0;
  for (const WdKey& k : keep) WdInsert(k.item, k.block);
}

// ---------------------------------------------------------------------------
// Demand aggregation.

void StorageCache::BeginDemands(std::vector<FlushDemand>* out) {
  demand_out_ = out;
  if (++demand_epoch_ == 0) {
    // Epoch wrapped: old stamps could alias the new epoch, so reset them.
    for (ItemInfo& info : items_) info.demand_epoch = 0;
    demand_epoch_ = 1;
  }
}

void StorageCache::AddDemand(DataItemId item, int64_t blocks, int64_t bytes) {
  // Demands only arise from resident blocks, so the item has a record.
  assert(static_cast<size_t>(item) < items_.size());
  ItemInfo& info = items_[static_cast<size_t>(item)];
  if (info.demand_epoch == demand_epoch_) {
    FlushDemand& d = (*demand_out_)[info.demand_pos];
    d.blocks += blocks;
    d.bytes += bytes;
  } else {
    info.demand_epoch = demand_epoch_;
    info.demand_pos = static_cast<uint32_t>(demand_out_->size());
    demand_out_->push_back(FlushDemand{item, blocks, bytes});
  }
}

void StorageCache::DestageGeneralInto() {
  // Ascending slot order, as a walk of the whole slab would emit them.
  for (size_t w = 0; w < dirty_bits_.size(); ++w) {
    uint64_t bits = dirty_bits_[w];
    while (bits != 0) {
      auto s = static_cast<int32_t>(w * 64 +
                                    static_cast<size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
      slots_[s].dirty = false;
      AddDemand(slots_[s].item, 1, config_.block_size);
    }
    dirty_bits_[w] = 0;
  }
  general_dirty_ = 0;
}

void StorageCache::DestageWriteDelayInto() {
  if (wd_dirty_total_ == 0) return;
  for (size_t i = 0; i < items_.size(); ++i) {
    ItemInfo& info = items_[i];
    if (info.wd_dirty > 0) {
      AddDemand(static_cast<DataItemId>(i), info.wd_dirty,
                info.wd_dirty * config_.block_size);
      info.wd_dirty = 0;
    }
  }
  WdClear();
  wd_dirty_total_ = 0;
}

// ---------------------------------------------------------------------------
// Public API.

StorageCache::ReadOutcome StorageCache::Read(
    DataItemId item, int64_t offset, int32_t size,
    std::vector<FlushDemand>* eviction_flushes) {
  eviction_flushes->clear();
  BeginDemands(eviction_flushes);
  ReadOutcome out;
  int64_t first = FirstBlock(offset);
  int64_t last = LastBlock(offset, size);
  // One item-state lookup per request, not one per block.
  const ItemInfo& info = ItemAt(item);
  bool preloaded = info.preloaded;
  bool wd_resident = info.wd_dirty > 0;
  for (int64_t b = first; b <= last; ++b) {
    if (preloaded) {
      out.hit_blocks++;
      continue;
    }
    if (wd_resident && WdContains(item, b)) {
      out.hit_blocks++;
      continue;
    }
    int32_t s = TableFind(item, b);
    if (s != kNilSlot) {
      LruMoveToFront(s);
      out.hit_blocks++;
    } else {
      out.miss_blocks++;
      InsertGeneral(item, b, /*dirty=*/false);
    }
  }
  hit_blocks_ += out.hit_blocks;
  miss_blocks_ += out.miss_blocks;
  return out;
}

StorageCache::WriteOutcome StorageCache::Write(
    DataItemId item, int64_t offset, int32_t size,
    std::vector<FlushDemand>* destage) {
  destage->clear();
  BeginDemands(destage);
  WriteOutcome out;
  int64_t first = FirstBlock(offset);
  int64_t last = LastBlock(offset, size);
  absorbed_write_blocks_ += last - first + 1;

  ItemInfo& info = ItemAt(item);
  if (info.write_delayed) {
    out.write_delayed = true;
    for (int64_t b = first; b <= last; ++b) {
      if (WdInsert(item, b)) {
        wd_dirty_total_++;
        info.wd_dirty++;
      }
    }
    double limit = config_.write_delay_dirty_ratio *
                   static_cast<double>(wd_capacity_blocks_);
    if (static_cast<double>(wd_dirty_total_) >= limit) {
      DestageWriteDelayInto();
    }
    return out;
  }

  for (int64_t b = first; b <= last; ++b) {
    int32_t s = TableFind(item, b);
    if (s != kNilSlot) {
      LruMoveToFront(s);
      if (!slots_[s].dirty) MarkDirty(s);
    } else {
      // Eviction write-backs land in `destage` ahead of any threshold
      // destage, matching the legacy demand order.
      InsertGeneral(item, b, /*dirty=*/true);
    }
  }
  double limit = config_.default_dirty_ratio *
                 static_cast<double>(general_capacity_blocks_);
  if (static_cast<double>(general_dirty_) >= limit) {
    DestageGeneralInto();
  }
  return out;
}

std::vector<FlushDemand> StorageCache::SetWriteDelayItems(
    const std::unordered_set<DataItemId>& items,
    std::vector<DataItemId>* entered, std::vector<WdChange>* left) {
  std::vector<FlushDemand> demands;
  BeginDemands(&demands);
  // Destage dirty blocks of items leaving the set (paper §V-B), in item
  // id order.
  std::vector<DataItemId> erase;
  for (size_t i = 0; i < items_.size(); ++i) {
    ItemInfo& info = items_[i];
    if (!info.write_delayed && info.wd_dirty == 0) continue;
    auto id = static_cast<DataItemId>(i);
    if (items.count(id) > 0) continue;
    int64_t flushed = 0;
    if (info.wd_dirty > 0) {
      flushed = info.wd_dirty;
      AddDemand(id, info.wd_dirty, info.wd_dirty * config_.block_size);
      wd_dirty_total_ -= info.wd_dirty;
      info.wd_dirty = 0;
      erase.push_back(id);
    }
    info.write_delayed = false;
    if (left != nullptr) {
      left->push_back(WdChange{id, flushed, flushed * config_.block_size});
    }
  }
  WdEraseItems(std::move(erase));
  for (DataItemId id : items) {
    ItemInfo& info = ItemAt(id);
    if (entered != nullptr && !info.write_delayed) entered->push_back(id);
    info.write_delayed = true;
  }
  // `items` iterates in hash order; sort so per-item attribution events
  // are emitted in a stable order (`left` already is, by item id).
  if (entered != nullptr) std::sort(entered->begin(), entered->end());
  return demands;
}

StorageCache::ItemState StorageCache::ExportItemState(DataItemId item) const {
  ItemState state;
  const ItemInfo* info = FindItem(item);
  if (info != nullptr) {
    state.preload_selected = info->preload_selected;
    state.preloaded = info->preloaded;
    state.write_delayed = info->write_delayed;
    state.preload_bytes = info->preload_bytes;
  }
  return state;
}

void StorageCache::AdoptItemState(DataItemId item, const ItemState& state) {
  ItemInfo& info = ItemAt(item);
  info.preload_selected = state.preload_selected;
  info.preloaded = state.preloaded;
  info.write_delayed = state.write_delayed;
  info.preload_bytes = state.preload_bytes;
}

void StorageCache::DropItemState(DataItemId item) {
  AdoptItemState(item, ItemState{});
}

Result<std::vector<DataItemId>> StorageCache::SetPreloadItems(
    const std::vector<std::pair<DataItemId, int64_t>>& sizes) {
  int64_t total = 0;
  for (const auto& [item, size] : sizes) total += size;
  if (total > config_.preload_area_bytes) {
    return Status::CapacityExceeded(
        "preload selection exceeds preload area");
  }
  std::unordered_set<DataItemId> selected;
  selected.reserve(sizes.size());
  for (const auto& [item, size] : sizes) selected.insert(item);
  // Deselected items drop out immediately.
  for (size_t i = 0; i < items_.size(); ++i) {
    ItemInfo& info = items_[i];
    if (info.preload_selected &&
        selected.count(static_cast<DataItemId>(i)) == 0) {
      info.preload_selected = false;
      info.preloaded = false;
      info.preload_bytes = 0;
    }
  }
  // Already-loaded items stay resident (paper §V-C); everything else —
  // newly selected or selected-but-never-loaded — must be (re)loaded, in
  // `sizes` order.
  std::vector<DataItemId> to_load;
  for (const auto& [item, size] : sizes) {
    ItemInfo& info = ItemAt(item);
    if (info.preload_selected && info.preloaded) continue;
    info.preload_selected = true;
    info.preloaded = false;
    info.preload_bytes = size;
    to_load.push_back(item);
  }
  return to_load;
}

Status StorageCache::MarkPreloaded(DataItemId item) {
  auto idx = static_cast<size_t>(item);
  if (idx >= items_.size() || !items_[idx].preload_selected) {
    return Status::NotFound("item not in preload set");
  }
  items_[idx].preloaded = true;
  return Status::OK();
}

std::vector<FlushDemand> StorageCache::FlushAll() {
  std::vector<FlushDemand> demands;
  BeginDemands(&demands);
  DestageGeneralInto();
  DestageWriteDelayInto();
  return demands;
}

std::vector<FlushDemand> StorageCache::InvalidateItem(DataItemId item) {
  std::vector<FlushDemand> demands;
  auto idx = static_cast<size_t>(item);
  if (idx >= items_.size()) return demands;
  BeginDemands(&demands);
  // Free the item's slots in ascending slot id, as a walk of the whole
  // slab would, so the free list comes out in the same order.
  std::vector<int32_t> chain;
  for (int32_t s = items_[idx].chain_head; s != kNilSlot;
       s = slots_[s].chain_next) {
    chain.push_back(s);
  }
  std::sort(chain.begin(), chain.end());
  items_[idx].chain_head = kNilSlot;
  for (int32_t s : chain) {
    slots_[s].chain_prev = kNilSlot;
    slots_[s].chain_next = kNilSlot;
    ReleaseSlot(s);
  }
  ItemInfo& info = items_[idx];
  if (info.wd_dirty > 0) {
    AddDemand(item, info.wd_dirty, info.wd_dirty * config_.block_size);
    wd_dirty_total_ -= info.wd_dirty;
    info.wd_dirty = 0;
    WdEraseItems({item});
  }
  // Write-delay membership survives invalidation: the item's physical
  // location changed, not the policy's selection.
  return demands;
}

Status StorageCache::CheckInvariants() const {
  auto fail = [](const std::string& what) {
    return Status::Internal("storage cache: " + what);
  };
  // The slab against its index, both ways.
  int64_t occupied = 0;
  for (size_t s = 0; s < slots_.size(); ++s) {
    const Slot& slot = slots_[s];
    if (slot.item == kInvalidDataItem) continue;
    occupied++;
    if (TableFind(slot.item, slot.block) != static_cast<int32_t>(s)) {
      return fail("slot " + std::to_string(s) + " is not indexed under its key");
    }
  }
  if (occupied != general_size_) return fail("occupied slots != general size");
  int64_t indexed = 0;
  for (const Bucket& b : table_) {
    if (b.slot == kNilSlot) continue;
    indexed++;
    if (b.slot < 0 || static_cast<size_t>(b.slot) >= slots_.size() ||
        slots_[b.slot].item != b.item || slots_[b.slot].block != b.block) {
      return fail("an index bucket points at a slot holding another key");
    }
  }
  if (indexed != general_size_) return fail("index entries != general size");
  if (static_cast<int64_t>(free_slots_.size()) + general_size_ !=
      static_cast<int64_t>(slots_.size())) {
    return fail("free list + occupied slots != slab size");
  }

  // The LRU list: well linked and as long as the general area.
  int64_t lru_len = 0;
  int32_t prev = kNilSlot;
  for (int32_t s = lru_head_; s != kNilSlot; s = slots_[s].lru_next) {
    if (++lru_len > general_size_ || slots_[s].lru_prev != prev ||
        slots_[s].item == kInvalidDataItem) {
      return fail("LRU list is malformed or longer than the general area");
    }
    prev = s;
  }
  if (lru_len != general_size_ || lru_tail_ != prev) {
    return fail("LRU length != general size");
  }

  // Each item's chain holds exactly its resident slots: every chain entry
  // belongs to the item, no slot is chained twice, and the chains cover
  // every occupied slot.
  std::vector<bool> chained(slots_.size(), false);
  int64_t chain_total = 0;
  for (size_t i = 0; i < items_.size(); ++i) {
    prev = kNilSlot;
    for (int32_t s = items_[i].chain_head; s != kNilSlot;
         s = slots_[s].chain_next) {
      if (slots_[s].item != static_cast<DataItemId>(i) || chained[s] ||
          slots_[s].chain_prev != prev) {
        return fail("item " + std::to_string(i) +
                    "'s slot chain holds a foreign, repeated or mislinked slot");
      }
      chained[s] = true;
      chain_total++;
      prev = s;
    }
  }
  if (chain_total != general_size_) {
    return fail("item chains do not cover every resident slot");
  }

  // The dirty bitmap against the dirty flags and the counter.
  if (dirty_bits_.size() != (slots_.size() + 63) / 64) {
    return fail("dirty bitmap does not cover the slab");
  }
  int64_t dirty = 0;
  for (size_t s = 0; s < slots_.size(); ++s) {
    bool bit = (dirty_bits_[s >> 6] >> (s & 63)) & 1;
    bool flag = slots_[s].dirty;
    if (bit != flag || (flag && slots_[s].item == kInvalidDataItem)) {
      return fail("dirty bit of slot " + std::to_string(s) +
                  " disagrees with its flag");
    }
    dirty += flag ? 1 : 0;
  }
  if (dirty != general_dirty_) return fail("dirty slots != general dirty count");

  // Write-delay counters: per-item counts sum to the total, which is the
  // number of resident write-delay blocks.
  int64_t wd_sum = 0;
  for (const ItemInfo& info : items_) {
    if (info.wd_dirty < 0) return fail("negative write-delay count");
    wd_sum += info.wd_dirty;
  }
  if (wd_sum != wd_dirty_total_ ||
      static_cast<int64_t>(wd_size_) != wd_dirty_total_) {
    return fail("write-delay counts do not sum to the total");
  }
  return Status::OK();
}

}  // namespace ecostore::storage
