#include "storage/storage_cache.h"

#include <algorithm>
#include <cassert>
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
  table_.assign(kInitialTableSize, kNilSlot);
  table_mask_ = kInitialTableSize - 1;
  wd_table_.assign(kInitialTableSize, WdKey{});
  wd_mask_ = kInitialTableSize - 1;
}

// ---------------------------------------------------------------------------
// General-area open-addressing index.

int32_t StorageCache::TableFind(DataItemId item, int64_t block) const {
  size_t i = HashKey(item, block) & table_mask_;
  while (true) {
    int32_t s = table_[i];
    if (s == kNilSlot) return kNilSlot;
    const Slot& slot = slots_[s];
    if (slot.item == item && slot.block == block) return s;
    i = (i + 1) & table_mask_;
  }
}

void StorageCache::TableInsert(int32_t slot) {
  // Grow before probing so the insert position is final. Any eviction must
  // happen before this call: a hole opened by TableErase earlier in this
  // key's probe chain would otherwise orphan the entry.
  if ((static_cast<size_t>(general_size_) + 1) * 2 > table_.size()) {
    TableGrow();
  }
  size_t i = HashKey(slots_[slot].item, slots_[slot].block) & table_mask_;
  while (table_[i] != kNilSlot) i = (i + 1) & table_mask_;
  table_[i] = slot;
}

void StorageCache::TableErase(DataItemId item, int64_t block) {
  size_t i = HashKey(item, block) & table_mask_;
  while (true) {
    int32_t s = table_[i];
    assert(s != kNilSlot && "erasing a block that is not indexed");
    if (s == kNilSlot) return;
    if (slots_[s].item == item && slots_[s].block == block) break;
    i = (i + 1) & table_mask_;
  }
  // Backward-shift deletion: keep every displaced entry reachable from its
  // home position without leaving tombstones behind.
  size_t hole = i;
  size_t j = i;
  while (true) {
    j = (j + 1) & table_mask_;
    int32_t s = table_[j];
    if (s == kNilSlot) break;
    size_t home = HashKey(slots_[s].item, slots_[s].block) & table_mask_;
    bool movable = (j > hole) ? (home <= hole || home > j)
                              : (home <= hole && home > j);
    if (movable) {
      table_[hole] = s;
      hole = j;
    }
  }
  table_[hole] = kNilSlot;
}

void StorageCache::TableGrow() {
  std::vector<int32_t> old = std::move(table_);
  table_.assign(old.size() * 2, kNilSlot);
  table_mask_ = table_.size() - 1;
  for (int32_t s : old) {
    if (s == kNilSlot) continue;
    size_t i = HashKey(slots_[s].item, slots_[s].block) & table_mask_;
    while (table_[i] != kNilSlot) i = (i + 1) & table_mask_;
    table_[i] = s;
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

void StorageCache::EvictLru() {
  int32_t victim = lru_tail_;
  assert(victim != kNilSlot);
  Slot& slot = slots_[victim];
  if (slot.dirty) {
    general_dirty_--;
    AddDemand(slot.item, 1, config_.block_size);
  }
  LruUnlink(victim);
  TableErase(slot.item, slot.block);
  slot.item = kInvalidDataItem;
  slot.dirty = false;
  free_slots_.push_back(victim);
  general_size_--;
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
  }
  Slot& slot = slots_[s];
  slot.item = item;
  slot.block = block;
  slot.dirty = dirty;
  LruPushFront(s);
  TableInsert(s);
  general_size_++;
  if (dirty) general_dirty_++;
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
    std::fill(demand_index_.begin(), demand_index_.end(),
              std::pair<uint32_t, uint32_t>{0, 0});
    demand_epoch_ = 1;
  }
}

void StorageCache::AddDemand(DataItemId item, int64_t blocks, int64_t bytes) {
  auto idx = static_cast<size_t>(item);
  if (idx >= demand_index_.size()) {
    demand_index_.resize(idx + 1, {0, 0});
  }
  auto& [epoch, pos] = demand_index_[idx];
  if (epoch == demand_epoch_) {
    FlushDemand& d = (*demand_out_)[pos];
    d.blocks += blocks;
    d.bytes += bytes;
  } else {
    epoch = demand_epoch_;
    pos = static_cast<uint32_t>(demand_out_->size());
    demand_out_->push_back(FlushDemand{item, blocks, bytes});
  }
}

void StorageCache::DestageGeneralInto() {
  for (Slot& slot : slots_) {
    if (slot.item != kInvalidDataItem && slot.dirty) {
      slot.dirty = false;
      AddDemand(slot.item, 1, config_.block_size);
    }
  }
  general_dirty_ = 0;
}

void StorageCache::DestageWriteDelayInto() {
  for (auto& [item, info] : items_) {
    if (info.wd_dirty > 0) {
      AddDemand(item, info.wd_dirty, info.wd_dirty * config_.block_size);
      info.wd_dirty = 0;
    }
  }
  WdClear();
  wd_dirty_total_ = 0;
}

void StorageCache::CompactItem(DataItemId item) {
  auto it = items_.find(item);
  if (it != items_.end() && it->second.empty()) items_.erase(it);
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
  const ItemInfo* info = FindItem(item);
  bool preloaded = info != nullptr && info->preloaded;
  bool wd_resident = info != nullptr && info->wd_dirty > 0;
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

  auto it = items_.find(item);
  ItemInfo* info = it == items_.end() ? nullptr : &it->second;
  if (info != nullptr && info->write_delayed) {
    out.write_delayed = true;
    for (int64_t b = first; b <= last; ++b) {
      if (WdInsert(item, b)) {
        wd_dirty_total_++;
        info->wd_dirty++;
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
      if (!slots_[s].dirty) {
        slots_[s].dirty = true;
        general_dirty_++;
      }
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
  // Destage dirty blocks of items leaving the set (paper §V-B).
  std::vector<DataItemId> leaving;
  std::vector<DataItemId> erase;
  for (auto& [id, info] : items_) {
    if (!info.write_delayed && info.wd_dirty == 0) continue;
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
    leaving.push_back(id);
    if (left != nullptr) {
      left->push_back(WdChange{id, flushed, flushed * config_.block_size});
    }
  }
  WdEraseItems(std::move(erase));
  for (DataItemId id : items) {
    ItemInfo& info = items_[id];
    if (entered != nullptr && !info.write_delayed) entered->push_back(id);
    info.write_delayed = true;
  }
  for (DataItemId id : leaving) CompactItem(id);
  // items_ iterates in hash order; sort so per-item attribution events are
  // emitted in a stable order.
  if (entered != nullptr) std::sort(entered->begin(), entered->end());
  if (left != nullptr) {
    std::sort(left->begin(), left->end(),
              [](const WdChange& a, const WdChange& b) { return a.item < b.item; });
  }
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
  ItemInfo& info = items_[item];
  info.preload_selected = state.preload_selected;
  info.preloaded = state.preloaded;
  info.write_delayed = state.write_delayed;
  info.preload_bytes = state.preload_bytes;
  CompactItem(item);
}

void StorageCache::DropItemState(DataItemId item) {
  auto it = items_.find(item);
  if (it == items_.end()) return;
  it->second.preload_selected = false;
  it->second.preloaded = false;
  it->second.write_delayed = false;
  it->second.preload_bytes = 0;
  CompactItem(item);
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
  std::vector<DataItemId> dropped;
  for (auto& [id, info] : items_) {
    if (info.preload_selected && selected.count(id) == 0) {
      info.preload_selected = false;
      info.preloaded = false;
      info.preload_bytes = 0;
      dropped.push_back(id);
    }
  }
  for (DataItemId id : dropped) CompactItem(id);
  // Already-loaded items stay resident (paper §V-C); everything else —
  // newly selected or selected-but-never-loaded — must be (re)loaded, in
  // `sizes` order.
  std::vector<DataItemId> to_load;
  for (const auto& [item, size] : sizes) {
    ItemInfo& info = items_[item];
    if (info.preload_selected && info.preloaded) continue;
    info.preload_selected = true;
    info.preloaded = false;
    info.preload_bytes = size;
    to_load.push_back(item);
  }
  return to_load;
}

Status StorageCache::MarkPreloaded(DataItemId item) {
  auto it = items_.find(item);
  if (it == items_.end() || !it->second.preload_selected) {
    return Status::NotFound("item not in preload set");
  }
  it->second.preloaded = true;
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
  BeginDemands(&demands);
  for (int32_t s = 0; s < static_cast<int32_t>(slots_.size()); ++s) {
    Slot& slot = slots_[s];
    if (slot.item != item) continue;
    if (slot.dirty) {
      general_dirty_--;
      AddDemand(item, 1, config_.block_size);
    }
    LruUnlink(s);
    TableErase(slot.item, slot.block);
    slot.item = kInvalidDataItem;
    slot.dirty = false;
    free_slots_.push_back(s);
    general_size_--;
  }
  auto it = items_.find(item);
  if (it != items_.end() && it->second.wd_dirty > 0) {
    AddDemand(item, it->second.wd_dirty,
              it->second.wd_dirty * config_.block_size);
    wd_dirty_total_ -= it->second.wd_dirty;
    it->second.wd_dirty = 0;
    WdEraseItems({item});
  }
  // Write-delay membership survives invalidation: the item's physical
  // location changed, not the policy's selection.
  return demands;
}

}  // namespace ecostore::storage
