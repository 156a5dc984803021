#ifndef ECOSTORE_TELEMETRY_PER_THREAD_RING_H_
#define ECOSTORE_TELEMETRY_PER_THREAD_RING_H_

// The per-thread single-writer ring behind both observability layers:
// the sim-time event recorder (recorder.h, 48-byte Events) and the
// wall-clock phase profiler (profile/profiler.h, 32-byte Spans).
//
// Every recording thread owns one ring. It grows geometrically up to the
// capacity; after that a head index wraps with a predictable branch (a
// 64-bit divide has no business in the record path) and overwrites the
// oldest entry, accounted in dropped(). Append() is wait-free once the
// thread is bound: binding takes the mutex once per (thread, ring) pair
// and is cached thread-locally, so the common case — one engine
// recording on one thread — re-binds with two loads. The recorded and
// dropped counters are single-writer: only the owning thread updates
// them, via plain load + store (no locked RMW on the record path), and
// readers sum them through the atomic.
//
// DrainInto() requires writers to be quiescent (it runs after the engine
// returns or at a barrier): it unrolls every ring oldest-first, stable-
// sorts the merged stream by the caller's key — ties keep per-thread
// record order — and resets the rings.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ecostore::telemetry {

template <typename T>
class PerThreadRing {
 public:
  /// `capacity` entries per thread (at least one).
  explicit PerThreadRing(size_t capacity)
      : capacity_(std::max<size_t>(capacity, 1)) {}

  ~PerThreadRing() {
    // Invalidate the calling thread's cache if it points at us; stale
    // caches on *other* threads are the caller's lifetime bug (writers
    // must not outlive the ring), same contract as DrainInto().
    if (t_binding.owner == this) t_binding = Binding{};
  }

  PerThreadRing(const PerThreadRing&) = delete;
  PerThreadRing& operator=(const PerThreadRing&) = delete;

  /// Stores `value` in the calling thread's ring and returns the stored
  /// slot, so the caller can stamp thread-local fields in place.
  T& Append(const T& value) {
    Ring* ring = t_binding.owner == this ? t_binding.ring : BindThisThread();
    Bump(&ring->recorded);
    if (ring->items.size() < capacity_) {
      ring->items.push_back(value);
      return ring->items.back();
    }
    T& slot = ring->items[ring->head];
    slot = value;
    if (++ring->head == ring->items.size()) ring->head = 0;
    ring->wrapped = true;
    Bump(&ring->dropped);
    return slot;
  }

  /// Entries successfully appended (still resident or overwritten).
  uint64_t recorded() const { return Sum(&Ring::recorded); }
  /// Entries overwritten because a ring wrapped, summed over all threads.
  uint64_t dropped() const { return Sum(&Ring::dropped); }

  /// Merges all rings into `out` (cleared first) in stable `less` order
  /// and resets the rings. Callers must ensure no Append() runs
  /// concurrently.
  template <typename Less>
  void DrainInto(std::vector<T>* out, Less less) {
    std::lock_guard<std::mutex> lock(mu_);
    out->clear();
    size_t total = 0;
    for (const auto& ring : rings_) total += ring->items.size();
    out->reserve(total);
    for (const auto& ring : rings_) {
      const auto head =
          ring->items.begin() + static_cast<ptrdiff_t>(ring->head);
      if (ring->wrapped) {
        // Oldest surviving entry sits at head; unroll the ring.
        out->insert(out->end(), head, ring->items.end());
        out->insert(out->end(), ring->items.begin(), head);
      } else {
        out->insert(out->end(), ring->items.begin(), ring->items.end());
      }
      ring->items.clear();
      ring->head = 0;
      ring->wrapped = false;
    }
    std::stable_sort(out->begin(), out->end(), less);
  }

 private:
  struct Ring {
    std::thread::id owner;
    std::vector<T> items;
    size_t head = 0;
    bool wrapped = false;
    std::atomic<uint64_t> recorded{0};
    std::atomic<uint64_t> dropped{0};
  };

  /// Per-thread binding cache, one per element type.
  struct Binding {
    const PerThreadRing* owner = nullptr;
    Ring* ring = nullptr;
  };
  static inline thread_local Binding t_binding;

  static void Bump(std::atomic<uint64_t>* counter) {
    counter->store(counter->load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
  }

  Ring* BindThisThread() {
    std::lock_guard<std::mutex> lock(mu_);
    const std::thread::id self = std::this_thread::get_id();
    Ring* ring = nullptr;
    for (const auto& candidate : rings_) {
      if (candidate->owner == self) ring = candidate.get();
    }
    if (ring == nullptr) {
      rings_.push_back(std::make_unique<Ring>());
      ring = rings_.back().get();
      ring->owner = self;
    }
    t_binding = Binding{this, ring};
    return ring;
  }

  uint64_t Sum(std::atomic<uint64_t> Ring::*counter) const {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t total = 0;
    for (const auto& ring : rings_) {
      total += ((*ring).*counter).load(std::memory_order_relaxed);
    }
    return total;
  }

  size_t capacity_;
  mutable std::mutex mu_;  ///< guards rings_
  std::vector<std::unique_ptr<Ring>> rings_;
};

}  // namespace ecostore::telemetry

#endif  // ECOSTORE_TELEMETRY_PER_THREAD_RING_H_
