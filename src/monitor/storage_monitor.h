#ifndef ECOSTORE_MONITOR_STORAGE_MONITOR_H_
#define ECOSTORE_MONITOR_STORAGE_MONITOR_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/sim_time.h"
#include "common/types.h"
#include "storage/storage_system.h"
#include "trace/io_record.h"

namespace ecostore::monitor {

/// A power state transition observed on an enclosure (paper §III-B,
/// "power status of the storage device").
struct PowerEvent {
  EnclosureId enclosure = kInvalidEnclosure;
  SimTime time = 0;
  storage::PowerState state = storage::PowerState::kOn;
};

/// \brief The Storage Monitor (paper §III-B): watches physical I/O and
/// power status below the block-virtualization layer.
///
/// Physical I/O is counted per enclosure, not traced: the only consumer
/// (DDR's window IOPS) needs counts, and on a write-dominant fleet a
/// per-period record trace would hold about one record per logical I/O.
class StorageMonitor : public storage::StorageObserver {
 public:
  explicit StorageMonitor(int num_enclosures)
      : physical_ios_(static_cast<size_t>(num_enclosures), 0),
        power_on_counts_(static_cast<size_t>(num_enclosures), 0) {}

  void OnPhysicalIo(const trace::PhysicalIoRecord& rec) override {
    physical_ios_[static_cast<size_t>(rec.enclosure)]++;
  }

  void OnPowerStateChange(EnclosureId enclosure, SimTime at,
                          storage::PowerState state) override {
    power_events_.push_back(PowerEvent{enclosure, at, state});
    if (state == storage::PowerState::kSpinningUp) {
      power_on_counts_[static_cast<size_t>(enclosure)]++;
    }
  }

  /// Physical I/O batches submitted to an enclosure within the current
  /// period.
  int64_t physical_ios(EnclosureId enclosure) const {
    return physical_ios_.at(static_cast<size_t>(enclosure));
  }

  const std::vector<PowerEvent>& power_events() const {
    return power_events_;
  }

  /// Power-on count of an enclosure within the current period (used by the
  /// pattern-change trigger, paper §V-D condition ii).
  int64_t power_on_count(EnclosureId enclosure) const {
    return power_on_counts_.at(static_cast<size_t>(enclosure));
  }

  SimTime period_start() const { return period_start_; }

  void ResetPeriod(SimTime now) {
    std::fill(physical_ios_.begin(), physical_ios_.end(), 0);
    power_events_.clear();
    std::fill(power_on_counts_.begin(), power_on_counts_.end(), 0);
    period_start_ = now;
  }

 private:
  std::vector<int64_t> physical_ios_;
  std::vector<PowerEvent> power_events_;
  std::vector<int64_t> power_on_counts_;
  SimTime period_start_ = 0;
};

}  // namespace ecostore::monitor

#endif  // ECOSTORE_MONITOR_STORAGE_MONITOR_H_
