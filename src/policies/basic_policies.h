#ifndef ECOSTORE_POLICIES_BASIC_POLICIES_H_
#define ECOSTORE_POLICIES_BASIC_POLICIES_H_

#include <string>

#include "policies/storage_policy.h"

namespace ecostore::policies {

/// \brief The paper's "without power saving" reference: enclosures never
/// power off; the cache runs with default behaviour only.
class NoPowerSavingPolicy : public StoragePolicy {
 public:
  std::string name() const override { return "no_power_saving"; }
  SimDuration initial_period() const override { return 1 * kHour; }

  void Start(const storage::StorageSystem& system,
             PolicyActuator* actuator) override {
    for (int e = 0; e < system.num_enclosures(); ++e) {
      actuator->SetSpinDownAllowed(static_cast<EnclosureId>(e), false);
    }
  }

  SimDuration OnPeriodEnd(const monitor::MonitorSnapshot& snapshot,
                          const storage::StorageSystem& system,
                          PolicyActuator* actuator) override {
    (void)snapshot;
    (void)system;
    (void)actuator;
    return initial_period();
  }

  /// The snapshot is never read, so the engine need not buffer the
  /// period's logical I/O.
  bool wants_logical_trace() const override { return false; }
};

/// \brief hd-idle-style baseline (ablation): every enclosure spins down
/// after the fixed idle timeout, with no data movement and no cache
/// assistance. Isolates how much of the proposed method's saving comes
/// from timeouts alone.
class FixedTimeoutPolicy : public StoragePolicy {
 public:
  std::string name() const override { return "fixed_timeout"; }
  SimDuration initial_period() const override { return 1 * kHour; }

  void Start(const storage::StorageSystem& system,
             PolicyActuator* actuator) override {
    for (int e = 0; e < system.num_enclosures(); ++e) {
      actuator->SetSpinDownAllowed(static_cast<EnclosureId>(e), true);
    }
  }

  SimDuration OnPeriodEnd(const monitor::MonitorSnapshot& snapshot,
                          const storage::StorageSystem& system,
                          PolicyActuator* actuator) override {
    (void)snapshot;
    (void)system;
    (void)actuator;
    return initial_period();
  }

  /// The snapshot is never read, so the engine need not buffer the
  /// period's logical I/O.
  bool wants_logical_trace() const override { return false; }
};

}  // namespace ecostore::policies

#endif  // ECOSTORE_POLICIES_BASIC_POLICIES_H_
