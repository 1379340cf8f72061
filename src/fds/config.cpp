#include "fds/config.h"

#include "common/expect.h"

namespace cfds {

const char* FdsConfig::violation(SimTime t_hop) const {
  if (t_hop <= SimTime::zero()) return "FdsConfig: Thop must be positive";
  if (heartbeat_interval.as_micros() < 7 * t_hop.as_micros()) {
    return "FdsConfig: phi must be at least 7 * Thop";
  }
  if (2 * max_clock_skew.as_micros() > heartbeat_interval.as_micros()) {
    return "FdsConfig: max_clock_skew must be at most phi / 2";
  }
  if (adaptive_enabled && accrual_threshold_milli == 0) {
    return "FdsConfig: adaptive detection needs a positive accrual threshold";
  }
  if (checkpoint_enabled && checkpoint_interval_epochs == 0) {
    return "FdsConfig: checkpointing needs a positive interval";
  }
  if (checkpoint_enabled && !recovery_enabled) {
    return "FdsConfig: checkpointed recovery requires recovery_enabled for "
           "the reconciliation rules";
  }
  return nullptr;
}

void FdsConfig::validate(SimTime t_hop) const {
  const char* const error = violation(t_hop);
  CFDS_EXPECT(error == nullptr, error);
}

}  // namespace cfds
