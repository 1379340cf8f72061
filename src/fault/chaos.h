// Chaos trials: randomized fault campaigns with an invariant oracle.
//
// One trial = one deployment driven through three phases:
//
//   warmup      fault-free executions so every node settles into its role
//   faults      a seeded FaultPlan runs against the deployment (crashes,
//               recoveries, freezes, link partitions, jamming, clock drift)
//   quiescence  every fault window is closed and the channel is switched to
//               perfect links; the protocol gets several executions to
//               reconverge
//
// After quiescence the ChaosOracle snapshots every node and checks the
// eventual-consistency invariants I1-I5 and I-V1/I-V6/I-V7 under geometric
// reach (oracle.h, fds/snapshot.h). Everything is derived from the trial
// seed, so a failing (seed, plan) pair replays byte for byte: log the plan,
// reload it, re-run, debug — a failing trial also keeps the snapshots the
// oracle judged.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "fds/snapshot.h"
#include "radio/loss_model.h"

namespace cfds::fault {

/// Wraps a loss model with an off switch. The chaos harness flips a trial's
/// channel to perfect links for the quiescence phase — injected faults must
/// be the only persistent disturbance when the oracle runs, and background
/// loss would otherwise keep (legitimately) delaying reconvergence forever.
class SwitchableLoss final : public LossModel {
 public:
  explicit SwitchableLoss(std::unique_ptr<LossModel> inner)
      : inner_(std::move(inner)) {}

  void set_perfect(bool perfect) { perfect_ = perfect; }

  [[nodiscard]] bool lost(NodeId sender, Vec2 from, NodeId receiver, Vec2 to,
                          Rng& rng) override {
    return !perfect_ && inner_->lost(sender, from, receiver, to, rng);
  }

 private:
  std::unique_ptr<LossModel> inner_;
  bool perfect_ = false;
};

/// The trial's feature toggles and fault mix. The deployment itself is
/// fixed (chaos.cpp): a ~10-cluster field dense enough for deputies and
/// gateways everywhere, small enough for sub-second trials.
struct ChaosConfig {
  /// Self-tuning (accrual) detection — see FdsConfig::adaptive_enabled.
  bool adaptive = false;
  /// Checkpointed CH/DCH recovery — see FdsConfig::checkpoint_enabled.
  bool checkpoint = false;

  /// Event mix handed to FaultPlan::random (profile() fills in the
  /// deployment's node count, field, range, phi and fault horizon).
  ChaosProfile mix;

  [[nodiscard]] ChaosProfile profile() const;
};

struct ChaosResult {
  std::uint64_t seed = 0;
  FaultPlan plan;
  std::vector<InvariantViolation> violations;
  /// The snapshots the oracle judged, one per node with its position; kept
  /// only when the trial failed.
  std::vector<Snapshot> snapshots;
  std::size_t alive = 0;
  std::size_t clusters = 0;
  double affiliation = 0.0;
  /// Rejoin-to-consistent: for each kRecover event whose node came back,
  /// the time from the recovery instant until the node is alive, affiliated
  /// and marked again (polled at phi/4 granularity). This is the
  /// metric the checkpointed-recovery path is judged on: a restoring CH/DCH
  /// skips the subscribe/admit handshake, so its rejoin time should drop.
  std::size_t rejoins = 0;        ///< recoveries that reached consistency
  std::size_t rejoin_pending = 0; ///< recoveries that never became consistent
  std::int64_t rejoin_mean_us = 0;
  std::int64_t rejoin_max_us = 0;

  [[nodiscard]] bool passed() const { return violations.empty(); }

  /// One JSON object (no trailing newline) summarizing the trial.
  [[nodiscard]] std::string summary_json() const;
};

/// Generates the seeded random plan for this (config, seed) and runs it.
[[nodiscard]] ChaosResult run_chaos_trial(const ChaosConfig& config,
                                          std::uint64_t seed);

/// Runs an explicit plan (e.g. reloaded from a campaign's JSONL log) against
/// the deployment derived from (config, seed). run_chaos_trial(config, s) and
/// replay_chaos_trial(config, s, FaultPlan::random(s, config.profile()))
/// produce identical results.
[[nodiscard]] ChaosResult replay_chaos_trial(const ChaosConfig& config,
                                             std::uint64_t seed,
                                             const FaultPlan& plan);

}  // namespace cfds::fault
