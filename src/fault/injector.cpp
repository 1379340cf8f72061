#include "fault/injector.h"

namespace cfds::fault {

FaultInjector::FaultInjector(Scenario& scenario)
    : scenario_(scenario),
      anchor_(scenario.next_epoch_time()),
      base_epoch_(scenario.epochs_run()),
      runtime_(scenario.network().channel().drop_filter(),
               scenario.network().simulator(),
               {.lifecycle =
                    [&network = scenario.network()](std::uint32_t node,
                                                    bool up) {
                      const NodeId id{node};
                      if (!network.has_node(id)) return;
                      if (up) {
                        network.recover(id);
                      } else {
                        network.crash(id);
                      }
                    },
                .self = std::nullopt,
                .loss =
                    [&channel = scenario.network().channel()](
                        std::optional<double> p) {
                      if (p) {
                        channel.set_loss_override(*p);
                      } else {
                        channel.clear_loss_override();
                      }
                    }}) {}

void FaultInjector::install(const FaultPlan& plan) {
  runtime_.install(plan, anchor_, base_epoch_);
  // Only a plan that drifts a clock installs the provider: without one,
  // FdsService keeps its shared, unskewed round schedule.
  if (runtime_.has_drift()) {
    scenario_.fds().set_skew_provider(
        [this](NodeId id, std::uint64_t epoch) {
          return runtime_.skew(id, epoch);
        });
  }
}

}  // namespace cfds::fault
