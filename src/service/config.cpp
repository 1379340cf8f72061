#include "service/config.h"

#include "common/flags.h"
#include "common/jsonl.h"

namespace cfds::service {

void add_service_flags(FlagSet& flags, ServiceConfig& config,
                       std::uint16_t& port_base) {
  flags.add_value("--n", &config.node_count,
                  "deployment size, NIDs 0..N-1 (default 16)");
  flags.add_value("--cluster-size", &config.cluster_size,
                  "directory block size (default 8)");
  flags.add_value("--port-base", &port_base,
                  "UDP port of NID 0 (default 19000)");
  flags.add_millis("--thop-ms", &config.t_hop,
                   "one-hop bound Thop, ms (default 50)");
  flags.add_millis("--phi-ms", &config.phi,
                   "heartbeat interval phi, ms (default 500)");
  flags.add_value("--epochs", &config.epochs,
                  "FDS executions to run (default 10)");
  flags.add_value("--warmup", &config.warmup_epochs,
                  "epochs before the fault phase (default 2)");
  flags.add_value("--seed", &config.seed,
                  "loss-stream seed, also soak's plan seed (default 1)");
  flags.add_value("--loss-p", &config.loss_p,
                  "per-frame receive loss (default 0)");
  flags.add_flag("--adaptive", &config.adaptive,
                 "self-tuning accrual detection");
  flags.add_flag("--checkpoint", &config.checkpoint,
                 "checkpointed CH/DCH recovery");
}

std::vector<std::string> service_argv(const ServiceConfig& config,
                                      std::uint16_t port_base) {
  auto ms = [](SimTime t) { return std::to_string(t.as_micros() / 1000); };
  std::vector<std::string> args = {
      "--n", std::to_string(config.node_count),
      "--cluster-size", std::to_string(config.cluster_size),
      "--port-base", std::to_string(port_base),
      "--thop-ms", ms(config.t_hop),
      "--phi-ms", ms(config.phi),
      "--epochs", std::to_string(config.epochs),
      "--warmup", std::to_string(config.warmup_epochs),
      "--seed", std::to_string(config.seed),
      "--loss-p", jsonl::shortest(config.loss_p),
  };
  if (config.adaptive) args.push_back("--adaptive");
  if (config.checkpoint) args.push_back("--checkpoint");
  return args;
}

}  // namespace cfds::service
