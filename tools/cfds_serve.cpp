// cfds_serve: one FDS endpoint as a real process.
//
// Runs a single node of the cluster-based failure detection service over
// UDP loopback, against real time. A deployment is N of these processes
// (NIDs 0..N-1) sharing a --port-base and an --anchor-us instant so their
// epoch schedules align; tools/soak_harness --mode procs spawns and
// collects them. See docs/SERVICE.md.
//
// Exit status: 0 after the configured epochs complete and the status line
// is written; 64 on usage errors; 70 on runtime failures (bind, plan).
// `cfds_serve --help` lists the flags.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "common/flags.h"
#include "fault/fault_plan.h"
#include "service/agent.h"
#include "service/config.h"
#include "transport/real_time.h"
#include "transport/udp.h"

namespace {

struct ServeOptions {
  std::uint32_t id = 0;
  cfds::service::ServiceConfig config;
  std::uint16_t port_base = 19000;
  std::int64_t anchor_us = 0;  ///< CLOCK_REALTIME µs of epoch 0; 0 = now+500ms
  std::string fault_plan_path;
  std::string status_out;  ///< empty = stdout
};

[[nodiscard]] std::int64_t realtime_now_us() {
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  return std::chrono::duration_cast<std::chrono::microseconds>(now).count();
}

ServeOptions parse_args(int argc, char** argv) {
  constexpr int kUsageError = 64;
  ServeOptions opt;
  cfds::FlagSet flags;
  flags.add_value("--id", &opt.id, "this endpoint's NID, below --n (required)");
  cfds::service::add_service_flags(flags, opt.config, opt.port_base);
  flags.add_value("--anchor-us", &opt.anchor_us,
                  "CLOCK_REALTIME microseconds of epoch 0, the same for "
                  "every endpoint (default now + 500 ms)");
  flags.add_value("--fault-plan", &opt.fault_plan_path,
                  "FaultPlan JSONL to inject (default none)");
  flags.add_value("--status-out", &opt.status_out,
                  "status JSONL destination (default stdout)");
  flags.parse_all_or_exit(argc, argv, kUsageError);
  if (!flags.given("--id") || !flags.given("--n")) {
    flags.usage_error(argv[0], "--id and --n are required", kUsageError);
  }
  if (opt.id >= opt.config.node_count) {
    flags.usage_error(argv[0], "--id must be < --n", kUsageError);
  }
  if (const std::string error = cfds::service::check_config(opt.config);
      !error.empty()) {
    flags.usage_error(argv[0], error, kUsageError);
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const ServeOptions opt = parse_args(argc, argv);

  std::optional<cfds::fault::FaultPlan> plan;
  if (!opt.fault_plan_path.empty()) {
    std::string error;
    plan = cfds::fault::FaultPlan::load(opt.fault_plan_path, &error);
    if (!plan) {
      std::cerr << "cfds_serve: bad fault plan: " << error << "\n";
      return 70;
    }
  }

  try {
    // SimTime 0 on this endpoint's axis = "now" at scheduler construction;
    // the shared anchor instant maps to (anchor - now) on that axis, so all
    // endpoints start epoch 0 at the same real instant regardless of when
    // each process happened to launch.
    cfds::RealTimeScheduler scheduler;
    const std::int64_t anchor_us =
        opt.anchor_us != 0 ? opt.anchor_us : realtime_now_us() + 500'000;
    cfds::SimTime epoch0 =
        cfds::SimTime::micros(anchor_us - realtime_now_us());
    if (epoch0 < cfds::SimTime::millis(1)) {
      // Launched after the anchor (or with a stale one): a burst of
      // catch-up rounds would be meaningless, so shift to the next epoch
      // boundary this endpoint can still make.
      cfds::SimTime shifted = epoch0;
      while (shifted < cfds::SimTime::millis(1)) shifted += opt.config.phi;
      std::cerr << "cfds_serve[" << opt.id << "]: anchor in the past, "
                << "starting at the next epoch boundary\n";
      epoch0 = shifted;
    }

    cfds::UdpTransport transport(cfds::NodeId{opt.id}, opt.port_base,
                                 opt.config.node_count);
    cfds::service::ServiceAgent agent(opt.config, cfds::NodeId{opt.id},
                                      transport, scheduler);
    // Operational trace: every detection and takeover this endpoint decides,
    // one line each, so a soak post-mortem can attribute failure news to
    // its author. Assembled into one string so concurrent endpoints cannot
    // interleave mid-line on a shared stderr.
    agent.hooks().on_detection = [&opt](cfds::NodeId decider,
                                        std::uint64_t epoch,
                                        const std::vector<cfds::NodeId>& failed,
                                        bool by_deputy) {
      std::string line = "cfds_serve[" + std::to_string(opt.id) +
                         "]: epoch " + std::to_string(epoch) +
                         (by_deputy ? " deputy" : "") + " detected";
      for (cfds::NodeId f : failed) line += ' ' + std::to_string(f.value());
      line += '\n';
      std::cerr << line;
      (void)decider;
    };
    agent.hooks().on_takeover = [&opt](cfds::NodeId deputy, cfds::NodeId old_ch,
                                       std::uint64_t epoch) {
      std::string line = "cfds_serve[" + std::to_string(opt.id) +
                         "]: epoch " + std::to_string(epoch) + " takeover of " +
                         std::to_string(old_ch.value()) + "\n";
      std::cerr << line;
      (void)deputy;
    };
    agent.start(epoch0, plan ? &*plan : nullptr);

    const cfds::SimTime max_wait = cfds::SimTime::millis(100);
    while (!agent.done()) {
      cfds::SimTime deadline;
      cfds::SimTime wait = max_wait;
      if (scheduler.next_deadline(&deadline)) {
        wait = deadline - scheduler.now();
        if (wait > max_wait) wait = max_wait;
        if (wait < cfds::SimTime::zero()) wait = cfds::SimTime::zero();
      }
      if (transport.wait(wait)) transport.drain(scheduler.now());
      scheduler.run_due();
    }

    const std::string line = agent.status().to_json();
    if (opt.status_out.empty()) {
      std::cout << line << "\n";
    } else {
      std::ofstream out(opt.status_out, std::ios::trunc);
      if (!out) {
        std::cerr << "cfds_serve: cannot write " << opt.status_out << "\n";
        return 70;
      }
      out << line << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "cfds_serve[" << opt.id << "]: " << e.what() << "\n";
    return 70;
  }
}
