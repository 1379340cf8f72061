// soak_harness: drives a live service-mode deployment and, when it settles,
// checks the cluster invariants I1-I5 and I-V1/I-V6/I-V7 (fds/snapshot.h,
// docs/FAULTS.md) over every endpoint's status Snapshot. Service mode is one
// broadcast domain, so every pair of endpoints is in reach.
//
//   --mode threads   N in-process endpoints, one thread each, exchanging
//                    wire-encoded frames through LoopbackTransport queues.
//                    This is the TSan target (tools/check_tsan.sh) and the
//                    service_smoke ctest.
//   --mode procs     N cfds_serve processes exchanging UDP datagrams on
//                    127.0.0.1, epoch schedules aligned by a shared
//                    --anchor-us. This is the 200-process soak of the CI
//                    soak job.
//
// In both modes the harness generates a seeded FaultPlan (crashes,
// recoveries, freezes, link_down windows, jams, clock drift) whose windows
// all close before a quiescence tail of fault-free epochs, then collects
// every endpoint's status line and runs the invariant checker. Exit
// status: 0 clean, 1 invariant violations or endpoint failures, 64 usage,
// 70 setup errors. `soak_harness --help` lists the flags.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <chrono>
#include <map>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "fault/fault_plan.h"
#include "fds/snapshot.h"
#include "service/agent.h"
#include "service/config.h"
#include "service/directory.h"
#include "transport/loopback.h"
#include "transport/real_time.h"

namespace {

using cfds::NodeId;
using cfds::SimTime;
using cfds::Snapshot;
using cfds::service::ServiceConfig;

struct SoakOptions {
  std::string mode = "threads";
  ServiceConfig config;
  std::uint64_t quiesce_epochs = 6;  ///< guaranteed fault-free tail
  bool no_faults = false;
  std::string chaos = "crash";  ///< "crash" or "full" event mix
  std::uint16_t port_base = 19000;
  std::string out_dir = "/tmp";
  std::string serve_bin;  ///< procs mode; default: <argv0 dir>/cfds_serve
};

SoakOptions parse_args(int argc, char** argv) {
  constexpr int kUsageError = 64;
  SoakOptions opt;
  cfds::FlagSet flags;
  flags.add_value("--mode", &opt.mode,
                  "threads or procs: deployment style (default threads)");
  cfds::service::add_service_flags(flags, opt.config, opt.port_base);
  flags.add_value("--quiesce", &opt.quiesce_epochs,
                  "fault-free tail epochs (default 6)");
  flags.add_value("--chaos", &opt.chaos,
                  "crash: crashes, recoveries and clock drift; full: also "
                  "freezes, link cuts and jams (default crash)");
  flags.add_flag("--no-faults", &opt.no_faults, "skip fault injection");
  flags.add_value("--out-dir", &opt.out_dir,
                  "procs mode scratch files (default /tmp)");
  flags.add_value("--serve-bin", &opt.serve_bin,
                  "procs mode daemon binary (default cfds_serve beside this)");
  flags.parse_all_or_exit(argc, argv, kUsageError);
  if (opt.mode != "threads" && opt.mode != "procs") {
    flags.usage_error(argv[0], "--mode must be threads or procs", kUsageError);
  }
  if (opt.chaos != "crash" && opt.chaos != "full") {
    flags.usage_error(argv[0], "--chaos must be crash or full", kUsageError);
  }
  return opt;
}

/// A seeded plan whose windows all close before the quiescence tail.
std::optional<cfds::fault::FaultPlan> make_plan(const SoakOptions& opt) {
  if (opt.no_faults) return std::nullopt;
  const std::uint64_t reserved = opt.config.warmup_epochs + opt.quiesce_epochs;
  if (opt.config.epochs <= reserved + 1) {
    std::cerr << "soak: too few epochs for a fault phase, running fault-free\n";
    return std::nullopt;
  }
  cfds::fault::ChaosProfile profile;
  profile.node_count = opt.config.node_count;
  // Jam placement over the directory grid's extent.
  const cfds::Vec2 far = cfds::service::directory_position(
      NodeId{opt.config.node_count - 1}, opt.config.node_count);
  profile.width = far.x + cfds::service::kGridPitch;
  profile.height = far.y + cfds::service::kGridPitch;
  profile.range = 4 * cfds::service::kGridPitch;
  profile.epoch_interval = opt.config.phi;
  profile.fault_epochs = opt.config.epochs - reserved;
  // Scale the event mix with deployment size. The default "crash" mix is
  // the deployment's real failure modes — process crashes/recoveries and
  // clock drift, on top of --loss-p receive loss. "full" adds the radio
  // conditions (freezes, link cuts, jam disks); those partition the single
  // broadcast domain the directory clustering assumes, so they are suited
  // to small deployments and robustness probing, not the invariant gate.
  const int scale = int(opt.config.node_count / 16) + 1;
  profile.crashes = 3 * scale;
  profile.freezes = opt.chaos == "full" ? 2 * scale : 0;
  profile.link_downs = opt.chaos == "full" ? 2 * scale : 0;
  profile.jams = opt.chaos == "full" ? 1 : 0;
  profile.clock_drifts = scale;
  return cfds::fault::FaultPlan::random(opt.config.seed, profile);
}

/// Deployment-wide detection latency: for each planned crash victim, the
/// minimum latency sample over every endpoint that rendered a verdict (the
/// first decider's sample is the deployment's detection time). Sorted
/// ascending for the quantile cuts.
std::vector<std::uint32_t> merge_detect_ms(
    const std::vector<Snapshot>& statuses) {
  std::map<std::uint32_t, std::uint32_t> best;
  for (const Snapshot& s : statuses) {
    const std::size_t n = std::min(s.detect_node.size(), s.detect_ms.size());
    for (std::size_t i = 0; i < n; ++i) {
      const auto [it, inserted] =
          best.emplace(s.detect_node[i], s.detect_ms[i]);
      if (!inserted && s.detect_ms[i] < it->second) {
        it->second = s.detect_ms[i];
      }
    }
  }
  std::vector<std::uint32_t> samples;
  samples.reserve(best.size());
  for (const auto& [victim, ms] : best) samples.push_back(ms);
  std::sort(samples.begin(), samples.end());
  return samples;
}

int report(const std::vector<Snapshot>& statuses, std::size_t expected) {
  std::size_t alive = 0, heads = 0;
  for (const Snapshot& s : statuses) {
    if (s.alive) ++alive;
    if (s.alive && s.is_clusterhead) ++heads;
  }
  std::cout << "soak: " << statuses.size() << "/" << expected
            << " statuses, " << alive << " alive, " << heads
            << " acting clusterheads\n";
  const std::vector<std::uint32_t> detect = merge_detect_ms(statuses);
  if (!detect.empty()) {
    auto quantile = [&detect](double q) {
      const std::size_t at = std::size_t(q * double(detect.size() - 1) + 0.5);
      return detect[std::min(at, detect.size() - 1)];
    };
    std::cout << "soak: detection latency over " << detect.size()
              << " victim(s): p50 " << quantile(0.5) << " ms, p95 "
              << quantile(0.95) << " ms, max " << detect.back() << " ms\n";
  }
  int rc = 0;
  if (statuses.size() != expected) {
    std::cout << "soak: FAIL missing statuses\n";
    rc = 1;
  }
  const std::vector<cfds::InvariantViolation> violations =
      cfds::check_invariants(
          statuses, [](const Snapshot&, const Snapshot&) { return true; });
  for (const cfds::InvariantViolation& v : violations) {
    std::cout << "soak: VIOLATION " << v.invariant << ": " << v.detail << "\n";
  }
  if (!violations.empty()) {
    rc = 1;
    // Post-mortem context: every acting head's roster and every stray
    // (alive, unaffiliated, not departed) endpoint's state, so a violation
    // is debuggable from the log alone.
    for (const Snapshot& s : statuses) {
      if (!s.alive || !s.is_clusterhead) continue;
      std::cout << "soak:   head " << s.node << " cluster " << s.cluster
                << " epoch " << s.epoch << " members";
      for (std::uint32_t m : s.members) std::cout << ' ' << m;
      std::cout << " | subscribers";
      for (std::uint32_t sub : s.subscribers) std::cout << ' ' << sub;
      std::cout << "\n";
    }
    for (const Snapshot& s : statuses) {
      if (!s.alive || s.is_clusterhead || s.affiliated || s.left) continue;
      std::cout << "soak:   stray " << s.node << " epoch " << s.epoch
                << " marked " << (s.marked ? 1 : 0) << " overheard "
                << s.updates_overheard << " offers " << s.admit_offers
                << " last_offer " << s.last_offer_epoch << " hb_sent "
                << s.hb_sent << " unmarked_sent " << s.unmarked_sent
                << " last_unmarked " << s.last_unmarked_epoch << "\n";
    }
    // Every endpoint's own detection verdicts, so a latency outlier or a
    // missing detection is attributable to a specific decider.
    for (const Snapshot& s : statuses) {
      if (s.detect_node.empty()) continue;
      std::cout << "soak:   detections by " << s.node;
      const std::size_t n = std::min(s.detect_node.size(), s.detect_ms.size());
      for (std::size_t i = 0; i < n; ++i) {
        std::cout << ' ' << s.detect_node[i] << ':' << s.detect_ms[i] << "ms";
      }
      std::cout << "\n";
    }
    // Everyone who churned near the end of the run, with the per-cause
    // revert counters (missed/fresh/stale/roster/rival — see
    // FdsAgent::RevertCause) and the newest revert's epoch and cause.
    for (const Snapshot& s : statuses) {
      if (!s.alive || s.reverts.empty()) continue;
      if (s.last_revert_epoch + 15 < s.epoch) continue;
      std::cout << "soak:   churn " << s.node << " reverts";
      for (std::uint32_t count : s.reverts) std::cout << ' ' << count;
      std::cout << " last_revert " << s.last_revert_epoch << " cause "
                << s.last_revert_cause << "\n";
    }
  }
  if (rc == 0) std::cout << "soak: PASS invariants I1-I5, I-V1/6/7 hold\n";
  return rc;
}

int run_threads(const SoakOptions& opt,
                const std::optional<cfds::fault::FaultPlan>& plan) {
  const std::uint32_t n = opt.config.node_count;
  std::vector<NodeId> ids;
  ids.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) ids.push_back(NodeId{i});
  cfds::LoopbackNet net(ids);

  // Construct every endpoint before any thread starts: schedulers anchor
  // their SimTime axes within microseconds of each other, far inside Thop.
  struct Endpoint {
    cfds::RealTimeScheduler scheduler;
    cfds::LoopbackTransport transport;
    cfds::service::ServiceAgent agent;
    Endpoint(cfds::LoopbackNet& net, NodeId id, const ServiceConfig& config)
        : transport(net, id), agent(config, id, transport, scheduler) {}
  };
  std::vector<std::unique_ptr<Endpoint>> endpoints;
  endpoints.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    endpoints.push_back(
        std::make_unique<Endpoint>(net, NodeId{i}, opt.config));
    endpoints.back()->agent.start(SimTime::millis(300),
                                  plan ? &*plan : nullptr);
  }

  const SimTime max_wait = SimTime::millis(100);
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (auto& ep_ptr : endpoints) {
    threads.emplace_back([&max_wait, ep = ep_ptr.get()] {
      while (!ep->agent.done()) {
        SimTime deadline;
        SimTime wait = max_wait;
        if (ep->scheduler.next_deadline(&deadline)) {
          wait = deadline - ep->scheduler.now();
          if (wait > max_wait) wait = max_wait;
        }
        if (wait > SimTime::zero()) ep->transport.wait(wait);
        ep->transport.drain(ep->scheduler.now());
        ep->scheduler.run_due();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::vector<Snapshot> statuses;
  statuses.reserve(n);
  for (auto& ep : endpoints) statuses.push_back(ep->agent.status());
  return report(statuses, n);
}

int run_procs(const SoakOptions& opt,
              const std::optional<cfds::fault::FaultPlan>& plan,
              const char* argv0) {
  const std::uint32_t n = opt.config.node_count;
  std::string serve = opt.serve_bin;
  if (serve.empty()) {
    const std::string self = argv0;
    const std::size_t slash = self.rfind('/');
    serve = (slash == std::string::npos ? std::string(".")
                                        : self.substr(0, slash)) +
            "/cfds_serve";
  }

  std::string plan_path;
  if (plan) {
    plan_path = opt.out_dir + "/soak_plan." + std::to_string(::getpid()) +
                ".jsonl";
    std::ofstream out(plan_path, std::ios::trunc);
    if (!out) {
      std::cerr << "soak: cannot write " << plan_path << "\n";
      return 70;
    }
    out << plan->to_jsonl();
  }

  // Shared anchor: enough lead for every fork+exec to finish first.
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  const std::int64_t anchor_us =
      std::chrono::duration_cast<std::chrono::microseconds>(now).count() +
      2'000'000 + std::int64_t(n) * 5'000;

  auto status_path = [&opt](std::uint32_t id) {
    return opt.out_dir + "/soak_status." + std::to_string(::getpid()) + "." +
           std::to_string(id) + ".jsonl";
  };

  const std::vector<std::string> service_args =
      cfds::service::service_argv(opt.config, opt.port_base);
  std::vector<pid_t> pids;
  pids.reserve(n);
  for (std::uint32_t id = 0; id < n; ++id) {
    std::vector<std::string> args = {
        serve, "--id", std::to_string(id), "--anchor-us",
        std::to_string(anchor_us), "--status-out", status_path(id)};
    args.insert(args.end(), service_args.begin(), service_args.end());
    if (!plan_path.empty()) {
      args.push_back("--fault-plan");
      args.push_back(plan_path);
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) {
      std::cerr << "soak: fork failed\n";
      return 70;
    }
    if (pid == 0) {
      ::execv(serve.c_str(), argv.data());
      std::cerr << "soak: exec " << serve << " failed\n";
      std::_Exit(127);
    }
    pids.push_back(pid);
  }
  std::cout << "soak: " << n << " cfds_serve processes launched ("
            << opt.config.epochs << " epochs of "
            << opt.config.phi.as_micros() / 1000 << " ms)\n";

  int rc = 0;
  std::size_t clean_exits = 0;
  for (const pid_t pid : pids) {
    int status = 0;
    if (::waitpid(pid, &status, 0) < 0) {
      rc = 1;
      continue;
    }
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
      ++clean_exits;
    } else {
      rc = 1;
    }
  }
  if (clean_exits != pids.size()) {
    std::cout << "soak: FAIL " << (pids.size() - clean_exits)
              << " endpoints exited non-zero\n";
  }

  std::vector<Snapshot> statuses;
  statuses.reserve(n);
  for (std::uint32_t id = 0; id < n; ++id) {
    std::ifstream in(status_path(id));
    std::string line;
    if (in && std::getline(in, line)) {
      if (auto parsed = Snapshot::parse(line)) {
        statuses.push_back(*parsed);
      } else {
        std::cout << "soak: unparseable status from endpoint " << id << "\n";
      }
    }
    (void)::unlink(status_path(id).c_str());
  }
  if (!plan_path.empty()) (void)::unlink(plan_path.c_str());

  const int inv_rc = report(statuses, n);
  return rc != 0 ? rc : inv_rc;
}

}  // namespace

int main(int argc, char** argv) {
  const SoakOptions opt = parse_args(argc, argv);
  const std::optional<cfds::fault::FaultPlan> plan = make_plan(opt);
  if (plan) {
    std::cout << "soak: fault plan (seed " << opt.config.seed << "): "
              << plan->events.size() << " events\n";
  }
  if (opt.mode == "threads") return run_threads(opt, plan);
  return run_procs(opt, plan, argv[0]);
}
