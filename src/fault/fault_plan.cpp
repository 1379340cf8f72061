#include "fault/fault_plan.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/expect.h"
#include "common/flat.h"
#include "common/jsonl.h"

namespace cfds::fault {

using jsonl::append;
using jsonl::find_i64;
using jsonl::find_number;
using jsonl::find_string;
using jsonl::find_u32;
using jsonl::find_u64;

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash: return "crash";
    case FaultKind::kRecover: return "recover";
    case FaultKind::kFreeze: return "freeze";
    case FaultKind::kLinkDown: return "link_down";
    case FaultKind::kJam: return "jam";
    case FaultKind::kClockDrift: return "clock_drift";
    case FaultKind::kLoss: return "loss";
  }
  return "?";
}

namespace {

[[nodiscard]] std::optional<FaultKind> kind_from(const std::string& name) {
  for (FaultKind k : {FaultKind::kCrash, FaultKind::kRecover,
                      FaultKind::kFreeze, FaultKind::kLinkDown,
                      FaultKind::kJam, FaultKind::kClockDrift,
                      FaultKind::kLoss}) {
    if (name == to_string(k)) return k;
  }
  return std::nullopt;
}

}  // namespace

std::string FaultPlan::to_jsonl() const {
  std::string out;
  append(out, "{\"fault_plan\":1,\"seed\":%llu,\"events\":%zu}\n",
         static_cast<unsigned long long>(seed), events.size());
  for (const FaultEvent& e : events) {
    append(out, "{\"fault\":\"%s\"", to_string(e.kind));
    switch (e.kind) {
      case FaultKind::kCrash:
      case FaultKind::kRecover:
        append(out, ",\"node\":%u,\"at_us\":%lld", e.node,
               static_cast<long long>(e.at_us));
        break;
      case FaultKind::kFreeze:
        append(out, ",\"node\":%u,\"at_us\":%lld,\"duration_us\":%lld",
               e.node, static_cast<long long>(e.at_us),
               static_cast<long long>(e.duration_us));
        break;
      case FaultKind::kLinkDown:
        append(out,
               ",\"node\":%u,\"peer\":%u,\"at_us\":%lld,\"duration_us\":%lld",
               e.node, e.peer, static_cast<long long>(e.at_us),
               static_cast<long long>(e.duration_us));
        break;
      case FaultKind::kJam:
        append(out,
               ",\"x\":%.17g,\"y\":%.17g,\"radius\":%.17g,\"at_us\":%lld,"
               "\"duration_us\":%lld",
               e.x, e.y, e.radius, static_cast<long long>(e.at_us),
               static_cast<long long>(e.duration_us));
        break;
      case FaultKind::kClockDrift:
        append(out,
               ",\"node\":%u,\"start_epoch\":%llu,\"end_epoch\":%llu,"
               "\"per_epoch_us\":%lld",
               e.node, static_cast<unsigned long long>(e.start_epoch),
               static_cast<unsigned long long>(e.end_epoch),
               static_cast<long long>(e.per_epoch_us));
        break;
      case FaultKind::kLoss:
        append(out, ",\"x\":%.17g,\"at_us\":%lld,\"duration_us\":%lld", e.x,
               static_cast<long long>(e.at_us),
               static_cast<long long>(e.duration_us));
        break;
    }
    out += "}\n";
  }
  return out;
}

std::optional<FaultPlan> FaultPlan::parse_jsonl(const std::string& text,
                                                std::string* error) {
  FaultPlan plan;
  std::istringstream lines(text);
  std::string line;
  std::size_t line_no = 0;
  auto fail = [&](const std::string& why) -> std::optional<FaultPlan> {
    if (error) {
      *error = "fault plan line " + std::to_string(line_no) + ": " + why;
    }
    return std::nullopt;
  };
  while (std::getline(lines, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    if (line.find("\"fault_plan\"") != std::string::npos) {
      (void)find_u64(line, "seed", &plan.seed);
      continue;
    }
    std::string kind_name;
    if (!find_string(line, "fault", &kind_name)) {
      return fail("missing \"fault\" key");
    }
    const auto kind = kind_from(kind_name);
    if (!kind) return fail("unknown fault kind '" + kind_name + "'");
    FaultEvent e;
    e.kind = *kind;
    switch (e.kind) {
      case FaultKind::kCrash:
      case FaultKind::kRecover:
        if (!find_u32(line, "node", &e.node) ||
            !find_i64(line, "at_us", &e.at_us)) {
          return fail("crash/recover needs node, at_us");
        }
        break;
      case FaultKind::kFreeze:
        if (!find_u32(line, "node", &e.node) ||
            !find_i64(line, "at_us", &e.at_us) ||
            !find_i64(line, "duration_us", &e.duration_us)) {
          return fail("freeze needs node, at_us, duration_us");
        }
        break;
      case FaultKind::kLinkDown:
        if (!find_u32(line, "node", &e.node) ||
            !find_u32(line, "peer", &e.peer) ||
            !find_i64(line, "at_us", &e.at_us) ||
            !find_i64(line, "duration_us", &e.duration_us)) {
          return fail("link_down needs node, peer, at_us, duration_us");
        }
        break;
      case FaultKind::kJam:
        if (!find_number(line, "x", &e.x) || !find_number(line, "y", &e.y) ||
            !find_number(line, "radius", &e.radius) ||
            !find_i64(line, "at_us", &e.at_us) ||
            !find_i64(line, "duration_us", &e.duration_us)) {
          return fail("jam needs x, y, radius, at_us, duration_us");
        }
        break;
      case FaultKind::kClockDrift:
        if (!find_u32(line, "node", &e.node) ||
            !find_u64(line, "start_epoch", &e.start_epoch) ||
            !find_u64(line, "end_epoch", &e.end_epoch) ||
            !find_i64(line, "per_epoch_us", &e.per_epoch_us)) {
          return fail(
              "clock_drift needs node, start_epoch, end_epoch, per_epoch_us");
        }
        break;
      case FaultKind::kLoss:
        if (!find_number(line, "x", &e.x) ||
            !find_i64(line, "at_us", &e.at_us) ||
            !find_i64(line, "duration_us", &e.duration_us)) {
          return fail("loss needs x, at_us, duration_us");
        }
        break;
    }
    plan.events.push_back(e);
  }
  return plan;
}

std::optional<FaultPlan> FaultPlan::load(const std::string& path,
                                         std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot open fault plan file: " + path;
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_jsonl(buffer.str(), error);
}

FaultPlan FaultPlan::random(std::uint64_t seed, const ChaosProfile& profile) {
  CFDS_EXPECT(profile.node_count > 0, "chaos profile needs nodes");
  CFDS_EXPECT(profile.fault_epochs >= 2, "fault horizon too short");
  Rng rng(seed ^ 0xFA017);
  FaultPlan plan;
  plan.seed = seed;
  const std::int64_t phi = profile.epoch_interval.as_micros();
  const std::int64_t horizon =
      std::int64_t(profile.fault_epochs) * phi;

  // Crash/freeze/drift targets are kept distinct so each node experiences at
  // most one node-level fault per plan — overlapping faults on one node are
  // legal for the injector but make plans needlessly hard to reason about.
  FlatSet<std::uint32_t> used;
  auto fresh_node = [&]() -> std::uint32_t {
    if (used.size() >= profile.node_count) {
      return std::uint32_t(rng.below(profile.node_count));
    }
    for (;;) {
      const auto n = std::uint32_t(rng.below(profile.node_count));
      if (used.insert(n)) return n;
    }
  };

  for (int i = 0; i < profile.crashes; ++i) {
    FaultEvent crash;
    crash.kind = FaultKind::kCrash;
    crash.node = fresh_node();
    crash.at_us = std::int64_t(rng.below(std::uint64_t(horizon / 2)));
    plan.events.push_back(crash);
    if (rng.bernoulli(0.6)) {
      // Crash-recovery: the node comes back at least one epoch before the
      // horizon so re-affiliation completes inside the fault phase's tail
      // plus quiescence.
      FaultEvent rec;
      rec.kind = FaultKind::kRecover;
      rec.node = crash.node;
      const std::int64_t lo = crash.at_us + phi / 2;
      const std::int64_t hi = horizon - phi;
      rec.at_us = hi > lo ? lo + std::int64_t(rng.below(std::uint64_t(hi - lo)))
                          : lo;
      plan.events.push_back(rec);
    }
  }

  for (int i = 0; i < profile.freezes; ++i) {
    FaultEvent e;
    e.kind = FaultKind::kFreeze;
    e.node = fresh_node();
    e.at_us = std::int64_t(rng.below(std::uint64_t(horizon / 2)));
    // 1-3 epochs of silence, window closed before the horizon.
    e.duration_us = phi + std::int64_t(rng.below(std::uint64_t(2 * phi)));
    e.duration_us = std::min(e.duration_us, horizon - e.at_us);
    plan.events.push_back(e);
  }

  for (int i = 0; i < profile.link_downs; ++i) {
    FaultEvent e;
    e.kind = FaultKind::kLinkDown;
    e.node = std::uint32_t(rng.below(profile.node_count));
    do {
      e.peer = std::uint32_t(rng.below(profile.node_count));
    } while (e.peer == e.node);
    e.at_us = std::int64_t(rng.below(std::uint64_t(horizon / 2)));
    e.duration_us =
        std::min(phi + std::int64_t(rng.below(std::uint64_t(2 * phi))),
                 horizon - e.at_us);
    plan.events.push_back(e);
  }

  for (int i = 0; i < profile.jams; ++i) {
    FaultEvent e;
    e.kind = FaultKind::kJam;
    e.x = rng.uniform(0.0, profile.width);
    e.y = rng.uniform(0.0, profile.height);
    e.radius = rng.uniform(0.6, 1.2) * profile.range;
    e.at_us = std::int64_t(rng.below(std::uint64_t(horizon / 2)));
    e.duration_us =
        std::min(phi + std::int64_t(rng.below(std::uint64_t(phi))),
                 horizon - e.at_us);
    plan.events.push_back(e);
  }

  for (int i = 0; i < profile.clock_drifts; ++i) {
    FaultEvent e;
    e.kind = FaultKind::kClockDrift;
    e.node = fresh_node();
    e.start_epoch = rng.below(profile.fault_epochs / 2 + 1);
    e.end_epoch = std::min(e.start_epoch + 1 + rng.below(3),
                           profile.fault_epochs);
    // Up to 20 ms of extra skew per epoch: well under Thop in total, enough
    // to push rounds measurably out of alignment.
    e.per_epoch_us = 2000 + std::int64_t(rng.below(18000));
    plan.events.push_back(e);
  }

  // Loss bursts draw LAST: a profile with loss_bursts == 0 (the default)
  // makes exactly the draws older profiles made, so pre-existing seeds keep
  // producing byte-identical plans.
  for (int i = 0; i < profile.loss_bursts; ++i) {
    FaultEvent e;
    e.kind = FaultKind::kLoss;
    // Heavy interference: 30-80% frame loss for 1-3 epochs.
    e.x = rng.uniform(0.3, 0.8);
    e.at_us = std::int64_t(rng.below(std::uint64_t(horizon / 2)));
    e.duration_us =
        std::min(phi + std::int64_t(rng.below(std::uint64_t(2 * phi))),
                 horizon - e.at_us);
    plan.events.push_back(e);
  }

  return plan;
}

}  // namespace cfds::fault
