#include "check/trace.h"

#include <fstream>
#include <sstream>

#include "common/jsonl.h"
#include "fault/fault_plan.h"

namespace cfds::check {

namespace {

using jsonl::append;
using jsonl::append_escaped;
using jsonl::find_i64;
using jsonl::find_string;
using jsonl::find_u32;
using jsonl::find_u64;

std::optional<ChoiceKind> kind_from(const std::string& name) {
  for (ChoiceKind k :
       {ChoiceKind::kFault, ChoiceKind::kDrop, ChoiceKind::kOrder}) {
    if (name == choice_kind_name(k)) return k;
  }
  return std::nullopt;
}

}  // namespace

std::string fault_plan_jsonl(const CheckTrace& trace) {
  fault::FaultPlan plan;
  for (const FaultEvent& e : trace.fault_events) {
    fault::FaultEvent event;
    event.kind =
        e.recover ? fault::FaultKind::kRecover : fault::FaultKind::kCrash;
    event.node = e.node.value();
    event.at_us = e.at_us;
    plan.events.push_back(event);
  }
  return plan.to_jsonl();
}

std::string to_jsonl(const CheckTrace& trace) {
  const CheckOptions& o = trace.options;
  std::string out;
  append(out,
         "{\"cfds_check\":1,\"nodes\":%u,\"deputies\":%u,\"epochs\":%llu,"
         "\"crashes\":%u,\"recoveries\":%u,\"drops\":%u,\"perm_max\":%u,"
         "\"adaptive\":%d,\"checkpoint\":%d,\"checkpoint_interval\":%u,"
         "\"reduction\":%d,\"quiesce_max\":%u,\"t_hop_us\":%lld,"
         "\"mutation\":\"",
         o.nodes, o.deputies, static_cast<unsigned long long>(o.epochs),
         o.max_crashes, o.max_recoveries, o.max_drops, o.perm_max,
         o.adaptive ? 1 : 0, o.checkpoint ? 1 : 0, o.checkpoint_interval,
         o.reduction ? 1 : 0, o.quiesce_max,
         static_cast<long long>(o.t_hop.as_micros()));
  append_escaped(out, trace.mutation);
  out += "\"}\n";
  for (const ChoiceRec& c : trace.choices) {
    append(out,
           "{\"choice\":{\"kind\":\"%s\",\"count\":%u,\"chosen\":%u,"
           "\"a\":%llu,\"b\":%llu}}\n",
           choice_kind_name(c.kind), c.count, c.chosen,
           static_cast<unsigned long long>(c.a),
           static_cast<unsigned long long>(c.b));
  }
  if (trace.violation) {
    const Violation& v = *trace.violation;
    out += "{\"violation\":{\"invariant\":\"";
    append_escaped(out, v.invariant);
    append(out, "\",\"epoch\":%llu,\"barrier\":%u,\"detail\":\"",
           static_cast<unsigned long long>(v.epoch), v.barrier);
    append_escaped(out, v.detail);
    out += "\"}}\n";
  }
  out += fault_plan_jsonl(trace);
  return out;
}

std::optional<CheckTrace> parse_jsonl(const std::string& text,
                                      std::string* error) {
  CheckTrace trace;
  bool saw_header = false;
  std::istringstream lines(text);
  std::string line;
  std::size_t line_no = 0;
  std::size_t next = 0;  // offset of the line after `line`
  auto fail = [&](const std::string& why) -> std::optional<CheckTrace> {
    if (error) *error = "trace line " + std::to_string(line_no) + ": " + why;
    return std::nullopt;
  };
  while (std::getline(lines, line)) {
    const std::size_t at = next;
    next += line.size() + 1;
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    if (line.find("\"cfds_check\"") != std::string::npos) {
      CheckOptions& o = trace.options;
      std::uint32_t adaptive = 0;
      std::uint32_t checkpoint = 0;
      std::uint32_t reduction = 1;
      std::int64_t t_hop_us = 0;
      if (!find_u32(line, "nodes", &o.nodes) ||
          !find_u32(line, "deputies", &o.deputies) ||
          !find_u64(line, "epochs", &o.epochs) ||
          !find_u32(line, "crashes", &o.max_crashes) ||
          !find_u32(line, "recoveries", &o.max_recoveries) ||
          !find_u32(line, "drops", &o.max_drops) ||
          !find_u32(line, "perm_max", &o.perm_max) ||
          !find_u32(line, "adaptive", &adaptive) ||
          !find_u32(line, "checkpoint", &checkpoint) ||
          !find_u32(line, "checkpoint_interval", &o.checkpoint_interval) ||
          !find_u32(line, "reduction", &reduction) ||
          !find_u32(line, "quiesce_max", &o.quiesce_max) ||
          !find_i64(line, "t_hop_us", &t_hop_us)) {
        return fail("malformed cfds_check header");
      }
      if (t_hop_us <= 0) return fail("t_hop_us must be positive");
      o.adaptive = adaptive != 0;
      o.checkpoint = checkpoint != 0;
      o.reduction = reduction != 0;
      o.t_hop = SimTime::micros(t_hop_us);
      (void)find_string(line, "mutation", &trace.mutation);
      saw_header = true;
      continue;
    }
    if (line.find("\"choice\"") != std::string::npos) {
      std::string kind_name;
      ChoiceRec rec;
      if (!find_string(line, "kind", &kind_name) ||
          !find_u32(line, "count", &rec.count) ||
          !find_u32(line, "chosen", &rec.chosen) ||
          !find_u64(line, "a", &rec.a) || !find_u64(line, "b", &rec.b)) {
        return fail("malformed choice record");
      }
      const auto kind = kind_from(kind_name);
      if (!kind) return fail("unknown choice kind '" + kind_name + "'");
      if (rec.count < 2) return fail("choice count must be >= 2");
      if (rec.chosen >= rec.count) return fail("chosen out of range");
      rec.kind = *kind;
      trace.choices.push_back(rec);
      continue;
    }
    if (line.find("\"violation\"") != std::string::npos) {
      Violation v;
      if (!find_string(line, "invariant", &v.invariant) ||
          !find_u64(line, "epoch", &v.epoch) ||
          !find_u32(line, "barrier", &v.barrier)) {
        return fail("malformed violation record");
      }
      (void)find_string(line, "detail", &v.detail);
      trace.violation = std::move(v);
      continue;
    }
    if (line.find("\"fault_plan\"") != std::string::npos ||
        line.find("\"fault\"") != std::string::npos) {
      // The rest of the trace is the fault tail: FaultPlan JSONL, read by
      // the FaultPlan parser (its line numbers count from this line).
      std::string plan_error;
      const auto plan = fault::FaultPlan::parse_jsonl(text.substr(at),
                                                      &plan_error);
      if (!plan) return fail(plan_error);
      for (const fault::FaultEvent& e : plan->events) {
        if (e.kind != fault::FaultKind::kCrash &&
            e.kind != fault::FaultKind::kRecover) {
          return fail("trace fault kind must be crash or recover");
        }
        trace.fault_events.push_back(
            {e.kind == fault::FaultKind::kRecover, NodeId{e.node}, e.at_us});
      }
      break;
    }
    return fail("unrecognized trace line");
  }
  if (!saw_header) {
    ++line_no;
    return fail("missing cfds_check header");
  }
  return trace;
}

std::optional<CheckTrace> load_trace(const std::string& path,
                                     std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot open trace file: " + path;
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_jsonl(buffer.str(), error);
}

}  // namespace cfds::check
