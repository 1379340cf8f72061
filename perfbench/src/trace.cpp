#include "trace.h"

#include <cstdio>

#include "clock.h"
#include "transport/reception.h"

namespace perfbench {

std::int64_t FrameTotals::total_ns() const {
  std::int64_t sum = 0;
  for (std::int64_t v : ns) sum += v;
  return sum;
}

Trace::Trace() { spans_.reserve(std::size_t{1} << 16); }

std::int32_t Trace::open(const char* name, std::int32_t parent) {
  spans_.push_back(Span{name, mono_ns(), 0, parent});
  return std::int32_t(spans_.size() - 1);
}

void Trace::close(std::int32_t span) {
  spans_[std::size_t(span)].end_ns = mono_ns();
}

void Trace::install_frame_start(cfds::Node& node) {
  node.add_frame_handler(&Trace::on_frame_start, this);
}

void Trace::next_frame_end_stage() {
  end_stages_.push_back(
      std::make_unique<EndStage>(EndStage{this, end_stages_.size()}));
}

void Trace::install_frame_end(cfds::Node& node) {
  node.add_frame_handler(&Trace::on_frame_end, end_stages_.back().get());
}

void Trace::on_frame_start(void* ctx, const cfds::Reception&) {
  static_cast<Trace*>(ctx)->frame_start_ns_ = mono_ns();
}

void Trace::on_frame_end(void* ctx, const cfds::Reception& reception) {
  const auto* stage = static_cast<const EndStage*>(ctx);
  Trace* self = stage->trace;
  // A later stage's end handler runs after this one and times the frame.
  if (stage->index + 1 != self->end_stages_.size()) return;
  const std::int64_t end = mono_ns();
  const auto kind = std::size_t(reception.payload->tag());
  self->frames_.frames[kind]++;
  self->frames_.ns[kind] += end - self->frame_start_ns_;
  if (self->frames_seen_++ % kFrameSampleEvery == 0 &&
      self->spans_.size() < self->spans_.capacity()) {
    self->spans_.push_back(Span{kind_name(reception.payload->tag()),
                                self->frame_start_ns_, end,
                                self->frame_parent_});
  }
}

void Trace::count_air(const cfds::Payload& payload) {
  const auto kind = std::size_t(payload.tag());
  air_.bytes[kind] += payload.size_bytes();
}

bool Trace::write_json(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d}%s\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

const char* kind_name(cfds::PayloadKind kind) {
  using cfds::PayloadKind;
  switch (kind) {
    case PayloadKind::kHeartbeat: return "heartbeat";
    case PayloadKind::kLeaveNotice: return "leave_notice";
    case PayloadKind::kSleepNotice: return "sleep_notice";
    case PayloadKind::kDigest: return "digest";
    case PayloadKind::kHealthUpdate: return "health_update";
    case PayloadKind::kUpdateRequest: return "update_request";
    case PayloadKind::kUpdateForward: return "update_forward";
    case PayloadKind::kUpdateAck: return "update_ack";
    case PayloadKind::kProbe: return "probe";
    case PayloadKind::kChClaim: return "ch_claim";
    case PayloadKind::kJoin: return "join";
    case PayloadKind::kAnnounce: return "announce";
    case PayloadKind::kGatewayCandidacy: return "gateway_candidacy";
    case PayloadKind::kGatewayAssignment: return "gateway_assignment";
    case PayloadKind::kMeasurement: return "measurement";
    case PayloadKind::kClusterAggregate: return "cluster_aggregate";
    case PayloadKind::kFailureReport: return "failure_report";
    case PayloadKind::kExplicitAck: return "explicit_ack";
    case PayloadKind::kFlood: return "flood";
    case PayloadKind::kGossip: return "gossip";
    case PayloadKind::kSwimPing: return "swim_ping";
    case PayloadKind::kSwimAck: return "swim_ack";
    case PayloadKind::kSwimPingReq: return "swim_ping_req";
    case PayloadKind::kCheckpoint: return "checkpoint";
    case PayloadKind::kTest: return "test";
  }
  return "unknown";
}

}  // namespace perfbench
