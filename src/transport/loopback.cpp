#include "transport/loopback.h"

#include <chrono>
#include <utility>

#include "common/expect.h"
#include "transport/reception.h"
#include "transport/wire.h"

namespace cfds {

LoopbackNet::LoopbackNet(const std::vector<NodeId>& ids) {
  endpoints_.reserve(ids.size());
  for (NodeId id : ids) {
    endpoints_.push_back(std::make_unique<Endpoint>());
    endpoints_.back()->id = id;
  }
}

LoopbackNet::Endpoint* LoopbackNet::endpoint(NodeId id) {
  for (auto& ep : endpoints_) {
    if (ep->id == id) return ep.get();
  }
  return nullptr;
}

LoopbackTransport::LoopbackTransport(LoopbackNet& net, NodeId self)
    : net_(net), self_(*net.endpoint(self)) {}

void LoopbackTransport::send(PayloadPtr payload, NodeId intended) {
  {
    std::lock_guard<std::mutex> lock(self_.mu);
    if (!self_.powered) return;  // a dark radio emits nothing
  }
  scratch_.clear();
  if (!wire::encode_frame(self_.id, intended, *payload, &scratch_)) return;
  // Broadcast medium: every other endpoint hears the frame (receivers
  // filter by intent/role themselves, exactly like the simulated channel).
  for (auto& ep : net_.endpoints_) {
    if (ep->id == self_.id) continue;
    bool was_empty = false;
    {
      std::lock_guard<std::mutex> lock(ep->mu);
      if (!ep->powered) continue;
      was_empty = ep->inbox.empty();
      ep->inbox.push_back(scratch_);
    }
    if (was_empty) ep->cv.notify_one();
  }
}

void LoopbackTransport::add_frame_handler(RawFrameHandler handler, void* ctx) {
  CFDS_EXPECT(handler_count_ < kMaxHandlers, "loopback handler table full");
  handlers_[handler_count_++] = Handler{handler, ctx};
}

void LoopbackTransport::set_powered(bool on) {
  std::lock_guard<std::mutex> lock(self_.mu);
  self_.powered = on;
  // Frames queued while the radio was on but not yet drained were never
  // actually received; powering down loses them, like a real radio.
  if (!on) self_.inbox.clear();
}

bool LoopbackTransport::powered() const {
  std::lock_guard<std::mutex> lock(self_.mu);
  return self_.powered;
}

bool LoopbackTransport::wait(SimTime max_wait) {
  std::unique_lock<std::mutex> lock(self_.mu);
  if (!self_.inbox.empty()) return true;
  if (max_wait <= SimTime::zero()) return false;
  self_.cv.wait_for(lock, std::chrono::microseconds(max_wait.as_micros()),
                    [this] { return !self_.inbox.empty(); });
  return !self_.inbox.empty();
}

std::size_t LoopbackTransport::drain(SimTime now) {
  pending_.clear();
  {
    std::lock_guard<std::mutex> lock(self_.mu);
    if (!self_.powered) {
      self_.inbox.clear();
      return 0;
    }
    while (!self_.inbox.empty()) {
      pending_.push_back(std::move(self_.inbox.front()));
      self_.inbox.pop_front();
    }
  }
  std::size_t dispatched = 0;
  for (const auto& bytes : pending_) {
    wire::DecodedFrame frame;
    if (!wire::decode_frame(bytes.data(), bytes.size(), &frame)) continue;
    Reception reception;
    reception.sender = frame.sender;
    reception.intended = frame.intended;
    reception.payload = std::move(frame.payload);
    reception.sent_at = now;
    for (std::size_t i = 0; i < handler_count_; ++i) {
      handlers_[i].fn(handlers_[i].ctx, reception);
    }
    ++dispatched;
  }
  return dispatched;
}

}  // namespace cfds
