#include "net/node.h"

#include <algorithm>

namespace cfds {

Node::Node(NodeStore& store, NodeId id, Vec2 position)
    : store_(&store),
      slot_(store.add(position)),
      radio_(store, slot_, id) {
  radio_.set_receive_handler(
      [](void* self, const Reception& reception) {
        static_cast<Node*>(self)->dispatch(reception);
      },
      this);
}

void Node::add_frame_handler(RawFrameHandler handler, void* ctx) {
  if (handler_count_ < kInlineHandlers) {
    inline_handlers_[handler_count_] = HandlerRef{handler, ctx};
  } else {
    overflow_handlers_.push_back(HandlerRef{handler, ctx});
  }
  ++handler_count_;
}

void Node::add_lifecycle_handler(LifecycleHandler handler) {
  lifecycle_handlers_.push_back(std::move(handler));
}

void Node::crash() {
  if (!alive()) return;
  store_->set_alive(slot_, false);
  radio_.set_powered(false);
  for (const auto& handler : lifecycle_handlers_) handler(false);
}

void Node::recover() {
  if (alive()) return;
  store_->set_alive(slot_, true);
#ifndef CFDS_MUTATION_SKIP_INCARNATION_BUMP
  store_->bump_incarnation(slot_);
#endif
  radio_.set_powered(true);
  for (const auto& handler : lifecycle_handlers_) handler(true);
}

double Node::remaining_energy_uj() const {
  return std::max(0.0,
                  initial_energy_uj() - energy_spent_uj(radio_.counters()));
}

void Node::dispatch(const Reception& reception) {
  if (!alive()) return;
  const std::uint32_t inline_count =
      std::min<std::uint32_t>(handler_count_, kInlineHandlers);
  for (std::uint32_t i = 0; i < inline_count; ++i) {
    inline_handlers_[i].fn(inline_handlers_[i].ctx, reception);
  }
  for (const HandlerRef& handler : overflow_handlers_) {
    handler.fn(handler.ctx, reception);
  }
}

}  // namespace cfds
