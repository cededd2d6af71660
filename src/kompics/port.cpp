#include "port.hpp"

#include <algorithm>
#include <stdexcept>

#include "channel.hpp"
#include "component.hpp"
#include "kompics.hpp"
#include "lifecycle.hpp"
#include "telemetry.hpp"

namespace kompics {

namespace {

// Distinct-target accumulator for dispatch: inline storage for the common
// fan-outs so the hot path performs no heap allocation.
class TargetSet {
 public:
  bool insert(ComponentCore* c) {
    for (std::size_t i = 0; i < inline_count_; ++i) {
      if (inline_[i] == c) return false;
    }
    for (ComponentCore* t : overflow_) {
      if (t == c) return false;
    }
    if (inline_count_ < kInline) {
      inline_[inline_count_++] = c;
    } else {
      overflow_.push_back(c);
    }
    return true;
  }

  template <class Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < inline_count_; ++i) fn(inline_[i]);
    for (ComponentCore* t : overflow_) fn(t);
  }

 private:
  static constexpr std::size_t kInline = 8;
  ComponentCore* inline_[kInline];
  std::size_t inline_count_ = 0;
  std::vector<ComponentCore*> overflow_;
};

}  // namespace

PortCore::PortCore(ComponentCore* owner, const PortType* type, Direction polarity, bool inside)
    : owner_(owner),
      type_(type),
      polarity_(polarity),
      inside_(inside),
      // Property of the singleton port type: resolve the RTTI query once
      // here instead of on every dispatch.
      control_(dynamic_cast<const ControlPort*>(type) != nullptr),
      subs_(new SubTable),
      chans_(new ChanTable) {}

PortCore::~PortCore() = default;

void PortCore::trigger(const EventPtr& e) {
  if (e == nullptr) throw std::invalid_argument("trigger: null event");
  const Direction d = opposite(polarity_);
  if (!type_->allows(d, *e)) {
    throw std::logic_error("event type '" + std::string(typeid(*e).name()) +
                           "' not allowed to pass on port '" + type_->name() +
                           "' in the triggered direction (allowed: " +
                           type_->allowed_types(d) + ")");
  }
  // Telemetry touch points, both behind relaxed single-load gates so the
  // disabled path adds only two predicted-untaken branches here.
  telemetry::Telemetry& tel = owner_->runtime()->telemetry();
  if (tel.metrics_enabled()) {
    publish_count_.fetch_add(1, std::memory_order_relaxed);
    tel.events_published().add();
  }
  if (tel.tracing_enabled()) tel.stamp_event(*e);
  // The whole synchronous propagation below (port pair, channels, fan-out
  // dispatch) batches its scheduler hand-off into one flush at scope exit.
  detail::DispatchBatchScope batch;
  pair_->arrive(e, d);
}

void PortCore::arrive(const EventPtr& e, Direction d) {
  if (polarity_ == d) dispatch(e);
  if (chan_count_.load(std::memory_order_acquire) == 0) return;
  const auto snap = chans_.acquire();
  for (const auto& c : snap->channels) c->forward(e, d, this);
}

void PortCore::deliver_from_channel(const EventPtr& e, Direction d) {
  if (polarity_ == d) dispatch(e);
  pair_->arrive(e, d);
}

std::size_t PortCore::dispatch(const EventPtr& e) {
  // Collect the distinct subscriber components with at least one accepting
  // handler; enqueue one work unit per subscriber. At execution time the
  // subscriber re-matches against its then-current subscriptions (through
  // the epoch-validated match cache, component.cpp), which gives the
  // paper's semantics for subscribe/unsubscribe during handling.
  std::size_t matches = 0;
  TargetSet targets;
  const EventTypeId eid = e->kompics_type_id();
  if ((interest_.load(std::memory_order_acquire) & detail::ancestor_bits(eid)) != 0) {
    const auto snap = subs_.acquire();
    for (const auto& s : snap->subs) {
      if (!s->active.load(std::memory_order_acquire) || !s->accepts(eid)) continue;
      ++matches;
      targets.insert(s->subscriber);
    }
  }
  // Life-cycle events must reach the owning component even without user
  // handlers: the built-in activation/passivation logic (§2.4) runs after
  // user handlers, so the owner always gets a work unit for them.
  if (control_ && inside_ &&
      (event_is<Init>(*e) || event_is<Start>(*e) || event_is<Stop>(*e))) {
    targets.insert(owner_);
  }
  targets.for_each([&](ComponentCore* t) { t->enqueue_work(e, this, control_); });
  return matches;
}

bool PortCore::has_match(const Event& e) const {
  const EventTypeId eid = e.kompics_type_id();
  if ((interest_.load(std::memory_order_acquire) & detail::ancestor_bits(eid)) == 0) {
    return false;
  }
  const auto snap = subs_.acquire();
  for (const auto& s : snap->subs) {
    if (s->active.load(std::memory_order_acquire) && s->accepts(eid)) return true;
  }
  return false;
}

void PortCore::add_subscription(const SubscriptionRef& s) {
  std::lock_guard<std::mutex> g(mu_);
  const SubTable* cur = subs_.load_unlocked();
  auto* next = new SubTable;
  next->subs.reserve(cur->subs.size() + 1);
  next->subs = cur->subs;
  next->subs.push_back(s);
  const std::uint64_t interest =
      interest_.load(std::memory_order_relaxed) | detail::type_bit(s->event_type);
  subs_.swap(next);
  interest_.store(interest, std::memory_order_release);
  sub_epoch_.fetch_add(1, std::memory_order_release);
}

void PortCore::remove_subscription(const SubscriptionRef& s) {
  std::lock_guard<std::mutex> g(mu_);
  // Deactivate first: in-flight work items holding a cached match list
  // (and the current handler round) observe the removal immediately.
  s->active.store(false, std::memory_order_release);
  const SubTable* cur = subs_.load_unlocked();
  auto* next = new SubTable;
  next->subs.reserve(cur->subs.size());
  std::uint64_t interest = 0;
  for (const auto& existing : cur->subs) {
    if (existing == s) continue;
    next->subs.push_back(existing);
    interest |= detail::type_bit(existing->event_type);
  }
  subs_.swap(next);
  interest_.store(interest, std::memory_order_release);
  sub_epoch_.fetch_add(1, std::memory_order_release);
}

void PortCore::matching_subscriptions_into(ComponentCore* subscriber, EventTypeId eid,
                                           std::vector<SubscriptionRef>& out) const {
  out.clear();
  const auto snap = subs_.acquire();
  for (const auto& s : snap->subs) {
    if (s->subscriber == subscriber && s->active.load(std::memory_order_acquire) &&
        s->accepts(eid)) {
      out.push_back(s);
    }
  }
}

void PortCore::attach_channel(const ChannelRef& c) {
  std::lock_guard<std::mutex> g(mu_);
  const ChanTable* cur = chans_.load_unlocked();
  auto* next = new ChanTable;
  next->channels.reserve(cur->channels.size() + 1);
  next->channels = cur->channels;
  next->channels.push_back(c);
  const auto n = static_cast<std::uint32_t>(next->channels.size());
  chans_.swap(next);
  chan_count_.store(n, std::memory_order_release);
}

void PortCore::detach_channel(const Channel* c) {
  std::lock_guard<std::mutex> g(mu_);
  const ChanTable* cur = chans_.load_unlocked();
  auto* next = new ChanTable;
  next->channels.reserve(cur->channels.size());
  for (const auto& existing : cur->channels) {
    if (existing.get() != c) next->channels.push_back(existing);
  }
  const auto n = static_cast<std::uint32_t>(next->channels.size());
  chans_.swap(next);
  chan_count_.store(n, std::memory_order_release);
}

std::vector<ChannelRef> PortCore::channels() const {
  const auto snap = chans_.acquire();
  return snap->channels;
}

PortPair::PortPair(ComponentCore* owner, const PortType* type, bool provided_)
    : provided(provided_) {
  // Provided port: requests (negative) flow toward the component, so the
  // inside half has negative polarity; the outside half is positive.
  // Required port: the dual.
  const Direction inside_pol = provided_ ? Direction::kNegative : Direction::kPositive;
  inside = std::make_unique<PortCore>(owner, type, inside_pol, /*inside=*/true);
  outside = std::make_unique<PortCore>(owner, type, opposite(inside_pol), /*inside=*/false);
  inside->link_pair(outside.get());
  outside->link_pair(inside.get());
}

}  // namespace kompics
