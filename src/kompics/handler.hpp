#pragma once

// Event handlers (paper §2.1): first-class procedures of a component. A
// handler accepts events of a particular type (and subtypes) and runs
// reactively when such an event arrives on a port it is subscribed to.
// Handlers of one component instance are mutually exclusive — the runtime
// never executes two handlers of the same component concurrently — so
// handlers may freely mutate component-local state.

#include <atomic>
#include <functional>
#include <memory>

#include "event.hpp"

namespace kompics {

class ComponentCore;
class PortCore;

/// Typed, first-class handler. Declared as a component member:
///
///   Handler<Message> handle_msg{[this](const Message& m) { ++messages_; }};
///
/// and attached with subscribe(handle_msg, port).
template <class E>
class Handler {
 public:
  using Fn = std::function<void(const E&)>;

  Handler() = default;
  explicit Handler(Fn fn) : fn_(std::move(fn)) {}
  Handler& operator=(Fn fn) {
    fn_ = std::move(fn);
    return *this;
  }

  void operator()(const E& e) const { fn_(e); }
  bool valid() const { return static_cast<bool>(fn_); }

 private:
  Fn fn_;
};

/// Runtime representation of one subscription: binds an accepted event type
/// and an invoker to (subscriber component, port half). Created by
/// ComponentDefinition::subscribe and kept alive by the port's subscription
/// table. The accept check is an integer ancestor-walk from the event's
/// TypeId up to `event_type` (the subscribed type is always registered —
/// see event.hpp).
struct Subscription {
  ComponentCore* subscriber = nullptr;
  PortCore* half = nullptr;
  EventTypeId event_type = kEventTypeRoot;  ///< TypeId of the subscribed type
  std::function<void(const Event&)> invoke;
  // Cleared under the port's writer lock by unsubscribe but also read
  // lock-free by the executing worker (ComponentCore::run_item), hence
  // atomic.
  std::atomic<bool> active{true};

  /// True when an event reporting TypeId `eid` matches this subscription.
  bool accepts(EventTypeId eid) const { return detail::is_ancestor(event_type, eid); }
};

using SubscriptionRef = std::shared_ptr<Subscription>;

}  // namespace kompics
