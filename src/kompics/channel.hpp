#pragma once

// Channels (paper §2.1, §2.6): first-class FIFO bindings between two
// complementary port halves. Channels forward events in both directions and
// support the four reconfiguration commands of §2.6:
//
//   hold()    — stop forwarding; queue events in both directions.
//   resume()  — flush queued events in FIFO order, then forward as usual.
//   unplug(p) — detach one end from its port (events toward the unplugged
//               end are queued, so nothing is dropped mid-reconfiguration).
//   plug(p)   — attach the unplugged end to a (possibly different) port.
//
// A channel connects a positive half to a negative half of the same port
// type. Since a composite component's *inside* half has flipped polarity,
// the same connect() call also builds pass-through channels from a
// composite's own port to its children's ports (Figs. 10-11).
//
// Hot-path contract: the channel's forwarding configuration (state, ends,
// filters) is published as an RCU snapshot. `forward` on an active,
// fully-plugged channel reads the snapshot and delivers without taking the
// channel lock; only the reconfiguration states (held / unplugged / dead —
// which need the FIFO queue) fall back to `mu_`. All mutators rebuild and
// swap the snapshot under `mu_`.

#include <deque>
#include <functional>
#include <memory>
#include <mutex>

#include "event.hpp"
#include "port_type.hpp"
#include "rcu.hpp"

namespace kompics {

class PortCore;

class Channel : public std::enable_shared_from_this<Channel> {
 public:
  enum class State : unsigned char { kActive, kHeld, kDead };

  /// Use connect() (component.hpp) instead of constructing directly.
  Channel(PortCore* positive_end, PortCore* negative_end);
  ~Channel();

  /// Forward an event that left `from` toward the end of opposite
  /// polarity — also when `from` was just unplugged. Honors hold/unplug
  /// queuing; drops events only when the channel is dead (i.e., after
  /// disconnect).
  void forward(const EventPtr& e, Direction d, const PortCore* from);

  /// §2.6 reconfiguration commands.
  void hold();
  void resume();
  void unplug(PortCore* end);
  void plug(PortCore* new_end);

  /// Channel selector (the Java implementation's per-channel event
  /// filtering, the mechanism behind §2.3's "avoids forwarding events on
  /// channels that would not lead to any compatible subscribed handlers"):
  /// events traveling in direction `d` are forwarded only when the
  /// predicate accepts them. One filter per direction; pass nullptr to
  /// clear. Filters must be pure (the fast path runs them lock-free,
  /// concurrently with other forwards).
  void set_filter(Direction d, std::function<bool(const Event&)> filter);

  /// Tears the channel down (disconnect): detaches both ends, drops queued
  /// events.
  void destroy();

  State state() const {
    std::lock_guard<std::mutex> g(mu_);
    return state_;
  }
  PortCore* positive_end() const {
    std::lock_guard<std::mutex> g(mu_);
    return positive_end_;
  }
  PortCore* negative_end() const {
    std::lock_guard<std::mutex> g(mu_);
    return negative_end_;
  }

  /// Number of events currently queued (held or awaiting plug).
  std::size_t queued() const {
    std::lock_guard<std::mutex> g(mu_);
    return queue_.size();
  }

 private:
  struct Pending {
    EventPtr event;
    Direction direction;
    bool toward_positive;  ///< destination end when queued
  };

  /// Immutable forwarding configuration, swapped on every mutation.
  struct Snap : detail::RcuObject {
    State state = State::kActive;
    PortCore* positive_end = nullptr;
    PortCore* negative_end = nullptr;
    std::function<bool(const Event&)> positive_filter;
    std::function<bool(const Event&)> negative_filter;
  };

  /// Rebuilds the snapshot from the authoritative fields. Call with `mu_`
  /// held after every mutation.
  void publish_locked();

  void forward_slow(const EventPtr& e, Direction d, bool toward_positive);
  void flush_locked(std::unique_lock<std::mutex>& lock);

  mutable std::mutex mu_;
  State state_ = State::kActive;
  std::function<bool(const Event&)> positive_filter_;
  std::function<bool(const Event&)> negative_filter_;
  PortCore* positive_end_;
  PortCore* negative_end_;
  PortCore* unplugged_end_ = nullptr;  ///< remembered slot while unplugged
  bool unplugged_was_positive_ = false;
  std::deque<Pending> queue_;
  detail::RcuCell<const Snap> snap_;

  // Lock-free fast-path mirror of the default configuration (active, both
  // ends plugged, no filters). forward() reads it with plain atomic loads
  // — no snapshot pin — and falls back to the snapshot path whenever the
  // flag is off or the end pointers don't line up with the sender (which
  // catches every torn read during a mutation; see forward()). Updated by
  // publish_locked() with `mu_` held.
  std::atomic<bool> fast_path_{false};
  std::atomic<PortCore*> fast_pos_{nullptr};
  std::atomic<PortCore*> fast_neg_{nullptr};
};

using ChannelRef = std::shared_ptr<Channel>;

}  // namespace kompics
