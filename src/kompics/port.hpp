#pragma once

// Ports (paper §2.1) are bidirectional, event-based component interfaces.
//
// Each port declared on a component is a *pair* of halves with opposite
// polarities, exactly as in the Java runtime:
//
//   - provide<PT>() creates the pair {inside: negative, outside: positive}
//     and hands the component the inside (negative) half — the component
//     receives requests and triggers indications through it.
//   - require<PT>() creates {inside: positive, outside: negative} — the
//     component receives indications and triggers requests.
//
// Event propagation rule (DESIGN.md §2.2). For trigger(e, H):
//   d := opposite(polarity(H));   e "arrives" at H.pair.
// When an event with direction d arrives at half A:
//   1. if polarity(A) == d, dispatch e to A's subscriptions (grouped by
//      subscriber component, enqueued on each subscriber's work queue);
//   2. forward e into every channel attached to A; the channel delivers to
//      the far half F (dispatching there iff polarity(F) == d), after which
//      e arrives at F.pair — this realizes composite pass-through.
// This one rule produces all behaviours in the paper: fan-out (Fig. 6),
// sequential multi-handler dispatch (Fig. 7), hierarchical delivery
// (Figs. 10-11), and no loop-back of an event to the component that
// triggered it.
//
// Concurrency (this file's hot-path contract): the subscription and channel
// tables are RCU copy-on-write snapshots (rcu.hpp). dispatch/arrive/
// has_match read a snapshot lock-free; subscribe/unsubscribe and channel
// attach/detach serialize on `mu_`, build a new immutable table, and swap
// it in. After every subscription-table swap the writer stores the half's
// interest mask (the OR of its subscriptions' type bits, event.hpp) and
// then increments `sub_epoch_` (release), so per-component match caches
// (component.hpp) can validate entries without re-scanning. dispatch and
// has_match AND the mask with the event's ancestor bits before pinning the
// subscription snapshot: a zero proves no subscription on the half accepts
// the event, so the common "this child does not handle that type" case of
// a composite's fan-out costs two loads and no pin.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <typeindex>
#include <vector>

#include "event.hpp"
#include "handler.hpp"
#include "port_type.hpp"
#include "protocol_desc.hpp"
#include "rcu.hpp"

namespace kompics {

class Channel;
class ComponentCore;
using ChannelRef = std::shared_ptr<Channel>;

/// One half of a port pair. Owned by the declaring component; referenced by
/// channels and typed handles.
class PortCore {
 public:
  PortCore(ComponentCore* owner, const PortType* type, Direction polarity, bool inside);
  ~PortCore();

  PortCore(const PortCore&) = delete;
  PortCore& operator=(const PortCore&) = delete;

  ComponentCore* owner() const { return owner_; }
  const PortType* type() const { return type_; }
  Direction polarity() const { return polarity_; }
  bool is_inside() const { return inside_; }
  /// True when this half belongs to a component's built-in control port.
  /// Resolved once at construction (it is a property of the port type).
  bool is_control() const { return control_; }
  PortCore* pair() const { return pair_; }
  void link_pair(PortCore* p) { pair_ = p; }

  /// Identification of the declared port this half belongs to — used to map
  /// queued work onto a replacement component's matching port (§2.6).
  void set_port_id(std::type_index tid, bool provided) {
    port_tid_ = tid;
    port_provided_ = provided;
  }
  std::type_index port_tid() const { return port_tid_; }
  bool port_provided() const { return port_provided_; }

  /// Entry point used by ComponentDefinition::trigger.
  void trigger(const EventPtr& e);

  /// trigger() calls observed on this half while metrics were enabled.
  std::uint64_t publish_count() const {
    return publish_count_.load(std::memory_order_relaxed);
  }

  /// An event with direction d arrives at this half (rule step above).
  void arrive(const EventPtr& e, Direction d);

  /// Delivery from a channel: optional local dispatch, then arrival at pair.
  void deliver_from_channel(const EventPtr& e, Direction d);

  /// Dispatches e to matching subscriptions on this half; returns the number
  /// of (subscriber, handler) matches. Used directly for fault escalation.
  std::size_t dispatch(const EventPtr& e);

  /// True if at least one active subscription on this half accepts e.
  /// (Used for channel pruning, paper §2.3, and fault escalation, §2.5.)
  bool has_match(const Event& e) const;

  void add_subscription(const SubscriptionRef& s);
  void remove_subscription(const SubscriptionRef& s);

  /// Monotonic counter bumped after every subscription-table change.
  /// Readers pairing (epoch, table scan) — epoch first, acquire — get a
  /// sound cache validity token: equal epoch later implies same table.
  std::uint64_t sub_epoch() const { return sub_epoch_.load(std::memory_order_acquire); }

  /// Snapshot, into `out` (cleared first), of the active subscriptions held
  /// by `subscriber` that accept events of TypeId `eid` — taken at
  /// execution time so that (un)subscribe during handling behaves as in the
  /// paper (a handler that unsubscribes itself still finishes the current
  /// event, but handles no further ones). Reusing `out` keeps the match
  /// cache's vector capacity.
  void matching_subscriptions_into(ComponentCore* subscriber, EventTypeId eid,
                                   std::vector<SubscriptionRef>& out) const;

  void attach_channel(const ChannelRef& c);
  void detach_channel(const Channel* c);
  std::vector<ChannelRef> channels() const;

 private:
  friend class ComponentCore;

  struct SubTable : detail::RcuObject {
    std::vector<SubscriptionRef> subs;
  };
  struct ChanTable : detail::RcuObject {
    std::vector<ChannelRef> channels;
  };

  ComponentCore* owner_;
  const PortType* type_;
  Direction polarity_;
  bool inside_;
  bool control_;
  PortCore* pair_ = nullptr;
  std::type_index port_tid_{typeid(void)};
  bool port_provided_ = false;

  mutable std::mutex mu_;  ///< serializes writers; readers use the snapshots
  detail::RcuCell<const SubTable> subs_;
  detail::RcuCell<const ChanTable> chans_;
  std::atomic<std::uint64_t> sub_epoch_{0};
  // Summaries stored (release) after each table swap and loaded (acquire)
  // by the hot paths to skip pinning a snapshot that cannot contribute.
  // `interest_` is the OR of type_bit(s->event_type) over the subscription
  // table (0 for an empty table); `chan_count_` is the channel table's
  // size. A reader that sees a stale value linearizes before the concurrent
  // table change, exactly as if it had pinned the pre-swap snapshot: a
  // stale mask without a just-added type reads as "before the add", and a
  // stale mask that still has a just-removed type only costs an exact scan
  // that skips the deactivated subscription.
  std::atomic<std::uint64_t> interest_{0};
  std::atomic<std::uint32_t> chan_count_{0};
  // Telemetry: bumped in trigger() only while metrics are enabled, so the
  // disabled hot path never writes this line.
  std::atomic<std::uint64_t> publish_count_{0};
};

/// A declared port: the linked pair of halves.
struct PortPair {
  PortPair(ComponentCore* owner, const PortType* type, bool provided);

  std::unique_ptr<PortCore> inside;
  std::unique_ptr<PortCore> outside;
  bool provided;
};

/// Typed handles. Positive<PT> is a half through which the holder receives
/// positive (indication) events: the handle a component gets from
/// require<PT>(), and the handle the environment gets for a child's
/// *provided* port. Negative<PT> is the dual.
///
/// The open member template builds the coroutine-protocol stream descriptor
/// (protocol_desc.hpp); it is only awaitable inside a Proto<> coroutine
/// with protocol.hpp included.
template <class PT>
struct Positive {
  PortCore* core = nullptr;

  template <class E, class Pred = protocol::AcceptAll>
  protocol::OpenDesc<E, Pred> open(Pred pred = {}) const {
    return {core, std::move(pred)};
  }
};

template <class PT>
struct Negative {
  PortCore* core = nullptr;

  template <class E, class Pred = protocol::AcceptAll>
  protocol::OpenDesc<E, Pred> open(Pred pred = {}) const {
    return {core, std::move(pred)};
  }
};

}  // namespace kompics
