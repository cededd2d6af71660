#pragma once

// Components (paper §2.1): event-driven state machines that execute
// concurrently and communicate asynchronously by message passing.
//
// Users subclass ComponentDefinition; the runtime wraps each instance in a
// ComponentCore that owns its ports, its work queues, and its position in
// the containment hierarchy. Handlers of one component are mutually
// exclusive (§3): work is published to a lock-free MPSC queue and a
// ready-state counter guarantees at most one worker executes a component at
// any time.
//
// Life-cycle (§2.4): components are created passive; events received while
// passive are parked and replayed on activation. If an Init handler was
// subscribed in the constructor, every other event is parked until the
// corresponding Init is handled.

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <typeindex>
#include <unordered_map>
#include <vector>

#include "channel.hpp"
#include "clock.hpp"
#include "config.hpp"
#include "debug.hpp"
#include "event.hpp"
#include "handler.hpp"
#include "lifecycle.hpp"
#include "mpsc_queue.hpp"
#include "port.hpp"
#include "port_type.hpp"

namespace kompics {

class Runtime;
class ComponentDefinition;
class ComponentCore;
using ComponentCorePtr = std::shared_ptr<ComponentCore>;

namespace protocol {
class Runner;
}  // namespace protocol

/// Interface between a component and its coroutine-protocol runtime
/// (protocol.hpp). A definition that runs Proto<> frames owns exactly one
/// host (created lazily by protocol::Runner::of); destroy_tree() calls
/// cancel_all() first, while every channel of the subtree is still
/// attached — that is the window in which armed timeout timers can still be
/// cancelled through the Timer port.
class ProtocolHost {
 public:
  virtual ~ProtocolHost() = default;
  /// Cancels every in-flight protocol frame: no frame resumes after this
  /// returns, pending one-shot subscriptions are deactivated, and armed
  /// timers are cancelled through their Timer port. Thread-safe; idempotent.
  virtual void cancel_all() noexcept = 0;
  /// Destroys every (cancelled) frame. ~ComponentCore calls this BEFORE
  /// resetting the definition: frame locals (RAII guards, streams) may
  /// reference members of the derived definition, which are destroyed
  /// before the base class's protocol_host_ — so unwinding must happen
  /// while the full derived object is still alive. Idempotent.
  virtual void destroy_frames() noexcept = 0;
  /// Frames spawned and not yet completed (suspended frames included).
  virtual std::size_t live_frame_count() const = 0;
};

namespace detail {
class DispatchBatch;
}  // namespace detail

namespace telemetry {
struct ComponentStats;
}  // namespace telemetry

/// Handle to a (sub)component held by its creator — grants access to the
/// child's outside port halves for connect() and life-cycle triggers.
class Component {
 public:
  Component() = default;
  explicit Component(ComponentCorePtr core) : core_(std::move(core)) {}

  explicit operator bool() const { return core_ != nullptr; }
  ComponentCore* core() const { return core_.get(); }
  ComponentCorePtr core_ptr() const { return core_; }

  /// The child's control port (outside half) — target for Init/Start/Stop.
  PortCore* control() const;

  /// Outside half of the child's provided port of type PT (`+` polarity).
  template <class PT>
  Positive<PT> provided() const;

  /// Outside half of the child's required port of type PT (`-` polarity).
  template <class PT>
  Negative<PT> required() const;

  /// Access the child's definition (tests, state transfer during §2.6
  /// reconfiguration). D must be the concrete definition type.
  template <class D>
  D& definition_as() const;

 private:
  ComponentCorePtr core_;
};

class ComponentCore : public std::enable_shared_from_this<ComponentCore> {
 public:
  /// A unit of work: one event to be handled on one port half.
  struct WorkItem {
    std::atomic<WorkItem*> next{nullptr};
    EventPtr event;
    PortCore* half = nullptr;
    bool control = false;
  };

  ComponentCore(Runtime* runtime, ComponentCore* parent, std::uint64_t id);
  ~ComponentCore();

  ComponentCore(const ComponentCore&) = delete;
  ComponentCore& operator=(const ComponentCore&) = delete;

  // ---- identity / hierarchy -------------------------------------------
  std::uint64_t id() const { return id_; }
  Runtime* runtime() const { return runtime_; }
  ComponentCore* parent() const { return parent_; }
  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  void set_definition(std::unique_ptr<ComponentDefinition> def);
  ComponentDefinition* definition() const { return definition_.get(); }

  void add_child(ComponentCorePtr child);
  void remove_child(ComponentCore* child);
  std::vector<ComponentCorePtr> children() const;

  // ---- ports -----------------------------------------------------------
  /// Declares a provided/required port of the given type. At most one port
  /// per (type, kind) per component, as in the Java runtime.
  PortPair* declare_port(const PortType* type, std::type_index tid, bool provided);
  PortPair* find_port(std::type_index tid, bool provided) const;

  struct PortInfo {
    std::type_index tid;
    bool provided;
    PortPair* pair;
  };
  std::vector<PortInfo> declared_ports() const;

  PortCore* control_inside() const { return control_->inside.get(); }
  PortCore* control_outside() const { return control_->outside.get(); }

  // ---- execution -------------------------------------------------------
  /// Publishes one unit of work; schedules the component on the idle->ready
  /// transition. Callable from any thread.
  void enqueue_work(const EventPtr& e, PortCore* half, bool control);

  /// Executes exactly one unit of work (paper §3: one event per scheduling
  /// round) and re-schedules itself if more work is pending.
  void execute();

  LifecycleState state() const { return state_.load(std::memory_order_acquire); }
  bool needs_init() const { return needs_init_.load(std::memory_order_acquire); }
  void mark_needs_init() { needs_init_.store(true, std::memory_order_release); }

  /// Tears down this component and its subtree: detaches every channel,
  /// marks everything destroyed, drops every reactor registration.
  void destroy_tree();

  /// §2.6 replacement support: destroys this component but forwards its
  /// still-queued and parked application events onto the matching ports of
  /// `successor` instead of dropping them. (Control/life-cycle events are
  /// dropped; events addressed to ports of this component's children are
  /// dropped with the children.)
  void retire_into(ComponentCorePtr successor);

  /// Called (thread-safely) by a child that finished its stop protocol.
  void child_stopped();
  /// Called (thread-safely) by a child that finished its start protocol.
  void child_started();

  RngStream& rng() { return rng_; }

  /// Number of work units currently counted against this component.
  std::int64_t work_count() const { return work_count_.load(std::memory_order_acquire); }

  // ---- telemetry ---------------------------------------------------------
  /// The component's metrics block, or nullptr while it never ran with
  /// metrics enabled (lazy: 16k-node simulations with telemetry off pay
  /// nothing). Safe to read from any thread (scrape path).
  const telemetry::ComponentStats* telemetry_stats() const {
    return telemetry_stats_.load(std::memory_order_acquire);
  }

 private:
  /// Consumer-only lazy creation (run_item under the §3 single-consumer
  /// discipline is the only writer).
  telemetry::ComponentStats& telemetry_stats_mut();

 public:

 private:
  friend class ComponentDefinition;
  friend class detail::DispatchBatch;

  void bump(std::int64_t k);     // pending + ticket(k)
  void ticket(std::int64_t k);   // add k ready units; schedule on 0 -> k
  void complete_one();           // finish a unit; re-schedule if more remain
  WorkItem* next_item();         // pop respecting init/passive gating
  void run_item(WorkItem* item);

 public:
  /// The core whose work item is executing on the current thread (nullptr
  /// outside any dispatch). Distinguishes "already inside this component's
  /// single-consumer context" from a foreign handler or external thread —
  /// the protocol layer uses it to decide whether a freshly spawned frame
  /// may run inline or must be enqueued like any other work item.
  static ComponentCore* running_on_this_thread();

 private:
  const std::vector<SubscriptionRef>& matching_subs_cached(PortCore* half,
                                                           const Event& e);
  void builtin_lifecycle_event(const Event& e);
  void begin_stop();
  void emit_stopped();
  void begin_start();
  void emit_started();
  void escalate_fault(std::exception_ptr error);
  void flush_init_deferred();
  void flush_passive_deferred();
  void drain_all_queues();
  void park(WorkItem* item, bool to_control);
  void forward_retired(WorkItem* item);  // §2.6 retire: re-home or drop

  Runtime* runtime_;
  ComponentCore* parent_;
  std::uint64_t id_;
  std::string name_;
  RngStream rng_;

  std::unique_ptr<ComponentDefinition> definition_;
  std::unique_ptr<PortPair> control_;

  mutable std::mutex structure_mu_;
  std::vector<ComponentCorePtr> children_;
  struct DeclaredPort {
    std::type_index tid;
    bool provided;
    std::unique_ptr<PortPair> pair;
  };
  std::vector<DeclaredPort> ports_;

  // Execution machinery. work_count_ counts schedulable units; the 0->N
  // transition enqueues the component with the scheduler, so at most one
  // worker executes it at a time (single-consumer discipline for the MPSC
  // queues and the deques below).
  std::atomic<std::int64_t> work_count_{0};
  MpscQueue<WorkItem> control_q_;
  MpscQueue<WorkItem> normal_q_;
  std::deque<WorkItem*> replay_control_;    // consumer-only
  std::deque<WorkItem*> replay_normal_;     // consumer-only
  std::deque<WorkItem*> parked_control_;    // waiting for Init
  std::deque<WorkItem*> parked_normal_;     // waiting for Start
  KOMPICS_SINGLE_CONSUMER_FLAG(executing_);  // §3: one worker at a time

  // Epoch-validated match cache for the executing worker's re-match
  // (run_item): keyed by (port half, event TypeId), valid while the stored
  // epoch equals the port's subscription epoch. Consumer-only state — the
  // single-consumer discipline above is its lock. Entries hold
  // SubscriptionRefs, so cached lists stay safe across unsubscribes (the
  // per-subscription `active` flag preserves exact semantics).
  struct MatchKey {
    const PortCore* half;
    EventTypeId id;
    bool operator==(const MatchKey& o) const { return half == o.half && id == o.id; }
  };
  struct MatchKeyHash {
    std::size_t operator()(const MatchKey& k) const {
      return std::hash<const void*>()(k.half) ^
             (static_cast<std::size_t>(k.id) * 0x9e3779b97f4a7c15ULL);
    }
  };
  struct MatchEntry {
    std::uint64_t epoch = 0;
    bool valid = false;
    std::vector<SubscriptionRef> subs;
  };
  static constexpr std::size_t kMatchCacheMax = 1024;
  std::unordered_map<MatchKey, MatchEntry, MatchKeyHash> match_cache_;  // consumer-only
  std::atomic<LifecycleState> state_{LifecycleState::kPassive};
  std::atomic<bool> needs_init_{false};
  bool init_done_ = false;  // consumer-only
  std::atomic<int> stop_pending_{0};   // children yet to confirm Stopped
  std::atomic<int> start_pending_{0};  // children yet to confirm Started
  ComponentCorePtr forward_to_;        // §2.6 retire target (under structure_mu_)
  std::atomic<telemetry::ComponentStats*> telemetry_stats_{nullptr};  // lazy, owned
};

namespace detail {

/// Thread-local accumulator that coalesces the scheduler bookkeeping of one
/// synchronous event propagation (one trigger(), one channel replay).
/// While a scope is open on the calling thread, enqueue_work() pays the
/// runtime pending counter for its item (one update per item, before the
/// push) and then records its target here; the outermost scope exit
/// performs the idle->ready transitions and hands every newly-ready
/// component to the scheduler in a single schedule_batch() call. A fan-out
/// trigger with N subscribers thus wakes the worker pool once instead of
/// N times.
///
/// Deferral is safe because only the ready "tickets" are deferred: an item
/// is already counted as pending when it becomes poppable, and tickets are
/// added after their items' pushes, so they never exceed queued items.
/// Triggers from inside a handler flush before run_item returns, so the
/// handler's own in-flight unit keeps the runtime non-quiescent across the
/// whole window.
class DispatchBatch {
 public:
  bool active() const { return depth_ > 0; }
  /// A batch only spans one runtime; a foreign component falls back to the
  /// unbatched path.
  bool compatible(Runtime* rt) const { return runtime_ == nullptr || runtime_ == rt; }

  void add(ComponentCore* c) {
    runtime_ = c->runtime_;
    bumps_.push_back(c);
  }

  void enter() { ++depth_; }
  void exit() {
    if (--depth_ == 0 && !bumps_.empty()) flush();
  }

  /// The calling thread's batch (one per thread, reused across scopes so
  /// the vectors keep their capacity).
  static DispatchBatch& current();

 private:
  void flush();

  int depth_ = 0;
  Runtime* runtime_ = nullptr;
  std::vector<ComponentCore*> bumps_;          // one entry per queued unit
  std::vector<ComponentCorePtr> to_schedule_;  // reused scratch for flush()
};

/// RAII scope delimiting one synchronous propagation; nests freely (only
/// the outermost exit flushes).
class DispatchBatchScope {
 public:
  DispatchBatchScope() : batch_(DispatchBatch::current()) { batch_.enter(); }
  ~DispatchBatchScope() { batch_.exit(); }
  DispatchBatchScope(const DispatchBatchScope&) = delete;
  DispatchBatchScope& operator=(const DispatchBatchScope&) = delete;

 private:
  DispatchBatch& batch_;
};

}  // namespace detail

/// Base class for user components. Constructors run with the owning
/// ComponentCore installed, so they may declare ports, subscribe handlers,
/// create children, and connect channels — exactly the operations of
/// paper §2.2.
class ComponentDefinition {
 public:
  virtual ~ComponentDefinition() = default;

  ComponentDefinition(const ComponentDefinition&) = delete;
  ComponentDefinition& operator=(const ComponentDefinition&) = delete;

  /// The coroutine-protocol host attached to this definition, or nullptr
  /// while no Proto<> frame was ever spawned on it (protocol.hpp).
  ProtocolHost* protocol_host() const { return protocol_host_.get(); }

  /// Kernel /metrics hook: definition-supplied numeric samples, emitted as
  /// `<name>{component="...",id="..."} value` by telemetry::render_prometheus.
  /// Called from scrape threads while handlers run — implementations must
  /// read with their own synchronization (atomics or a lock).
  virtual std::vector<std::pair<std::string, std::uint64_t>> metric_samples() const {
    return {};
  }

 protected:
  ComponentDefinition();

  // ---- ports -----------------------------------------------------------
  template <class PT>
  Negative<PT> provide() {
    auto* pair = core_->declare_port(&port_type<PT>(), std::type_index(typeid(PT)), true);
    return Negative<PT>{pair->inside.get()};
  }

  template <class PT>
  Positive<PT> require() {
    auto* pair = core_->declare_port(&port_type<PT>(), std::type_index(typeid(PT)), false);
    return Positive<PT>{pair->inside.get()};
  }

  /// Own control port (inside half) — subscribe Init/Start/Stop handlers
  /// here; Fault events are triggered on it by the runtime.
  PortCore* control() const { return core_->control_inside(); }

  // ---- subscriptions (§2.1, §2.2) ---------------------------------------
  template <class E>
  SubscriptionRef subscribe(const Handler<E>& h, PortCore* half) {
    return subscribe_impl<E>(half, [&h](const E& e) { h(e); });
  }
  template <class E, class PT>
  SubscriptionRef subscribe(const Handler<E>& h, Positive<PT> p) {
    return subscribe(h, p.core);
  }
  template <class E, class PT>
  SubscriptionRef subscribe(const Handler<E>& h, Negative<PT> p) {
    return subscribe(h, p.core);
  }

  /// Inline-lambda form: subscribe<EventType>(port, [this](const E&) {...}).
  template <class E, class F>
  SubscriptionRef subscribe(PortCore* half, F&& fn) {
    return subscribe_impl<E>(half, std::forward<F>(fn));
  }
  template <class E, class PT, class F>
  SubscriptionRef subscribe(Positive<PT> p, F&& fn) {
    return subscribe_impl<E>(p.core, std::forward<F>(fn));
  }
  template <class E, class PT, class F>
  SubscriptionRef subscribe(Negative<PT> p, F&& fn) {
    return subscribe_impl<E>(p.core, std::forward<F>(fn));
  }

  void unsubscribe(const SubscriptionRef& s) {
    if (s != nullptr && s->half != nullptr) s->half->remove_subscription(s);
  }

  // ---- event triggering (§2.2) ------------------------------------------
  void trigger(const EventPtr& e, PortCore* half) { half->trigger(e); }
  template <class PT>
  void trigger(const EventPtr& e, Positive<PT> p) {
    p.core->trigger(e);
  }
  template <class PT>
  void trigger(const EventPtr& e, Negative<PT> p) {
    p.core->trigger(e);
  }

  // ---- children & channels (§2.1, §2.2) ----------------------------------
  /// Defined in kompics.hpp (needs Runtime): creates a subcomponent.
  template <class Def, class... Args>
  Component create(Args&&... args);

  /// Destroys a subcomponent and its subtree.
  void destroy(Component& child) {
    if (child.core() != nullptr) {
      child.core()->destroy_tree();
      core_->remove_child(child.core());
      child = Component{};
    }
  }

  /// Connects a positive half to a negative half of the same port type.
  ChannelRef connect(PortCore* positive_half, PortCore* negative_half);
  template <class PT>
  ChannelRef connect(Positive<PT> p, Negative<PT> n) {
    return connect(p.core, n.core);
  }
  template <class PT>
  ChannelRef connect(Negative<PT> n, Positive<PT> p) {
    return connect(p.core, n.core);
  }

  void disconnect(const ChannelRef& c) {
    if (c != nullptr) c->destroy();
  }

  /// §2.6 replacement recipe: holds and unplugs every channel connected to
  /// `old`'s (non-control) outside ports, passivates `old`, creates the
  /// replacement, re-plugs the channels into the matching ports of the new
  /// component and resumes them (flushing everything queued while held),
  /// then initializes/activates the new component and destroys the old one.
  /// `init_event` (may be null) typically carries state dumped from `old` —
  /// read it via old.definition_as<OldDef>() *before* calling replace.
  /// Defined in kompics.hpp.
  template <class NewDef, class... Args>
  Component replace(Component& old, const EventPtr& init_event, Args&&... ctor_args);
  /// Finds and destroys the channel between two halves.
  void disconnect(PortCore* a, PortCore* b);
  template <class PT>
  void disconnect(Positive<PT> p, Negative<PT> n) {
    disconnect(p.core, n.core);
  }

  // ---- context -----------------------------------------------------------
  const Config& config() const;
  TimeMs now() const;

  /// The shared handle of the event currently being handled — lets a
  /// handler forward the event it received without copying (events are
  /// immutable and shared, §2.1). Only valid inside a handler.
  const EventPtr& current_event() const { return current_event_; }
  template <class E>
  std::shared_ptr<const E> current_event_as() const {
    return std::static_pointer_cast<const E>(current_event_);
  }

  RngStream& rng() { return core_->rng(); }
  Runtime& runtime() const { return *core_->runtime(); }
  ComponentCore& core() const { return *core_; }
  std::uint64_t id() const { return core_->id(); }

 private:
  template <class E, class F>
  SubscriptionRef subscribe_impl(PortCore* half, F&& fn) {
    detail::require_registered<E>();
    auto sub = std::make_shared<Subscription>();
    sub->subscriber = core_;
    sub->half = half;
    sub->event_type = E::kompics_static_type_id();
    sub->invoke = [f = std::function<void(const E&)>(std::forward<F>(fn))](const Event& e) {
      f(event_as<E>(e));
    };
    // Init-first guarantee (§2.4): subscribing a handler for an Init
    // subtype on the own control port defers all other events until Init.
    if constexpr (std::is_base_of_v<Init, E>) {
      if (half == core_->control_inside() && !in_handler_) core_->mark_needs_init();
    }
    half->add_subscription(sub);
    return sub;
  }

  friend class ComponentCore;
  friend class protocol::Runner;  // protocol.hpp: hidden resume port + subscribe
  ComponentCore* core_;
  bool in_handler_ = false;   // set by ComponentCore while running handlers
  EventPtr current_event_;    // set by ComponentCore while running handlers
  std::unique_ptr<ProtocolHost> protocol_host_;  // lazily attached (protocol.hpp)
};

// ---- Component handle templates -----------------------------------------

template <class PT>
Positive<PT> Component::provided() const {
  PortPair* p = core_->find_port(std::type_index(typeid(PT)), /*provided=*/true);
  if (p == nullptr) throw std::logic_error("component does not provide this port type");
  return Positive<PT>{p->outside.get()};
}

template <class PT>
Negative<PT> Component::required() const {
  PortPair* p = core_->find_port(std::type_index(typeid(PT)), /*provided=*/false);
  if (p == nullptr) throw std::logic_error("component does not require this port type");
  return Negative<PT>{p->outside.get()};
}

template <class D>
D& Component::definition_as() const {
  auto* d = dynamic_cast<D*>(core_->definition());
  if (d == nullptr) throw std::logic_error("definition type mismatch");
  return *d;
}

inline PortCore* Component::control() const { return core_->control_outside(); }

}  // namespace kompics
