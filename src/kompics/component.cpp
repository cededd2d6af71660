#include "component.hpp"

#include <algorithm>
#include <cassert>
#include <exception>

#include "kompics.hpp"
#include "telemetry.hpp"

namespace kompics {

ComponentCore::ComponentCore(Runtime* runtime, ComponentCore* parent, std::uint64_t id)
    : runtime_(runtime),
      parent_(parent),
      id_(id),
      name_("component-" + std::to_string(id)),
      rng_(derive_seed(runtime->seed(), id)) {
  control_ = std::make_unique<PortPair>(this, &port_type<ControlPort>(), /*provided=*/true);
  control_->inside->set_port_id(std::type_index(typeid(ControlPort)), true);
  control_->outside->set_port_id(std::type_index(typeid(ControlPort)), true);
}

ComponentCore::~ComponentCore() {
  // Coroutine protocol frames unwind first, while the FULL derived
  // definition still exists: frame locals may reference derived members,
  // which die before the base class's protocol_host_ would destroy the
  // frames on its own.
  if (definition_ != nullptr && definition_->protocol_host_ != nullptr) {
    definition_->protocol_host_->destroy_frames();
  }
  // Destroy the definition before the port pairs it declared (members die
  // in reverse declaration order): its destructor may still use them.
  definition_.reset();
  // No concurrency from here on: the last shared_ptr just dropped, and
  // destroy_tree() dropped our reactor registrations.
  drain_all_queues();
  delete telemetry_stats_.load(std::memory_order_acquire);
}

telemetry::ComponentStats& ComponentCore::telemetry_stats_mut() {
  telemetry::ComponentStats* st = telemetry_stats_.load(std::memory_order_relaxed);
  if (st == nullptr) {
    st = new telemetry::ComponentStats();
    telemetry_stats_.store(st, std::memory_order_release);  // publish to scrapers
  }
  return *st;
}

void ComponentCore::set_definition(std::unique_ptr<ComponentDefinition> def) {
  definition_ = std::move(def);
}

void ComponentCore::add_child(ComponentCorePtr child) {
  std::lock_guard<std::mutex> g(structure_mu_);
  children_.push_back(std::move(child));
}

void ComponentCore::remove_child(ComponentCore* child) {
  std::lock_guard<std::mutex> g(structure_mu_);
  children_.erase(std::remove_if(children_.begin(), children_.end(),
                                 [child](const ComponentCorePtr& c) { return c.get() == child; }),
                  children_.end());
}

std::vector<ComponentCorePtr> ComponentCore::children() const {
  std::lock_guard<std::mutex> g(structure_mu_);
  return children_;
}

PortPair* ComponentCore::declare_port(const PortType* type, std::type_index tid, bool provided) {
  std::lock_guard<std::mutex> g(structure_mu_);
  for (const auto& p : ports_) {
    if (p.tid == tid && p.provided == provided) {
      throw std::logic_error("port of this type and kind already declared on component " + name_);
    }
  }
  ports_.push_back(DeclaredPort{tid, provided, std::make_unique<PortPair>(this, type, provided)});
  PortPair* pair = ports_.back().pair.get();
  pair->inside->set_port_id(tid, provided);
  pair->outside->set_port_id(tid, provided);
  return pair;
}

std::vector<ComponentCore::PortInfo> ComponentCore::declared_ports() const {
  std::lock_guard<std::mutex> g(structure_mu_);
  std::vector<PortInfo> out;
  out.reserve(ports_.size());
  for (const auto& p : ports_) out.push_back(PortInfo{p.tid, p.provided, p.pair.get()});
  return out;
}

PortPair* ComponentCore::find_port(std::type_index tid, bool provided) const {
  std::lock_guard<std::mutex> g(structure_mu_);
  for (const auto& p : ports_) {
    if (p.tid == tid && p.provided == provided) return p.pair.get();
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

namespace {

// Global lock-free freelist recycling WorkItems between the threads that
// publish events and the workers that consume them. Without it every
// delivery pays a cross-thread malloc/free round-trip through the
// allocator's shared arena (the producer allocates, a worker frees).
//
// Treiber stack with a packed (pointer, tag) head word — same packing
// discipline as rcu.hpp: 8-byte-aligned pointers drop 3 low bits, leaving
// 19 bits of ABA tag below a 45-bit pointer field. A pop's window would
// need 2^19 interleaved operations for the tag to wrap back — not reachable
// in practice. Nodes are only returned to the allocator in the pool's
// destructor (after all runtime threads have joined), so the speculative
// `next` reads in pop_chain() never touch freed memory.
//
// Threads reach it only through the per-thread cache below, which moves
// items in chains of up to kChain per CAS.
class WorkItemPool {
 public:
  using WorkItem = ComponentCore::WorkItem;

  ~WorkItemPool() {
    WorkItem* it = unpack(head_.load(std::memory_order_acquire));
    while (it != nullptr) {
      WorkItem* next = it->next.load(std::memory_order_relaxed);
      delete it;
      it = next;
    }
  }

  /// Pops up to `max` linked items (null-terminated chain) and stores their
  /// number in `n`; allocates one fresh item when the stack is empty.
  WorkItem* pop_chain(std::size_t max, std::size_t& n) {
    std::uint64_t head = head_.load(std::memory_order_acquire);
    for (;;) {
      WorkItem* top = unpack(head);
      if (top == nullptr) {
        n = 1;
        return new WorkItem{};
      }
      // The walk may read stale links if another thread pops first; the
      // CAS below fails in that case (the tag advanced) and we reload. An
      // unchanged head word means no push or pop happened, so the links
      // walked are the stack's.
      WorkItem* last = top;
      std::size_t k = 1;
      WorkItem* rest = last->next.load(std::memory_order_relaxed);
      while (k < max && rest != nullptr) {
        last = rest;
        rest = last->next.load(std::memory_order_relaxed);
        ++k;
      }
      if (head_.compare_exchange_weak(head, pack(rest, tag(head) + 1),
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
        last->next.store(nullptr, std::memory_order_relaxed);
        n = k;
        return top;
      }
    }
  }

  /// Pushes the chain first..last (already linked through `next`).
  void push_chain(WorkItem* first, WorkItem* last) {
    std::uint64_t head = head_.load(std::memory_order_relaxed);
    for (;;) {
      last->next.store(unpack(head), std::memory_order_relaxed);
      if (head_.compare_exchange_weak(head, pack(first, tag(head) + 1),
                                      std::memory_order_release,
                                      std::memory_order_relaxed)) {
        return;
      }
    }
  }

 private:
  static constexpr std::uint64_t kTagBits = 19;
  static constexpr std::uint64_t kTagMask = (1ULL << kTagBits) - 1;

  // The tag survives the empty state (pointer bits all zero): every push
  // and pop advances it, so a stale head word can never be reproduced by
  // any pop/push interleaving short of a full 2^19 tag wrap.
  static std::uint64_t pack(WorkItem* p, std::uint64_t tag) {
    const auto bits = reinterpret_cast<std::uintptr_t>(p);
    KOMPICS_ASSERT((bits & 7) == 0 && (bits >> 48) == 0,
                   "work item pointer not packable");
    return (static_cast<std::uint64_t>(bits) >> 3 << kTagBits) | (tag & kTagMask);
  }
  static WorkItem* unpack(std::uint64_t word) {
    return reinterpret_cast<WorkItem*>((word >> kTagBits) << 3);
  }
  static std::uint64_t tag(std::uint64_t word) { return word & kTagMask; }

  std::atomic<std::uint64_t> head_{0};
};

WorkItemPool& work_item_pool() {
  static WorkItemPool pool;
  return pool;
}

// Per-thread front of the pool: a bounded LIFO of free items. A worker
// mostly releases the items it and its peers acquired, so acquire/release
// usually touch only this thread's list; the process-wide head is paid once
// per kChain items, when the list runs dry (refill) or full (spill).
//
// The list is trivially destructible so it stays usable during thread
// exit; a separate thread_local flusher hands its items back to the pool
// when the thread ends. For the main thread that runs before any static
// destructor, so before ~WorkItemPool. After the flush, `retired` sends
// every later release on that thread straight to the pool.
constexpr std::size_t kCacheCapacity = 64;
constexpr std::size_t kChain = kCacheCapacity / 2;

struct WorkItemCache {
  using WorkItem = ComponentCore::WorkItem;

  WorkItem* head = nullptr;
  std::size_t count = 0;
  bool registered = false;  // the flusher is armed for this thread
  bool retired = false;     // the flusher ran: the thread is exiting

  /// Detaches the top `n` (<= count) items as a chain; returns its last.
  WorkItem* split(std::size_t n, WorkItem*& first) {
    first = head;
    WorkItem* last = head;
    for (std::size_t i = 1; i < n; ++i) last = last->next.load(std::memory_order_relaxed);
    head = last->next.load(std::memory_order_relaxed);
    count -= n;
    return last;
  }
};

constinit thread_local WorkItemCache tl_work_items;

struct WorkItemCacheFlusher {
  bool armed = false;
  ~WorkItemCacheFlusher() {
    WorkItemCache& c = tl_work_items;
    if (c.count != 0) {
      ComponentCore::WorkItem* first = nullptr;
      ComponentCore::WorkItem* last = c.split(c.count, first);
      work_item_pool().push_chain(first, last);
    }
    c.registered = false;
    c.retired = true;
  }
};
thread_local WorkItemCacheFlusher tl_work_item_flusher;

/// True when this thread may keep items in its cache: arms the flusher on
/// first use, and stays false once the thread is exiting.
bool cache_usable(WorkItemCache& c) {
  if (c.registered) return true;
  if (c.retired) return false;
  tl_work_item_flusher.armed = true;  // first odr-use registers its destructor
  c.registered = true;
  return true;
}

ComponentCore::WorkItem* acquire_work_item() {
  WorkItemCache& c = tl_work_items;
  ComponentCore::WorkItem* item = c.head;
  if (item == nullptr) {
    std::size_t n = 0;
    item = work_item_pool().pop_chain(cache_usable(c) ? kChain : 1, n);
    c.count = n;
  }
  c.head = item->next.load(std::memory_order_relaxed);
  --c.count;
  item->next.store(nullptr, std::memory_order_relaxed);
  return item;
}

void release_work_item(ComponentCore::WorkItem* item) {
  if (item == nullptr) return;  // callers pass next_item()'s result as-is
  item->event.reset();
  item->half = nullptr;
  WorkItemCache& c = tl_work_items;
  if (!cache_usable(c)) {
    work_item_pool().push_chain(item, item);
    return;
  }
  if (c.count == kCacheCapacity) {
    ComponentCore::WorkItem* first = nullptr;
    ComponentCore::WorkItem* last = c.split(kChain, first);
    work_item_pool().push_chain(first, last);
  }
  item->next.store(c.head, std::memory_order_relaxed);
  c.head = item;
  ++c.count;
}

}  // namespace

void ComponentCore::enqueue_work(const EventPtr& e, PortCore* half, bool control) {
  // Pending is counted BEFORE the push makes the item consumable. Tickets
  // are fungible across a component's queued items: once this item is in
  // the queue, a worker holding a ticket from a *different* producer can
  // pop and complete it, and its pending_sub must never observe a counter
  // this enqueue hasn't paid into yet — otherwise pending_ transiently
  // reads zero with work still queued and await_quiescence returns early.
  runtime_->pending_add(1);
  WorkItem* item = acquire_work_item();
  item->event = e;
  item->half = half;
  item->control = control;
  (control ? control_q_ : normal_q_).push(item);
  detail::DispatchBatch& batch = detail::DispatchBatch::current();
  if (batch.active() && batch.compatible(runtime_)) {
    batch.add(this);  // ready transition + scheduling deferred to scope exit
  } else {
    ticket(1);
  }
}

detail::DispatchBatch& detail::DispatchBatch::current() {
  thread_local DispatchBatch batch;
  return batch;
}

void detail::DispatchBatch::flush() {
  // Pending for each unit was already counted by enqueue_work (it must
  // happen before the push); only the ready transitions and the scheduler
  // hand-off are deferred here.
  to_schedule_.clear();
  for (ComponentCore* c : bumps_) {
    if (c->work_count_.fetch_add(1, std::memory_order_acq_rel) == 0) {
      to_schedule_.push_back(c->shared_from_this());
    }
  }
  bumps_.clear();
  Runtime* rt = runtime_;
  runtime_ = nullptr;
  if (!to_schedule_.empty()) rt->scheduler().schedule_batch(to_schedule_);
}

void ComponentCore::bump(std::int64_t k) {
  if (k <= 0) return;
  runtime_->pending_add(k);
  ticket(k);
}

void ComponentCore::ticket(std::int64_t k) {
  if (work_count_.fetch_add(k, std::memory_order_acq_rel) == 0) {
    runtime_->scheduler().schedule(shared_from_this());
  }
}

void ComponentCore::complete_one() {
  const std::int64_t prev = work_count_.fetch_sub(1, std::memory_order_acq_rel);
  assert(prev >= 1);
  if (prev > 1) runtime_->scheduler().schedule(shared_from_this());
  runtime_->pending_sub(1);
}

void ComponentCore::park(WorkItem* item, bool to_control) {
  (to_control ? parked_control_ : parked_normal_).push_back(item);
}

void ComponentCore::forward_retired(WorkItem* it) {
  // When retired into a successor (§2.6), application events are forwarded
  // to the matching port of the replacement instead of dropped.
  ComponentCorePtr target;
  {
    std::lock_guard<std::mutex> g(structure_mu_);
    target = forward_to_;
  }
  if (target != nullptr && !it->control && it->half != nullptr && it->half->owner() == this) {
    PortPair* p = target->find_port(it->half->port_tid(), it->half->port_provided());
    if (p != nullptr) {
      PortCore* half = it->half->is_inside() ? p->inside.get() : p->outside.get();
      target->enqueue_work(it->event, half, /*control=*/false);
    }
  }
  release_work_item(it);
}

ComponentCore::WorkItem* ComponentCore::next_item() {
  if (state() == LifecycleState::kDestroyed) {
    // Parked items already spent their tickets when they were parked, so
    // forward (or drop) all of them now; then drain exactly one ticketed
    // unit so the bookkeeping stays exact. retire_into() adds a ticket so a
    // retired component always gets this run even if it parked its last
    // queued item after going passive.
    for (std::deque<WorkItem*>* parked : {&parked_control_, &parked_normal_}) {
      for (WorkItem* it : *parked) forward_retired(it);
      parked->clear();
    }
    WorkItem* it = nullptr;
    if (!replay_control_.empty()) {
      it = replay_control_.front();
      replay_control_.pop_front();
    } else if (!replay_normal_.empty()) {
      it = replay_normal_.front();
      replay_normal_.pop_front();
    } else if ((it = control_q_.pop()) == nullptr) {
      it = normal_q_.pop();
    }
    if (it != nullptr) forward_retired(it);
    return nullptr;
  }

  const bool gate = needs_init_.load(std::memory_order_acquire) && !init_done_;

  if (!gate && !replay_control_.empty()) {
    WorkItem* it = replay_control_.front();
    replay_control_.pop_front();
    return it;
  }
  if (WorkItem* it = control_q_.pop()) {
    // Init-first gate (§2.4): only Init — and Stop, so that an
    // uninitialized component can still be passivated and replaced/
    // destroyed (otherwise §2.6 reconfiguration could deadlock waiting for
    // a Stopped that can never come) — may run before the Init arrives.
    if (gate && !event_is<Init>(*it->event) && !event_is<Stop>(*it->event)) {
      park(it, /*to_control=*/true);
      return nullptr;
    }
    return it;
  }
  if (gate) {
    // Only Init may run; park any counted normal work.
    if (WorkItem* it = normal_q_.pop()) park(it, /*to_control=*/false);
    return nullptr;
  }

  const bool active = state() == LifecycleState::kActive;
  if (active && !replay_normal_.empty()) {
    WorkItem* it = replay_normal_.front();
    replay_normal_.pop_front();
    return it;
  }
  if (WorkItem* it = normal_q_.pop()) {
    if (!active) {
      park(it, /*to_control=*/false);
      return nullptr;
    }
    return it;
  }
  if (!active && !replay_normal_.empty()) {
    // Counted replay item but the component was re-passivated: re-park.
    park(replay_normal_.front(), /*to_control=*/false);
    replay_normal_.pop_front();
    return nullptr;
  }
  return nullptr;
}

namespace {
thread_local ComponentCore* tl_running_core = nullptr;
}  // namespace

ComponentCore* ComponentCore::running_on_this_thread() { return tl_running_core; }

void ComponentCore::execute() {
  {
    // Guard must end before complete_one(): the re-schedule inside it can
    // legitimately hand this core to another worker immediately.
    KOMPICS_ASSERT_SINGLE_CONSUMER(executing_);
    if (WorkItem* item = next_item()) {
      // Exception-safe restore: escalate_fault may rethrow out of run_item.
      struct Scope {
        ComponentCore* prev;
        ~Scope() { tl_running_core = prev; }
      } scope{tl_running_core};
      tl_running_core = this;
      run_item(item);
    }
  }
  complete_one();
}

const std::vector<SubscriptionRef>& ComponentCore::matching_subs_cached(PortCore* half,
                                                                        const Event& e) {
  // Consumer-only (called from run_item under the single-consumer
  // discipline), so match_cache_ needs no lock. Matching depends on the
  // event's TypeId alone (event.hpp), so the id is an exact cache key.
  const EventTypeId eid = e.kompics_type_id();
  // Epoch BEFORE scan (port.hpp contract): if a later lookup sees the same
  // epoch, the table cannot have changed since this entry was built.
  const std::uint64_t epoch = half->sub_epoch();
  MatchEntry& entry = match_cache_[MatchKey{half, eid}];
  if (entry.valid && entry.epoch == epoch) return entry.subs;
  if (match_cache_.size() > kMatchCacheMax) {
    // Pathological key churn (many ports × many event types): reset rather
    // than grow without bound. The reference into match_cache_ is
    // invalidated by clear(), so recreate the entry afterwards.
    match_cache_.clear();
    MatchEntry& fresh = match_cache_[MatchKey{half, eid}];
    fresh.epoch = epoch;
    fresh.valid = true;
    half->matching_subscriptions_into(this, eid, fresh.subs);
    return fresh.subs;
  }
  entry.epoch = epoch;
  entry.valid = true;
  half->matching_subscriptions_into(this, eid, entry.subs);
  return entry.subs;
}

void ComponentCore::run_item(WorkItem* item) {
  const EventPtr event = std::move(item->event);
  PortCore* half = item->half;
  const bool is_control = item->control;
  release_work_item(item);

  // Telemetry prologue. With everything disabled this costs three relaxed
  // loads and `timed` stays false, so no clock is read and no name is
  // resolved (the ≤3% overhead budget of the dispatch hot path).
  telemetry::Telemetry& tel = runtime_->telemetry();
  const bool metrics = tel.metrics_enabled();
  const bool recording = tel.recorder_enabled();
  const std::uint64_t trace_word = event->kompics_trace_word();
  const bool traced = trace_word != 0 && tel.tracing_enabled();
  const bool timed = metrics || recording || traced;
  const std::uint64_t t0 = timed ? telemetry::now_ns() : 0;
  telemetry::SpanScope span;  // restores the previous active span on exit
  std::uint32_t span_id = 0;
  if (traced) span_id = span.open(tel, trace_word);
  std::uint64_t invoked = 0;
  auto observe = [&](bool faulted) {
    const std::uint64_t dur = telemetry::now_ns() - t0;
    const char* event_name = typeid(*event).name();
    if (metrics) {
      telemetry::ComponentStats& st = telemetry_stats_mut();
      st.dispatches.fetch_add(1, std::memory_order_relaxed);
      st.handler_invocations.fetch_add(invoked, std::memory_order_relaxed);
      st.handler_ns.record(dur);
    }
    if (traced) tel.record_span(trace_word, span_id, *this, event_name, t0, dur);
    if (recording) {
      tel.record_dispatch(*this, event_name, is_control, faulted,
                          telemetry::trace_of_word(trace_word), t0, dur);
    }
  };

  // Execution-time re-match (paper semantics for (un)subscribe during
  // handling), served from the epoch-validated cache.
  const auto& subs = matching_subs_cached(half, *event);
  if (definition_ != nullptr) {
    definition_->in_handler_ = true;
    definition_->current_event_ = event;
  }
  for (const auto& s : subs) {
    // Unsubscribed by an earlier handler this round (or concurrently by
    // another component's handler via a shared SubscriptionRef).
    if (!s->active.load(std::memory_order_acquire)) continue;
    try {
      s->invoke(*event);
      ++invoked;
    } catch (...) {
      if (definition_ != nullptr) {
        definition_->in_handler_ = false;
        definition_->current_event_ = nullptr;
      }
      // Record the faulting dispatch first so the §2.5 crash dump taken by
      // escalate_fault includes it as its most recent entry.
      if (timed) observe(/*faulted=*/true);
      escalate_fault(std::current_exception());
      return;
    }
  }
  if (definition_ != nullptr) {
    definition_->in_handler_ = false;
    definition_->current_event_ = nullptr;
  }
  if (timed) observe(/*faulted=*/false);

  if (is_control && half == control_inside()) builtin_lifecycle_event(*event);
}

void ComponentCore::builtin_lifecycle_event(const Event& e) {
  if (event_is<Init>(e)) {
    init_done_ = true;
    flush_init_deferred();
  } else if (event_is<Start>(e)) {
    begin_start();
  } else if (event_is<Stop>(e)) {
    begin_stop();
  }
}

void ComponentCore::begin_start() {
  if (state() != LifecycleState::kPassive) {
    emit_started();  // already active: confirm immediately
    return;
  }
  state_.store(LifecycleState::kActive, std::memory_order_release);
  flush_passive_deferred();
  // Recursive activation (§2.4), with Started aggregation over the subtree
  // (the dual of the stop protocol below).
  const auto kids = children();
  std::vector<ComponentCorePtr> passive_kids;
  for (const auto& child : kids) {
    if (child->state() == LifecycleState::kPassive) passive_kids.push_back(child);
  }
  start_pending_.store(static_cast<int>(passive_kids.size()), std::memory_order_release);
  if (passive_kids.empty()) {
    emit_started();
    return;
  }
  for (const auto& child : passive_kids) {
    child->control_outside()->trigger(std::make_shared<const Start>());
  }
}

void ComponentCore::emit_started() {
  control_inside()->trigger(std::make_shared<const Started>());
  if (parent_ != nullptr) parent_->child_started();
}

void ComponentCore::child_started() {
  int cur = start_pending_.load(std::memory_order_acquire);
  while (cur > 0) {
    if (start_pending_.compare_exchange_weak(cur, cur - 1, std::memory_order_acq_rel)) {
      if (cur == 1) emit_started();
      return;
    }
  }
}

void ComponentCore::begin_stop() {
  if (state() != LifecycleState::kActive) {
    // Already passive (or being destroyed): confirm immediately so waiting
    // reconfiguration protocols make progress.
    emit_stopped();
    return;
  }
  state_.store(LifecycleState::kPassive, std::memory_order_release);
  const auto kids = children();
  std::vector<ComponentCorePtr> active_kids;
  for (const auto& child : kids) {
    if (child->state() == LifecycleState::kActive) active_kids.push_back(child);
  }
  stop_pending_.store(static_cast<int>(active_kids.size()), std::memory_order_release);
  if (active_kids.empty()) {
    emit_stopped();
    return;
  }
  for (const auto& child : active_kids) {
    child->control_outside()->trigger(std::make_shared<const Stop>());
  }
}

void ComponentCore::emit_stopped() {
  // Stopped travels out of the component: the parent (or a reconfiguration
  // protocol) observes it on the control port's outside half.
  control_inside()->trigger(std::make_shared<const Stopped>());
  if (parent_ != nullptr) parent_->child_stopped();
}

void ComponentCore::child_stopped() {
  // Lock-free guarded decrement: only counts down while a stop protocol is
  // actually pending (a child may confirm spontaneously otherwise).
  int cur = stop_pending_.load(std::memory_order_acquire);
  while (cur > 0) {
    if (stop_pending_.compare_exchange_weak(cur, cur - 1, std::memory_order_acq_rel)) {
      if (cur == 1) emit_stopped();
      return;
    }
  }
}

void ComponentCore::flush_init_deferred() {
  const std::int64_t k = static_cast<std::int64_t>(parked_control_.size());
  while (!parked_control_.empty()) {
    replay_control_.push_back(parked_control_.front());
    parked_control_.pop_front();
  }
  bump(k);
}

void ComponentCore::flush_passive_deferred() {
  const std::int64_t k = static_cast<std::int64_t>(parked_normal_.size());
  while (!parked_normal_.empty()) {
    replay_normal_.push_back(parked_normal_.front());
    parked_normal_.pop_front();
  }
  bump(k);
}

void ComponentCore::drain_all_queues() {
  auto drop = [](std::deque<WorkItem*>& q) {
    for (WorkItem* it : q) release_work_item(it);
    q.clear();
  };
  drop(replay_control_);
  drop(replay_normal_);
  drop(parked_control_);
  drop(parked_normal_);
  while (WorkItem* it = control_q_.pop()) release_work_item(it);
  while (WorkItem* it = normal_q_.pop()) release_work_item(it);
}

// ---------------------------------------------------------------------------
// Faults (§2.5)
// ---------------------------------------------------------------------------

void ComponentCore::escalate_fault(std::exception_ptr error) {
  std::string what = "unknown fault";
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& ex) {
    what = ex.what();
  } catch (...) {
  }
  telemetry::Telemetry& tel = runtime_->telemetry();
  if (tel.metrics_enabled()) {
    telemetry_stats_mut().faults.fetch_add(1, std::memory_order_relaxed);
  }
  if (tel.recorder_enabled()) {
    // §2.5: every fault report carries the dispatch history leading to it.
    tel.capture_crash_dump(what, this);
  }
  auto fault = std::make_shared<const Fault>(error, this, what);

  // Walk up the containment hierarchy: at each level the Fault is (re-)
  // triggered on that component's control port; the first ancestor with a
  // matching Fault subscription supervises it. Unhandled faults reach the
  // runtime's fault policy (paper: dump to stderr and halt).
  ComponentCore* comp = this;
  while (comp != nullptr) {
    PortCore* out = comp->control_outside();
    if (out->has_match(*fault)) {
      out->dispatch(fault);
      return;
    }
    comp = comp->parent();
  }
  runtime_->on_unhandled_fault(*fault);
}

// ---------------------------------------------------------------------------
// Destruction
// ---------------------------------------------------------------------------

void ComponentCore::retire_into(ComponentCorePtr successor) {
  {
    std::lock_guard<std::mutex> g(structure_mu_);
    forward_to_ = std::move(successor);
  }
  destroy_tree();
  // Work this component parked while passive holds no ticket; one extra
  // unit guarantees a destroyed-state run that forwards it (next_item).
  bump(1);
}

void ComponentCore::destroy_tree() {
  // Cancel in-flight coroutine protocol frames while the subtree's channels
  // are still attached: cancelling an awaited request must also cancel its
  // armed timeout timer, and the CancelTimeout can only reach the Timer
  // provider before detach_all below severs the channels.
  if (definition_ != nullptr && definition_->protocol_host_ != nullptr) {
    definition_->protocol_host_->cancel_all();
  }
  std::vector<ComponentCorePtr> kids = children();
  for (const auto& child : kids) child->destroy_tree();
  {
    std::lock_guard<std::mutex> g(structure_mu_);
    children_.clear();
  }
  state_.store(LifecycleState::kDestroyed, std::memory_order_release);
  // After the destroyed mark, which refuses new registrations: from here on
  // no readiness or deadline is ever triggered into this core.
  runtime_->reactor().drop(this);

  auto detach_all = [](PortCore* half) {
    for (const auto& c : half->channels()) c->destroy();
  };
  detach_all(control_->inside.get());
  detach_all(control_->outside.get());
  std::vector<PortPair*> pairs;
  {
    std::lock_guard<std::mutex> g(structure_mu_);
    for (const auto& p : ports_) pairs.push_back(p.pair.get());
  }
  for (PortPair* p : pairs) {
    detach_all(p->inside.get());
    detach_all(p->outside.get());
  }
}

// ---------------------------------------------------------------------------
// ComponentDefinition
// ---------------------------------------------------------------------------

ComponentDefinition::ComponentDefinition() : core_(detail::current_core()) {
  if (core_ == nullptr) {
    throw std::logic_error(
        "ComponentDefinition constructed outside the runtime; use Runtime::bootstrap or "
        "ComponentDefinition::create");
  }
}

ChannelRef ComponentDefinition::connect(PortCore* positive_half, PortCore* negative_half) {
  if (positive_half == nullptr || negative_half == nullptr) {
    throw std::invalid_argument("connect: null port");
  }
  if (positive_half->type() != negative_half->type()) {
    throw std::logic_error("connect: port type mismatch");
  }
  if (positive_half->polarity() != Direction::kPositive) std::swap(positive_half, negative_half);
  if (positive_half->polarity() != Direction::kPositive ||
      negative_half->polarity() != Direction::kNegative) {
    throw std::logic_error("connect: must connect a positive half to a negative half");
  }
  auto channel = std::make_shared<Channel>(positive_half, negative_half);
  positive_half->attach_channel(channel);
  negative_half->attach_channel(channel);
  return channel;
}

void ComponentDefinition::disconnect(PortCore* a, PortCore* b) {
  for (const auto& c : a->channels()) {
    if ((c->positive_end() == a && c->negative_end() == b) ||
        (c->positive_end() == b && c->negative_end() == a)) {
      c->destroy();
      return;
    }
  }
  throw std::logic_error("disconnect: no channel between these ports");
}

}  // namespace kompics
