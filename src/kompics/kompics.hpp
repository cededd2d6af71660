#pragma once

// The Kompics runtime (paper §3): owns the component hierarchy, the
// pluggable scheduler, the clock, and the global configuration. Decoupling
// component code from its executor is what lets the same system run under
// the multi-core scheduler in production and under the deterministic
// simulation scheduler for testing (paper §1, §3).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <typeinfo>

#include "component.hpp"
#include "config.hpp"
#include "lifecycle.hpp"
#include "reactor.hpp"
#include "scheduler.hpp"
#include "telemetry.hpp"

namespace kompics {

namespace detail {
/// Installs a ComponentCore as "the component under construction" for the
/// current thread, so ComponentDefinition constructors can declare ports and
/// children. Nests (children created from a parent constructor).
class CurrentCoreGuard {
 public:
  explicit CurrentCoreGuard(ComponentCore* core);
  ~CurrentCoreGuard();

 private:
  ComponentCore* previous_;
};
ComponentCore* current_core();
}  // namespace detail

class Runtime {
 public:
  using FaultPolicy = std::function<void(const Fault&)>;

  Runtime(Config config, std::unique_ptr<Scheduler> scheduler, std::unique_ptr<Clock> clock,
          std::uint64_t seed);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Convenience factory: multi-core work-stealing runtime.
  /// workers == 0 selects the hardware concurrency.
  static std::unique_ptr<Runtime> threaded(Config config = {}, std::size_t workers = 0,
                                           std::uint64_t seed = 1);

  /// Creates the root component from definition Main, starts the scheduler,
  /// and activates the root (paper §2.4: bootstrap creates AND starts Main).
  template <class Main, class... Args>
  Component bootstrap(Args&&... args) {
    root_ = create_component<Main>(nullptr, std::forward<Args>(args)...);
    scheduler_->start();
    root_.control()->trigger(make_event<Start>());
    return root_;
  }

  /// Creates a component under `parent` (nullptr for the root). Used by
  /// ComponentDefinition::create.
  template <class Def, class... Args>
  Component create_component(ComponentCore* parent, Args&&... args) {
    auto core = std::make_shared<ComponentCore>(this, parent, next_component_id());
    core->set_name(typeid(Def).name());
    {
      detail::CurrentCoreGuard guard(core.get());
      core->set_definition(std::make_unique<Def>(std::forward<Args>(args)...));
    }
    if (parent != nullptr) parent->add_child(core);
    return Component(core);
  }

  Component root() const { return root_; }

  /// Stops the scheduler and the reactor; pending work is abandoned.
  void shutdown();

  /// Blocks until no schedulable work remains anywhere in the runtime, or
  /// until an unhandled fault halted the scheduler under the default fault
  /// policy (check faulted()). Reactor deliveries can of course inject new
  /// work afterwards.
  void await_quiescence();
  /// Bounded variant; returns false on timeout.
  bool await_quiescence_for(DurationMs timeout);
  std::int64_t pending() const { return pending_.load(std::memory_order_acquire); }

  Scheduler& scheduler() { return *scheduler_; }
  /// Kernel telemetry (telemetry.hpp): metrics, causal tracing, flight
  /// recorder. Always present; all gates default off unless the config
  /// carries telemetry.* keys (see the Runtime constructor).
  telemetry::Telemetry& telemetry() { return telemetry_; }
  const telemetry::Telemetry& telemetry() const { return telemetry_; }
  Clock& clock() const { return *clock_; }
  /// The runtime's I/O and deadline reactor (reactor.hpp). Its thread starts
  /// on the first registration, so a simulation-only runtime never has one.
  Reactor& reactor() { return reactor_; }
  const Config& config() const { return config_; }
  std::uint64_t seed() const { return seed_; }
  std::uint64_t next_component_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  // ---- fault management (§2.5) ------------------------------------------
  /// Installed policy runs when a Fault reaches the top of the hierarchy
  /// unhandled. Default: dump to stderr and mark the runtime faulted.
  void set_fault_policy(FaultPolicy policy);
  void on_unhandled_fault(const Fault& fault);
  bool faulted() const { return faulted_.load(std::memory_order_acquire); }

  // ---- work accounting (used by ComponentCore) ----------------------------
  void pending_add(std::int64_t k) { pending_.fetch_add(k, std::memory_order_acq_rel); }
  void pending_sub(std::int64_t k);

 private:
  bool quiescent_or_halted() const {
    return pending_.load(std::memory_order_acquire) == 0 ||
           halted_.load(std::memory_order_acquire);
  }

  Config config_;
  std::unique_ptr<Scheduler> scheduler_;
  telemetry::Telemetry telemetry_;
  std::unique_ptr<Clock> clock_;
  Reactor reactor_{*clock_};
  std::uint64_t seed_;
  std::atomic<std::uint64_t> next_id_{1};
  Component root_;

  std::atomic<std::int64_t> pending_{0};
  std::mutex quiesce_mu_;
  std::condition_variable quiesce_cv_;
  std::atomic<int> waiters_{0};
  std::atomic<bool> halted_{false};  // scheduler stopped by the default fault policy

  std::mutex fault_mu_;
  FaultPolicy fault_policy_;
  std::atomic<bool> faulted_{false};
};

template <class Def, class... Args>
Component ComponentDefinition::create(Args&&... args) {
  return core_->runtime()->create_component<Def>(core_, std::forward<Args>(args)...);
}

template <class NewDef, class... Args>
Component ComponentDefinition::replace(Component& old, const EventPtr& init_event,
                                       Args&&... ctor_args) {
  struct Moved {
    ChannelRef channel;
    std::type_index tid;
    bool provided;
  };
  auto moved = std::make_shared<std::vector<Moved>>();
  // Phase 1 — hold every channel attached to the old component's ports:
  // traffic in both directions queues inside the channels, so nothing is
  // lost and no new input reaches the old component while it stops.
  for (const auto& pi : old.core()->declared_ports()) {
    for (const auto& ch : pi.pair->outside->channels()) {
      ch->hold();
      moved->push_back(Moved{ch, pi.tid, pi.provided});
    }
  }
  // Phase 2 — create the replacement now (callers get the handle
  // immediately) and ask the old subtree to stop.
  Component fresh = create<NewDef>(std::forward<Args>(ctor_args)...);

  // Phase 3 — once the old subtree confirms Stopped (no handler running or
  // runnable anywhere below it), re-home the held channels, initialize and
  // activate the replacement, flush the queued traffic, and retire the old
  // component, forwarding any events it still had parked onto the matching
  // ports of the new one.
  auto old_core = old.core_ptr();
  auto fresh_core = fresh.core_ptr();
  auto sub_slot = std::make_shared<SubscriptionRef>();
  *sub_slot = subscribe<Stopped>(
      old_core->control_outside(),
      [this, old_core, fresh_core, moved, init_event, sub_slot](const Stopped&) {
        if (*sub_slot == nullptr) return;  // already ran
        unsubscribe(*sub_slot);
        *sub_slot = nullptr;
        for (const auto& m : *moved) {
          PortPair* old_port = old_core->find_port(m.tid, m.provided);
          PortPair* new_port = fresh_core->find_port(m.tid, m.provided);
          if (new_port == nullptr) {
            throw std::logic_error("replace: new component lacks a matching port");
          }
          m.channel->unplug(old_port->outside.get());
          m.channel->plug(new_port->outside.get());
        }
        if (init_event != nullptr) fresh_core->control_outside()->trigger(init_event);
        fresh_core->control_outside()->trigger(make_event<Start>());
        for (const auto& m : *moved) m.channel->resume();
        old_core->retire_into(fresh_core);
        core_->remove_child(old_core.get());
      });
  old.control()->trigger(make_event<Stop>());
  old = Component{};
  return fresh;
}

inline const Config& ComponentDefinition::config() const { return core_->runtime()->config(); }
inline TimeMs ComponentDefinition::now() const { return core_->runtime()->clock().now(); }

}  // namespace kompics
