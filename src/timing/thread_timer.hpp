#pragma once

// ThreadTimer: the production Timer provider (the paper's "JavaTimer").
// Every ScheduleTimeout becomes one deadline on the runtime reactor
// (kompics/reactor.hpp); when it is due, a DeadlineDue work item reaches
// this component, which triggers the scheduled Timeout back through the
// provided Timer port. Periodic timeouts re-arm themselves until cancelled.
// Cancellation disarms the deadline directly, so it is exact: a timeout
// cancelled before it was delivered is never delivered. Despite the name
// (kept for its users), the component owns no thread.

#include <atomic>
#include <cstdint>
#include <unordered_map>

#include "kompics/component.hpp"
#include "kompics/reactor.hpp"
#include "timing/timer_port.hpp"

namespace kompics::timing {

class ThreadTimer : public ComponentDefinition {
 public:
  ThreadTimer();

  /// Timeout ids currently armed (thread-safe).
  std::size_t armed_timeouts() const { return armed_count_.load(std::memory_order_acquire); }

 private:
  struct Armed {
    TimeoutPtr payload;
    std::int64_t period_ms;  // <0 for one-shot
  };

  /// Arms `payload` at `at`; an id that is still armed is replaced.
  void arm(TimeMs at, std::int64_t period_ms, TimeoutPtr payload);
  void disarm(TimeoutId id);
  void fire(Reactor::Key key);

  Negative<Timer> timer_ = provide<Timer>();
  ReactorLink reactor_{core()};

  // Component-context state: only handlers touch it.
  std::unordered_map<Reactor::Key, Armed> armed_;
  std::unordered_map<TimeoutId, Reactor::Deadline> deadline_of_;
  std::atomic<std::size_t> armed_count_{0};  // mirrors deadline_of_.size()
};

}  // namespace kompics::timing
