#include "timing/thread_timer.hpp"

#include <algorithm>

#include "kompics/kompics.hpp"

namespace kompics::timing {

ThreadTimer::ThreadTimer() {
  subscribe<ScheduleTimeout>(timer_, [this](const ScheduleTimeout& st) {
    arm(now() + std::max<std::int64_t>(0, st.delay_ms()), -1, st.payload());
  });
  subscribe<SchedulePeriodicTimeout>(timer_, [this](const SchedulePeriodicTimeout& st) {
    arm(now() + std::max<std::int64_t>(0, st.initial_delay_ms()), st.period_ms(), st.payload());
  });
  subscribe<CancelTimeout>(timer_, [this](const CancelTimeout& ct) { disarm(ct.id()); });
  subscribe<DeadlineDue>(reactor_.port(), [this](const DeadlineDue& d) { fire(d.key); });
}

void ThreadTimer::arm(TimeMs at, std::int64_t period_ms, TimeoutPtr payload) {
  const TimeoutId id = payload->id();
  disarm(id);
  const Reactor::Deadline d = reactor_.arm(at);
  if (d.key == 0) return;  // this component is being destroyed
  armed_.emplace(d.key, Armed{std::move(payload), period_ms});
  deadline_of_.emplace(id, d);
  armed_count_.store(deadline_of_.size(), std::memory_order_release);
}

void ThreadTimer::disarm(TimeoutId id) {
  auto it = deadline_of_.find(id);
  if (it == deadline_of_.end()) return;  // already fired, or never armed
  reactor_.cancel(it->second);
  armed_.erase(it->second.key);
  deadline_of_.erase(it);
  armed_count_.store(deadline_of_.size(), std::memory_order_release);
}

void ThreadTimer::fire(Reactor::Key key) {
  auto it = armed_.find(key);
  if (it == armed_.end()) return;  // cancelled after the reactor delivered it
  const Armed a = std::move(it->second);
  armed_.erase(it);
  const TimeoutId id = a.payload->id();
  const TimeMs at = deadline_of_.at(id).at;
  deadline_of_.erase(id);
  // Periodic: re-arm from the previous deadline, not from now — no drift.
  if (a.period_ms >= 0) arm(at + std::max<std::int64_t>(1, a.period_ms), a.period_ms, a.payload);
  armed_count_.store(deadline_of_.size(), std::memory_order_release);
  trigger(a.payload, timer_);
}

}  // namespace kompics::timing
