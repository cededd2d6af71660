#pragma once

// SimTimer: Timer provider for simulation mode. Identical port contract to
// timing::ThreadTimer, but deadlines live in the SimulatorCore's virtual
// time — consumer components cannot tell the difference (paper §3).

#include <unordered_map>

#include "kompics/component.hpp"
#include "kompics/kompics.hpp"
#include "sim/simulator_core.hpp"
#include "timing/timer_port.hpp"

namespace kompics::sim {

class SimTimer : public ComponentDefinition {
 public:
  struct Init : kompics::Init {
    KOMPICS_EVENT(Init, kompics::Init);

    explicit Init(SimulatorCore* core) : core(core) {}
    SimulatorCore* core;
  };

  SimTimer() {
    subscribe<Init>(control(), [this](const Init& init) { core_ = init.core; });
    subscribe<timing::ScheduleTimeout>(timer_, [this](const timing::ScheduleTimeout& st) {
      const timing::TimeoutId tid = st.timeout_id();
      auto payload = st.payload();
      pending_[tid] = core_->schedule(skewed(st.delay_ms()), [this, tid, payload] {
        pending_.erase(tid);
        trigger(payload, timer_);
      });
    });
    subscribe<timing::SchedulePeriodicTimeout>(
        timer_, [this](const timing::SchedulePeriodicTimeout& st) {
          arm_periodic(st.timeout_id(), st.initial_delay_ms(), st.period_ms(), st.payload());
        });
    subscribe<timing::CancelTimeout>(timer_, [this](const timing::CancelTimeout& ct) {
      auto it = pending_.find(ct.id());
      if (it != pending_.end()) {
        core_->cancel(it->second);
        pending_.erase(it);
      }
    });
  }

  /// Pending simulator actions capture `this`; when the timer's node is
  /// destroyed (churn, §4.2) they must be cancelled or they would fire into
  /// freed memory once virtual time reaches them.
  ~SimTimer() override {
    if (core_ == nullptr) return;
    for (const auto& [tid, action] : pending_) core_->cancel(action);
  }

  /// Clock-skew fault injection (campaign harness): all subsequently armed
  /// delays are scaled by skew_permille/1000 — a node whose timers run slow
  /// (skew > 1000) misses failure-detector and retry deadlines relative to
  /// the rest of the world, the classic "one laggard" fault class. Already
  /// armed timeouts keep their original deadlines.
  void set_skew_permille(std::uint32_t permille) { skew_permille_ = permille == 0 ? 1 : permille; }
  std::uint32_t skew_permille() const { return skew_permille_; }

 private:
  DurationMs skewed(DurationMs delay) const {
    if (skew_permille_ == 1000) return delay;
    return static_cast<DurationMs>((static_cast<std::int64_t>(delay) * skew_permille_) / 1000);
  }

  void arm_periodic(timing::TimeoutId tid, DurationMs delay, DurationMs period,
                    timing::TimeoutPtr payload) {
    pending_[tid] = core_->schedule(skewed(delay), [this, tid, period, payload] {
      if (pending_.count(tid) == 0) return;  // cancelled
      trigger(payload, timer_);
      arm_periodic(tid, period < 1 ? 1 : period, period, payload);
    });
  }

  Negative<timing::Timer> timer_ = provide<timing::Timer>();
  SimulatorCore* core_ = nullptr;
  std::uint32_t skew_permille_ = 1000;  ///< 1000 = nominal rate
  std::unordered_map<timing::TimeoutId, ActionId> pending_;
};

}  // namespace kompics::sim
