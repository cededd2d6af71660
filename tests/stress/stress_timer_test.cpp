// Stress driver: ThreadTimer arm/cancel/fire storms. Multiple threads arm
// one-shot and periodic timeouts with tiny delays and cancel them at
// adversarial moments (before fire, after fire, twice, never-armed ids).
// Afterwards nothing may stay armed — the regression surface of the old
// cancellation leak, where cancel-after-fire ids were retained forever.

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "kompics/kompics.hpp"
#include "stress_util.hpp"
#include "timing/thread_timer.hpp"

namespace kompics::timing::test {
namespace {

struct Beep : Timeout {
  KOMPICS_EVENT(Beep, Timeout);

  explicit Beep(TimeoutId id) : Timeout(id) {}
};

class TimerUser : public ComponentDefinition {
 public:
  TimerUser() {
    subscribe<Beep>(timer_, [this](const Beep&) { fired.fetch_add(1); });
  }
  TimeoutId one_shot(DurationMs d) {
    auto ev = schedule<Beep>(d);
    trigger(ev, timer_);
    return ev->timeout_id();
  }
  TimeoutId periodic(DurationMs initial, DurationMs period) {
    auto ev = schedule_periodic<Beep>(initial, period);
    trigger(ev, timer_);
    return ev->timeout_id();
  }
  void cancel(TimeoutId id) { trigger(make_event<CancelTimeout>(id), timer_); }

  Positive<Timer> timer_ = require<Timer>();
  std::atomic<long> fired{0};
};

class Main : public ComponentDefinition {
 public:
  Main() {
    timer = create<ThreadTimer>();
    for (int i = 0; i < 3; ++i) {
      users.push_back(create<TimerUser>());
      connect(timer.provided<Timer>(), users.back().required<Timer>());
    }
  }
  Component timer;
  std::vector<Component> users;
};

TEST(StressTimer, ArmCancelFireStormDrainsAllBookkeeping) {
  const std::uint64_t seed = stress::announce_seed("StressTimer.Storm");
  const int kThreads = 3;  // one per user component
  const int kItersPerThread = 600 * stress::scale();

  auto rt = Runtime::threaded(Config{}, 2, 1);
  auto main = rt->bootstrap<Main>();
  auto& def = main.definition_as<Main>();
  rt->await_quiescence();
  auto& timer = def.timer.definition_as<ThreadTimer>();

  std::mutex periodics_mu;
  std::vector<std::pair<int, TimeoutId>> periodics;  // (user, id) to cancel at the end

  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto& user = def.users[static_cast<std::size_t>(t)].definition_as<TimerUser>();
      std::mt19937_64 rng(seed + static_cast<std::uint64_t>(t));
      std::vector<TimeoutId> my_oneshots;
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kItersPerThread; ++i) {
        switch (rng() % 8) {
          case 0:
          case 1:
          case 2: {  // arm a one-shot, delay 0-15 ms
            my_oneshots.push_back(user.one_shot(static_cast<DurationMs>(rng() % 16)));
            break;
          }
          case 3: {  // arm a periodic, to be cancelled in the drain phase
            const TimeoutId id = user.periodic(static_cast<DurationMs>(rng() % 8),
                                               1 + static_cast<DurationMs>(rng() % 4));
            std::lock_guard<std::mutex> g(periodics_mu);
            periodics.emplace_back(t, id);
            break;
          }
          case 4: {  // cancel a recent one-shot (may race its fire)
            if (!my_oneshots.empty()) user.cancel(my_oneshots.back());
            break;
          }
          case 5: {  // cancel an OLD one-shot — almost surely fired already
            if (!my_oneshots.empty()) user.cancel(my_oneshots[rng() % my_oneshots.size()]);
            break;
          }
          case 6: {  // double-cancel
            if (!my_oneshots.empty()) {
              const TimeoutId id = my_oneshots[rng() % my_oneshots.size()];
              user.cancel(id);
              user.cancel(id);
            }
            break;
          }
          default: {  // cancel an id that was never armed
            user.cancel(1'000'000'000ULL + rng() % 1000);
            break;
          }
        }
        if ((rng() & 0x1f) == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
    });
  }
  go.store(true);
  for (auto& t : threads) t.join();

  // Drain phase: cancel every periodic (disarmed at once); the one-shots
  // still armed fire within their <= 15 ms delays.
  for (const auto& [user_idx, id] : periodics) {
    def.users[static_cast<std::size_t>(user_idx)].definition_as<TimerUser>().cancel(id);
  }
  rt->await_quiescence();
  const bool drained = stress::spin_until([&] { return timer.armed_timeouts() == 0; }, 15000);
  EXPECT_TRUE(drained) << "armed=" << timer.armed_timeouts() << " — timeouts leaked";

  long fired = 0;
  for (auto& u : def.users) fired += u.definition_as<TimerUser>().fired.load();
  EXPECT_GT(fired, 0L) << "the storm should actually fire timeouts";
}

TEST(StressTimer, StartStopChurnWithInflightTimeouts) {
  const std::uint64_t seed = stress::announce_seed("StressTimer.StartStop");
  const int kRounds = 25 * stress::scale();

  std::mt19937_64 rng(seed);
  for (int round = 0; round < kRounds; ++round) {
    auto rt = Runtime::threaded(Config{}, 2, 1);
    auto main = rt->bootstrap<Main>();
    auto& def = main.definition_as<Main>();
    rt->await_quiescence();

    // Arm a pile of timers, then tear the whole runtime down while many are
    // still pending — the reactor must stop delivering cleanly, never
    // touching freed state (ASan's surface) or racing shutdown (TSan's).
    for (auto& u : def.users) {
      auto& user = u.definition_as<TimerUser>();
      for (int i = 0; i < 20; ++i) {
        user.one_shot(static_cast<DurationMs>(rng() % 10));
        user.periodic(static_cast<DurationMs>(rng() % 5), 1 + static_cast<DurationMs>(rng() % 3));
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(rng() % 8));
    rt->shutdown();
  }
}

}  // namespace
}  // namespace kompics::timing::test
