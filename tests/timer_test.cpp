// ThreadTimer tests (real time, kept short): one-shot delivery, periodic
// re-arming, cancellation, and correlation ids.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "kompics/kompics.hpp"
#include "timing/thread_timer.hpp"

namespace kompics::timing::test {
namespace {

struct Beep : Timeout {
  KOMPICS_EVENT(Beep, Timeout);

  Beep(TimeoutId id, int tag) : Timeout(id), tag(tag) {}
  int tag;
};

class TimerUser : public ComponentDefinition {
 public:
  TimerUser() {
    subscribe<Beep>(timer_, [this](const Beep& b) {
      last_tag.store(b.tag);
      last_id.store(b.id());
      fired.fetch_add(1);
    });
  }

  TimeoutId one_shot(DurationMs d, int tag) {
    auto ev = schedule<Beep>(d, tag);
    trigger(ev, timer_);
    return ev->timeout_id();
  }
  TimeoutId periodic(DurationMs initial, DurationMs period, int tag) {
    auto ev = schedule_periodic<Beep>(initial, period, tag);
    trigger(ev, timer_);
    return ev->timeout_id();
  }
  void cancel(TimeoutId id) { trigger(make_event<CancelTimeout>(id), timer_); }

  Positive<Timer> timer_ = require<Timer>();
  std::atomic<int> fired{0};
  std::atomic<int> last_tag{0};
  std::atomic<TimeoutId> last_id{0};
};

class TimerMain : public ComponentDefinition {
 public:
  TimerMain() {
    timer = create<ThreadTimer>();
    user = create<TimerUser>();
    connect(timer.provided<Timer>(), user.required<Timer>());
  }
  Component timer, user;
};

struct TimerFixture : ::testing::Test {
  void SetUp() override {
    rt = Runtime::threaded(Config{}, 2, 1);
    main = rt->bootstrap<TimerMain>();
    rt->await_quiescence();
    user = &main.definition_as<TimerMain>().user.definition_as<TimerUser>();
  }
  void wait_until(std::function<bool()> cond, int ms_budget) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(ms_budget);
    while (!cond() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  std::unique_ptr<Runtime> rt;
  Component main;
  TimerUser* user = nullptr;
};

TEST_F(TimerFixture, OneShotFiresOnceWithCorrelationId) {
  const TimeoutId id = user->one_shot(30, 42);
  wait_until([&] { return user->fired.load() >= 1; }, 2000);
  EXPECT_EQ(user->fired.load(), 1);
  EXPECT_EQ(user->last_tag.load(), 42);
  EXPECT_EQ(user->last_id.load(), id);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_EQ(user->fired.load(), 1) << "one-shot must not re-fire";
}

TEST_F(TimerFixture, PeriodicFiresRepeatedlyUntilCancelled) {
  const TimeoutId id = user->periodic(10, 20, 7);
  wait_until([&] { return user->fired.load() >= 4; }, 3000);
  EXPECT_GE(user->fired.load(), 4);
  user->cancel(id);
  rt->await_quiescence();
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  const int after_cancel = user->fired.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_LE(user->fired.load(), after_cancel + 1) << "cancellation must stop the stream";
}

TEST_F(TimerFixture, CancelBeforeExpiryPreventsDelivery) {
  const TimeoutId id = user->one_shot(150, 9);
  user->cancel(id);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(user->fired.load(), 0);
}

TEST_F(TimerFixture, ManyTimersFireInDeadlineOrderApproximately) {
  // Schedule in reverse order; the earliest deadline must fire first.
  user->one_shot(120, 3);
  user->one_shot(60, 2);
  user->one_shot(20, 1);
  wait_until([&] { return user->fired.load() >= 1; }, 2000);
  EXPECT_EQ(user->last_tag.load(), 1);
  wait_until([&] { return user->fired.load() >= 3; }, 2000);
  EXPECT_EQ(user->fired.load(), 3);
  EXPECT_EQ(user->last_tag.load(), 3);
}

// ---- cancellation bookkeeping (leak regression) -----------------------------

TEST_F(TimerFixture, CancelAfterFireDoesNotLeakBookkeeping) {
  auto& timer = main.definition_as<TimerMain>().timer.definition_as<ThreadTimer>();
  const TimeoutId id = user->one_shot(10, 1);
  wait_until([&] { return user->fired.load() >= 1; }, 2000);
  ASSERT_EQ(user->fired.load(), 1);

  // Cancelling a timeout that already fired must be a no-op, not a
  // permanent entry in the cancelled set.
  user->cancel(id);
  rt->await_quiescence();
  EXPECT_EQ(timer.pending_cancellations(), 0u) << "cancel-after-fire leaked the id";
  EXPECT_EQ(timer.armed_timeouts(), 0u);

  // Double-cancel after fire: still nothing retained.
  user->cancel(id);
  user->cancel(id);
  rt->await_quiescence();
  EXPECT_EQ(timer.pending_cancellations(), 0u) << "double-cancel leaked the id";
}

TEST_F(TimerFixture, CancelOfNeverArmedIdDoesNotLeak) {
  auto& timer = main.definition_as<TimerMain>().timer.definition_as<ThreadTimer>();
  user->cancel(fresh_timeout_id());  // valid id, but never scheduled
  user->cancel(424242424242ULL);     // arbitrary junk id
  rt->await_quiescence();
  EXPECT_EQ(timer.pending_cancellations(), 0u) << "never-armed cancels must be ignored";
}

TEST_F(TimerFixture, CancelBeforeExpiryIsConsumedAtDeadline) {
  auto& timer = main.definition_as<TimerMain>().timer.definition_as<ThreadTimer>();
  const TimeoutId id = user->one_shot(150, 5);
  user->cancel(id);
  rt->await_quiescence();
  // Recorded while the entry is still armed (unless the machine stalled
  // past the deadline, in which case it is already consumed)...
  EXPECT_LE(timer.pending_cancellations(), 1u);
  // ...and consumed (not delivered) when the deadline passes.
  wait_until([&] { return timer.pending_cancellations() == 0; }, 3000);
  EXPECT_EQ(timer.pending_cancellations(), 0u);
  EXPECT_EQ(timer.armed_timeouts(), 0u);
  EXPECT_EQ(user->fired.load(), 0);
}

TEST_F(TimerFixture, PeriodicCancelDrainsBookkeeping) {
  auto& timer = main.definition_as<TimerMain>().timer.definition_as<ThreadTimer>();
  const TimeoutId id = user->periodic(5, 10, 3);
  wait_until([&] { return user->fired.load() >= 2; }, 3000);
  user->cancel(id);
  wait_until(
      [&] { return timer.pending_cancellations() == 0 && timer.armed_timeouts() == 0; }, 3000);
  EXPECT_EQ(timer.pending_cancellations(), 0u);
  EXPECT_EQ(timer.armed_timeouts(), 0u) << "cancelled periodic must leave the heap";
}

TEST(TimerIds, FreshTimeoutIdsAreUnique) {
  const auto a = fresh_timeout_id();
  const auto b = fresh_timeout_id();
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace kompics::timing::test
