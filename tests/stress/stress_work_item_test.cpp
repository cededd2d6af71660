// Stress test: the per-thread work-item caches in front of the global
// work-item pool (component.cpp).
//
//  - Short-lived external threads trigger into a threaded runtime after the
//    pool has been filled, so each refills its cache with a chain of items,
//    uses a few, and exits with the rest still cached. Every event must be
//    delivered, and the ASan lane's LeakSanitizer must find no item lost
//    with an exited thread (the cache is flushed back at thread exit).
//  - Items acquired on the runtime's reactor thread (due timer deadlines)
//    are released on the workers, while an external thread triggers into
//    the same components; the TSan lane patrols the hand-offs.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "kompics/kompics.hpp"
#include "stress_util.hpp"
#include "timing/thread_timer.hpp"

namespace kompics::test {
namespace {

class Ping : public Event {
  KOMPICS_EVENT(Ping, Event);
};
class PingPort : public PortType {
 public:
  PingPort() {
    set_name("StressPingPort");
    negative<Ping>();
  }
};

class Counter : public ComponentDefinition {
 public:
  Counter() {
    subscribe<Ping>(port_, [this](const Ping&) { seen.fetch_add(1); });
  }
  Negative<PingPort> port_ = provide<PingPort>();
  std::atomic<long> seen{0};
};

class CounterMain : public ComponentDefinition {
 public:
  CounterMain() {
    for (int i = 0; i < 4; ++i) counters.push_back(create<Counter>());
  }
  std::vector<Component> counters;
};

PortCore* ping_port(const Component& c) {
  return c.core()->find_port(std::type_index(typeid(PingPort)), true)->outside.get();
}

TEST(StressWorkItem, ShortLivedThreadsExitWithCachedItems) {
  stress::announce_seed("StressWorkItem.ShortLivedThreads");
  const int kThreads = 64;
  const int kWave = 8;  // threads alive at once
  const int kPerThread = 5;
  const int kRounds = stress::scale();

  auto rt = Runtime::threaded(Config{}, 2, 1);
  auto main = rt->bootstrap<CounterMain>();
  auto& def = main.definition_as<CounterMain>();
  rt->await_quiescence();

  long expected = 0;
  for (int round = 0; round < kRounds; ++round) {
    // Fill the global pool: the workers release far more items than their
    // caches hold and spill the surplus there.
    for (int i = 0; i < 4000; ++i) ping_port(def.counters[i % 4])->trigger(make_event<Ping>());
    expected += 4000;
    rt->await_quiescence();

    for (int first = 0; first < kThreads; first += kWave) {
      std::vector<std::thread> wave;
      for (int t = first; t < first + kWave; ++t) {
        wave.emplace_back([&, t] {
          // The first acquire refills this thread's cache with a chain; the
          // thread exits long before using it up.
          for (int i = 0; i < kPerThread; ++i) {
            ping_port(def.counters[static_cast<std::size_t>(t + i) % 4])
                ->trigger(make_event<Ping>());
          }
        });
      }
      for (auto& t : wave) t.join();
      expected += static_cast<long>(kWave) * kPerThread;
    }
    rt->await_quiescence();
  }

  long seen = 0;
  for (const auto& c : def.counters) seen += c.definition_as<Counter>().seen.load();
  EXPECT_EQ(seen, expected);
  rt->shutdown();
}

struct Beat : timing::Timeout {
  KOMPICS_EVENT(Beat, timing::Timeout);
  using timing::Timeout::Timeout;
};

class Beater : public ComponentDefinition {
 public:
  Beater() {
    subscribe<Beat>(timer_, [this](const Beat&) { beats.fetch_add(1); });
    subscribe<Ping>(port_, [this](const Ping&) { pings.fetch_add(1); });
  }
  timing::TimeoutId start() {
    auto ev = timing::schedule_periodic<Beat>(1, 1);
    trigger(ev, timer_);
    return ev->timeout_id();
  }
  void cancel(timing::TimeoutId id) { trigger(make_event<timing::CancelTimeout>(id), timer_); }

  Positive<timing::Timer> timer_ = require<timing::Timer>();
  Negative<PingPort> port_ = provide<PingPort>();
  std::atomic<long> beats{0};
  std::atomic<long> pings{0};
};

class BeatMain : public ComponentDefinition {
 public:
  BeatMain() {
    timer = create<timing::ThreadTimer>();
    for (int i = 0; i < 8; ++i) {
      beaters.push_back(create<Beater>());
      connect(timer.provided<timing::Timer>(), beaters.back().required<timing::Timer>());
    }
  }
  Component timer;
  std::vector<Component> beaters;
};

TEST(StressWorkItem, ReactorAcquiredItemsReleasedOnWorkers) {
  stress::announce_seed("StressWorkItem.ReactorToWorkers");
  // Every Beat fans out to all eight beaters: ~8 per millisecond each.
  const long kBeatsEach = 2000L * stress::scale();
  const int kBudgetMs = 120000;

  auto rt = Runtime::threaded(Config{}, 2, 1);
  auto main = rt->bootstrap<BeatMain>();
  auto& def = main.definition_as<BeatMain>();
  rt->await_quiescence();

  std::vector<timing::TimeoutId> ids;
  for (const auto& b : def.beaters) ids.push_back(b.definition_as<Beater>().start());

  // Meanwhile an external thread acquires items for the same components.
  std::atomic<bool> stop{false};
  std::atomic<long> pings_sent{0};
  std::thread pinger([&] {
    std::size_t i = 0;
    while (!stop.load()) {
      ping_port(def.beaters[i++ % def.beaters.size()])->trigger(make_event<Ping>());
      pings_sent.fetch_add(1);
      if (i % 16 == 0) std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  const bool all_beat = stress::spin_until(
      [&] {
        for (const auto& b : def.beaters) {
          if (b.definition_as<Beater>().beats.load() < kBeatsEach) return false;
        }
        return true;
      },
      kBudgetMs);
  stop.store(true);
  pinger.join();
  EXPECT_TRUE(all_beat) << "every periodic timer must keep firing";

  for (std::size_t i = 0; i < ids.size(); ++i) {
    def.beaters[i].definition_as<Beater>().cancel(ids[i]);
  }
  ASSERT_TRUE(rt->await_quiescence_for(kBudgetMs));
  long pings = 0;
  for (const auto& b : def.beaters) pings += b.definition_as<Beater>().pings.load();
  EXPECT_EQ(pings, pings_sent.load());
  rt->shutdown();
}

}  // namespace
}  // namespace kompics::test
