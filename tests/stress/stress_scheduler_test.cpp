// Stress driver: the work-stealing scheduler under park/wake churn and
// forced steal pressure. Small bursts separated by quiescence make every
// worker park between rounds, hitting the sleep/notify/epoch machinery on
// each burst — the surface of the missed-wakeup fix. The imbalanced
// variant fans all work out from one worker so the others must steal to
// finish. Both check the executed-vs-scheduled ledger of stats().

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>
#include <vector>

#include "kompics/kompics.hpp"
#include "kompics/work_stealing_scheduler.hpp"
#include "stress_util.hpp"

namespace kompics::test {
namespace {

class Tick : public Event {
  KOMPICS_EVENT(Tick, Event);
};
class TickPort : public PortType {
 public:
  TickPort() {
    set_name("StressTickPort");
    negative<Tick>();
    positive<Tick>();
  }
};

class CountingSink : public ComponentDefinition {
 public:
  CountingSink() {
    subscribe<Tick>(port_, [this](const Tick&) {
      volatile double x = 1.0;
      for (int i = 0; i < 100; ++i) x = x * 1.0000001 + 0.5;
      (void)x;
      done.fetch_add(1);
    });
  }
  Negative<TickPort> port_ = provide<TickPort>();
  std::atomic<long> done{0};
};

class FarmMain : public ComponentDefinition {
 public:
  explicit FarmMain(int n) {
    for (int i = 0; i < n; ++i) sinks.push_back(create<CountingSink>());
  }
  std::vector<Component> sinks;
};

PortCore* tick_port(const Component& c) {
  return c.core()->find_port(std::type_index(typeid(TickPort)), true)->outside.get();
}

TEST(StressScheduler, ParkWakeChurnLosesNoWork) {
  const std::uint64_t seed = stress::announce_seed("StressScheduler.ParkWake");
  const int kComponents = 8;
  const int kRounds = 300 * stress::scale();

  WorkStealingScheduler::Options opts;
  opts.workers = 4;
  auto scheduler = std::make_unique<WorkStealingScheduler>(opts);
  auto* sched = scheduler.get();
  Runtime rt(Config{}, std::move(scheduler), std::make_unique<WallClock>(), 1);
  auto main = rt.bootstrap<FarmMain>(kComponents);
  auto& def = main.definition_as<FarmMain>();
  rt.await_quiescence();

  const auto baseline = sched->stats();
  std::mt19937_64 rng(seed);
  long sent = 0;
  for (int round = 0; round < kRounds; ++round) {
    // 1-3 events to random components: too little work for every worker,
    // so most park and must be woken (or steal) next round.
    const int burst = 1 + static_cast<int>(rng() % 3);
    for (int i = 0; i < burst; ++i) {
      tick_port(def.sinks[rng() % kComponents])->trigger(make_event<Tick>());
      ++sent;
    }
    rt.await_quiescence();
  }

  long done = 0;
  for (auto& s : def.sinks) done += s.definition_as<CountingSink>().done.load();
  EXPECT_EQ(done, sent) << "park/wake churn dropped or duplicated work";
  const auto stats = sched->stats();
  EXPECT_EQ(stats.executed - baseline.executed, static_cast<std::uint64_t>(sent))
      << "stats ledger must match scheduled work exactly";
  // Idle workers park within ~1 ms of running dry, but on a loaded (or
  // single-CPU) host the whole burst loop can finish before any worker
  // accumulates enough empty probes — so wait for the first park rather
  // than assuming one already happened.
  stress::spin_until([&] { return sched->stats().parks > baseline.parks; }, 5000);
  EXPECT_GT(sched->stats().parks, baseline.parks) << "idle workers should park";
}

/// Fans one Tick out to every connected sink, so all resulting ready
/// components are born on the spreader's worker.
class Spreader : public ComponentDefinition {
 public:
  Spreader() {
    subscribe<Tick>(out_, [this](const Tick&) { trigger(make_event<Tick>(), out_); });
  }
  Negative<TickPort> out_ = provide<TickPort>();
};

class StealSink : public ComponentDefinition {
 public:
  StealSink() {
    subscribe<Tick>(port_, [this](const Tick&) {
      volatile double x = 1.0;
      for (int i = 0; i < 200; ++i) x = x * 1.0000001 + 0.5;
      (void)x;
      done.fetch_add(1);
    });
  }
  Positive<TickPort> port_ = require<TickPort>();
  std::atomic<long> done{0};
};

class ImbalancedMain : public ComponentDefinition {
 public:
  explicit ImbalancedMain(int n) {
    spreader = create<Spreader>();
    for (int i = 0; i < n; ++i) {
      sinks.push_back(create<StealSink>());
      connect(spreader.provided<TickPort>(), sinks.back().required<TickPort>());
    }
  }
  Component spreader;
  std::vector<Component> sinks;
};

TEST(StressScheduler, StealChurnUnderParkWakePressure) {
  const std::uint64_t seed = stress::announce_seed("StressScheduler.Steal");
  const int kSinks = 16;
  const int kBursts = 120 * stress::scale();

  WorkStealingScheduler::Options opts;
  opts.workers = 4;
  auto scheduler = std::make_unique<WorkStealingScheduler>(opts);
  auto* sched = scheduler.get();
  Runtime rt(Config{}, std::move(scheduler), std::make_unique<WallClock>(), 1);
  auto main = rt.bootstrap<ImbalancedMain>(kSinks);
  auto& def = main.definition_as<ImbalancedMain>();
  rt.await_quiescence();

  auto* spread = def.spreader.core()->find_port(std::type_index(typeid(TickPort)), true);
  std::mt19937_64 rng(seed);
  for (int b = 0; b < kBursts; ++b) {
    spread->inside->trigger(make_event<Tick>());
    // Random quiescence points force full drain + re-park between some
    // bursts and back-to-back injection between others.
    if ((rng() & 3) == 0) rt.await_quiescence();
  }
  rt.await_quiescence();

  long done = 0;
  for (auto& s : def.sinks) done += s.definition_as<StealSink>().done.load();
  EXPECT_EQ(done, static_cast<long>(kSinks) * kBursts);
  const auto stats = sched->stats();
  EXPECT_GT(stats.steals, 0u) << "fan-out imbalance should force steals";
}

/// Multi-threaded external producers: schedule() racing from outside the
/// worker pool while workers park and wake.
TEST(StressScheduler, ExternalProducersRaceParkedWorkers) {
  const std::uint64_t seed = stress::announce_seed("StressScheduler.External");
  const int kComponents = 4;
  const int kThreads = 4;
  const int kPerThread = 2000 * stress::scale();

  auto rt = Runtime::threaded(Config{}, 4, 1);
  auto main = rt->bootstrap<FarmMain>(kComponents);
  auto& def = main.definition_as<FarmMain>();
  rt->await_quiescence();

  std::vector<PortCore*> ports;
  for (auto& s : def.sinks) ports.push_back(tick_port(s));

  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(seed + static_cast<std::uint64_t>(t));
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kPerThread; ++i) {
        ports[rng() % kComponents]->trigger(make_event<Tick>());
        // Occasional long pauses let workers park mid-stream.
        if ((rng() & 0xff) == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
    });
  }
  go.store(true);
  for (auto& t : threads) t.join();
  rt->await_quiescence();

  long done = 0;
  for (auto& s : def.sinks) done += s.definition_as<CountingSink>().done.load();
  EXPECT_EQ(done, static_cast<long>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace kompics::test
