// Tests for the simulation substrate: SimulatorCore ordering, virtual-time
// timers, the network emulator (latency/loss/partitions), deterministic
// replay, and the scenario DSL composition semantics (paper §3, §4.2, §4.4).

#include <gtest/gtest.h>

#include <vector>

#include "net/network_port.hpp"
#include "sim/network_emulator.hpp"
#include "sim/scenario.hpp"
#include "sim/sim_timer.hpp"
#include "sim/simulation.hpp"
#include "timing/timer_port.hpp"

namespace kompics::sim::test {
namespace {

using net::Address;
using net::Message;
using net::Network;

// ---- SimulatorCore ----------------------------------------------------------

TEST(SimulatorCore, ExecutesInTimeOrderWithFifoTies) {
  SimulatorCore core;
  std::vector<int> order;
  core.schedule(10, [&] { order.push_back(2); });
  core.schedule(5, [&] { order.push_back(1); });
  core.schedule(10, [&] { order.push_back(3); });  // same time: insertion order
  core.schedule(20, [&] { order.push_back(4); });
  while (core.advance_one()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(core.now(), 20);
}

TEST(SimulatorCore, CancelPreventsExecution) {
  SimulatorCore core;
  int fired = 0;
  const ActionId a = core.schedule(5, [&] { ++fired; });
  core.schedule(10, [&] { ++fired; });
  core.cancel(a);
  while (core.advance_one()) {
  }
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(core.now(), 10);
}

TEST(SimulatorCore, ActionsCanScheduleMoreActions) {
  SimulatorCore core;
  std::vector<TimeMs> times;
  std::function<void()> tick = [&] {
    times.push_back(core.now());
    if (times.size() < 5) core.schedule(7, tick);
  };
  core.schedule(0, tick);
  while (core.advance_one()) {
  }
  EXPECT_EQ(times, (std::vector<TimeMs>{0, 7, 14, 21, 28}));
}

// ---- SimTimer through a consumer component ---------------------------------

struct TickTimeout : timing::Timeout {
  KOMPICS_EVENT(TickTimeout, timing::Timeout);

  using Timeout::Timeout;
};

class TimerUser : public ComponentDefinition {
 public:
  TimerUser() {
    subscribe<TickTimeout>(timer_, [this](const TickTimeout& t) {
      fire_times.push_back(now());
      last_id = t.id();
    });
  }
  void one_shot(DurationMs d) { trigger(timing::schedule<TickTimeout>(d), timer_); }
  timing::TimeoutId periodic(DurationMs initial, DurationMs period) {
    auto ev = timing::schedule_periodic<TickTimeout>(initial, period);
    trigger(ev, timer_);
    return ev->timeout_id();
  }
  void cancel(timing::TimeoutId id) { trigger(make_event<timing::CancelTimeout>(id), timer_); }

  Positive<timing::Timer> timer_ = require<timing::Timer>();
  std::vector<TimeMs> fire_times;
  timing::TimeoutId last_id = 0;
};

class TimerMain : public ComponentDefinition {
 public:
  explicit TimerMain(SimulatorCore* core) {
    timer = create<SimTimer>();
    trigger(make_event<SimTimer::Init>(core), timer.control());
    user = create<TimerUser>();
    connect(timer.provided<timing::Timer>(), user.required<timing::Timer>());
  }
  Component timer, user;
};

TEST(SimTimer, OneShotFiresAtVirtualDeadline) {
  Simulation sim;
  auto main = sim.bootstrap<TimerMain>(&sim.core());
  sim.run();
  auto& user = main.definition_as<TimerMain>().user.definition_as<TimerUser>();
  user.one_shot(123);
  sim.run();
  ASSERT_EQ(user.fire_times.size(), 1u);
  EXPECT_EQ(user.fire_times[0], 123);
}

TEST(SimTimer, PeriodicFiresUntilCancelled) {
  Simulation sim;
  auto main = sim.bootstrap<TimerMain>(&sim.core());
  sim.run();
  auto& user = main.definition_as<TimerMain>().user.definition_as<TimerUser>();
  const auto id = user.periodic(10, 50);
  sim.run_until(180);
  EXPECT_EQ(user.fire_times, (std::vector<TimeMs>{10, 60, 110, 160}));
  user.cancel(id);
  sim.run_until(1000);
  EXPECT_EQ(user.fire_times.size(), 4u);
}

// ---- network emulator -------------------------------------------------------

class SimPing : public Message {
  KOMPICS_EVENT(SimPing, Message);

 public:
  SimPing(Address s, Address d, int n) : Message(s, d), n(n) {}
  int n;
};

class SimNode : public ComponentDefinition {
 public:
  SimNode() {
    subscribe<SimPing>(network_, [this](const SimPing& p) {
      received.push_back({p.n, now()});
    });
  }
  void send(Address from, Address to, int n) {
    trigger(make_event<SimPing>(from, to, n), network_);
  }
  Positive<Network> network_ = require<Network>();
  std::vector<std::pair<int, TimeMs>> received;
};

class EmuPairMain : public ComponentDefinition {
 public:
  explicit EmuPairMain(SimNetworkHubPtr hub) {
    netA = create<NetworkEmulator>();
    trigger(make_event<NetworkEmulator::Init>(Address::node(1), hub), netA.control());
    netB = create<NetworkEmulator>();
    trigger(make_event<NetworkEmulator::Init>(Address::node(2), hub), netB.control());
    nodeA = create<SimNode>();
    nodeB = create<SimNode>();
    connect(netA.provided<Network>(), nodeA.required<Network>());
    connect(netB.provided<Network>(), nodeB.required<Network>());
  }
  Component netA, netB, nodeA, nodeB;
};

TEST(NetworkEmulator, DeliversWithModelLatency) {
  Simulation sim;
  LinkModel model;
  model.min_latency = 7;
  model.max_latency = 7;
  auto hub = std::make_shared<SimNetworkHub>(&sim.core(), 99, model);
  auto main = sim.bootstrap<EmuPairMain>(hub);
  sim.run();
  auto& def = main.definition_as<EmuPairMain>();
  def.nodeA.definition_as<SimNode>().send(Address::node(1), Address::node(2), 42);
  sim.run();
  auto& received = def.nodeB.definition_as<SimNode>().received;
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].first, 42);
  EXPECT_EQ(received[0].second, 7);
  EXPECT_EQ(hub->stats().delivered, 1u);
}

TEST(NetworkEmulator, FullLossDropsEverything) {
  Simulation sim;
  LinkModel model;
  model.loss = 1.0;
  auto hub = std::make_shared<SimNetworkHub>(&sim.core(), 99, model);
  auto main = sim.bootstrap<EmuPairMain>(hub);
  sim.run();
  auto& def = main.definition_as<EmuPairMain>();
  for (int i = 0; i < 10; ++i) {
    def.nodeA.definition_as<SimNode>().send(Address::node(1), Address::node(2), i);
  }
  sim.run();
  EXPECT_TRUE(def.nodeB.definition_as<SimNode>().received.empty());
  EXPECT_EQ(hub->stats().lost, 10u);
}

TEST(NetworkEmulator, PartitionBlocksCrossGroupTraffic) {
  Simulation sim;
  auto hub = std::make_shared<SimNetworkHub>(&sim.core(), 99);
  auto main = sim.bootstrap<EmuPairMain>(hub);
  sim.run();
  auto& def = main.definition_as<EmuPairMain>();

  hub->partition({{1}, {2}});
  def.nodeA.definition_as<SimNode>().send(Address::node(1), Address::node(2), 1);
  sim.run();
  EXPECT_TRUE(def.nodeB.definition_as<SimNode>().received.empty());
  EXPECT_EQ(hub->stats().partitioned, 1u);

  hub->heal();
  def.nodeA.definition_as<SimNode>().send(Address::node(1), Address::node(2), 2);
  sim.run();
  EXPECT_EQ(def.nodeB.definition_as<SimNode>().received.size(), 1u);
}

TEST(NetworkEmulator, FifoLinksPreserveSendOrder) {
  Simulation sim;
  LinkModel model;
  model.min_latency = 1;
  model.max_latency = 50;  // heavy jitter
  model.fifo = true;
  auto hub = std::make_shared<SimNetworkHub>(&sim.core(), 7, model);
  auto main = sim.bootstrap<EmuPairMain>(hub);
  sim.run();
  auto& def = main.definition_as<EmuPairMain>();
  for (int i = 0; i < 50; ++i) {
    def.nodeA.definition_as<SimNode>().send(Address::node(1), Address::node(2), i);
  }
  sim.run();
  const auto& received = def.nodeB.definition_as<SimNode>().received;
  ASSERT_EQ(received.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(received[i].first, i);
}

// Determinism: identical seeds produce identical delivery traces; different
// seeds (with jitter) produce different ones.
std::vector<std::pair<int, TimeMs>> run_jitter_trace(std::uint64_t seed) {
  Simulation sim(Config{}, seed);
  LinkModel model;
  model.min_latency = 1;
  model.max_latency = 100;
  model.loss = 0.2;
  auto hub = std::make_shared<SimNetworkHub>(&sim.core(), seed, model);
  auto main = sim.bootstrap<EmuPairMain>(hub);
  sim.run();
  auto& def = main.definition_as<EmuPairMain>();
  for (int i = 0; i < 100; ++i) {
    def.nodeA.definition_as<SimNode>().send(Address::node(1), Address::node(2), i);
  }
  sim.run();
  return def.nodeB.definition_as<SimNode>().received;
}

TEST(Determinism, SameSeedSameTrace) {
  const auto t1 = run_jitter_trace(12345);
  const auto t2 = run_jitter_trace(12345);
  EXPECT_EQ(t1, t2);
}

TEST(Determinism, DifferentSeedDifferentTrace) {
  const auto t1 = run_jitter_trace(1);
  const auto t2 = run_jitter_trace(2);
  EXPECT_NE(t1, t2);
}

// ---- scenario DSL -----------------------------------------------------------

TEST(Scenario, RaisesExactCountsWithInterArrival) {
  Simulation sim;
  Scenario scenario(7);
  int count = 0;
  auto p = scenario.process("boot");
  p->inter_arrival(Dist::constant(10)).raise(25, [&] { ++count; });
  scenario.start(p);
  scenario.run(sim);
  EXPECT_EQ(count, 25);
  EXPECT_EQ(sim.now(), 250);  // 25 events, 10 ms apart, first at t=10
}

TEST(Scenario, OperandsComeFromDistributions) {
  Simulation sim;
  Scenario scenario(7);
  std::vector<std::uint64_t> ids;
  auto p = scenario.process("joins");
  p->inter_arrival(Dist::constant(1))
      .raise(200, [&](std::uint64_t id) { ids.push_back(id); }, Dist::uniform_bits(8));
  scenario.start(p);
  scenario.run(sim);
  ASSERT_EQ(ids.size(), 200u);
  for (auto v : ids) EXPECT_LT(v, 256u);
  // Not all identical (it is a distribution).
  EXPECT_NE(*std::min_element(ids.begin(), ids.end()),
            *std::max_element(ids.begin(), ids.end()));
}

TEST(Scenario, GroupsInterleaveRandomly) {
  Simulation sim;
  Scenario scenario(11);
  std::vector<int> sequence;
  auto churn = scenario.process("churn");
  churn->inter_arrival(Dist::constant(1))
      .raise(50, [&] { sequence.push_back(1); })
      .raise(50, [&] { sequence.push_back(2); });
  scenario.start(churn);
  scenario.run(sim);
  ASSERT_EQ(sequence.size(), 100u);
  EXPECT_EQ(std::count(sequence.begin(), sequence.end(), 1), 50);
  // Interleaved, not two solid blocks.
  bool mixed = false;
  for (std::size_t i = 1; i < 50; ++i) {
    if (sequence[i] != sequence[0]) mixed = true;
  }
  EXPECT_TRUE(mixed);
}

TEST(Scenario, SequentialAndParallelComposition) {
  Simulation sim;
  Scenario scenario(3);
  std::vector<std::pair<char, TimeMs>> trace;
  auto boot = scenario.process("boot");
  boot->inter_arrival(Dist::constant(5)).raise(3, [&] { trace.push_back({'b', sim.now()}); });
  auto churn = scenario.process("churn");
  churn->inter_arrival(Dist::constant(5)).raise(3, [&] { trace.push_back({'c', sim.now()}); });
  auto lookups = scenario.process("lookups");
  lookups->inter_arrival(Dist::constant(2)).raise(4, [&] { trace.push_back({'l', sim.now()}); });

  scenario.start(boot);
  scenario.start_after_termination_of(100, boot, churn);          // sequential
  scenario.start_after_start_of(4, churn, lookups);               // parallel
  scenario.terminate_after_termination_of(50, lookups);
  scenario.run(sim);

  // boot: t=5,10,15. churn starts at 115: fires 120,125,130.
  // lookups start at 119: fires 121,123,125,127. Termination: 127+50=177.
  ASSERT_EQ(trace.size(), 10u);
  EXPECT_EQ(trace[0], std::make_pair('b', TimeMs{5}));
  EXPECT_EQ(trace[2], std::make_pair('b', TimeMs{15}));
  TimeMs churn_start = 0, lookup_start = 0;
  for (auto& [c, t] : trace) {
    if (c == 'c' && churn_start == 0) churn_start = t;
    if (c == 'l' && lookup_start == 0) lookup_start = t;
  }
  EXPECT_EQ(churn_start, 120);
  EXPECT_EQ(lookup_start, 121);
  EXPECT_TRUE(scenario.terminated());
  EXPECT_EQ(sim.now(), 177);
}

TEST(Scenario, SameSeedReplaysIdentically) {
  auto run_once = [](std::uint64_t seed) {
    Simulation sim;
    Scenario scenario(seed);
    std::vector<std::pair<std::uint64_t, TimeMs>> trace;
    auto p = scenario.process("ops");
    p->inter_arrival(Dist::exponential(20))
        .raise(100, [&](std::uint64_t v) { trace.push_back({v, sim.now()}); },
               Dist::uniform_bits(16));
    scenario.start(p);
    scenario.run(sim);
    return trace;
  };
  EXPECT_EQ(run_once(42), run_once(42));
  EXPECT_NE(run_once(42), run_once(43));
}

}  // namespace
}  // namespace kompics::sim::test
