// Edge cases of the simulation substrate: tombstoned cancellations, stop()
// from inside actions, virtual-time advancement with empty windows, timer
// cancellation races, emulator self-sends, and the real-time scenario mode.

#include <gtest/gtest.h>

#include <chrono>

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

TEST(SimulatorCoreEdge, CancelAfterFireIsHarmless) {
  SimulatorCore core;
  int fired = 0;
  const ActionId a = core.schedule(1, [&] { ++fired; });
  EXPECT_TRUE(core.advance_one());
  core.cancel(a);  // already fired: tombstone must not break anything
  core.schedule(2, [&] { ++fired; });
  EXPECT_TRUE(core.advance_one());
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorCoreEdge, CancelFromInsideAnAction) {
  SimulatorCore core;
  int fired = 0;
  ActionId later = 0;
  core.schedule(1, [&] { core.cancel(later); });
  later = core.schedule(5, [&] { ++fired; });
  while (core.advance_one()) {
  }
  EXPECT_EQ(fired, 0);
}

TEST(SimulatorCoreEdge, AdvanceToMovesTimeWithoutEvents) {
  SimulatorCore core;
  core.advance_to(1000);
  EXPECT_EQ(core.now(), 1000);
  core.advance_to(500);  // never backwards
  EXPECT_EQ(core.now(), 1000);
}

TEST(SimulationEdge, StopFromInsideAnActionHaltsTheLoop) {
  Simulation sim;
  int after_stop = 0;
  sim.core().schedule(10, [&] { sim.stop(); });
  sim.core().schedule(20, [&] { ++after_stop; });
  sim.run();
  EXPECT_EQ(after_stop, 0);
  EXPECT_EQ(sim.now(), 10);
  // The remaining action is still pending and runs if resumed.
  sim.run();
  EXPECT_EQ(after_stop, 1);
}

TEST(SimulationEdge, RunUntilAdvancesClockThroughEmptyWindows) {
  Simulation sim;
  EXPECT_FALSE(sim.run_until(5000)) << "ran dry";
  EXPECT_EQ(sim.now(), 5000) << "virtual time still passes";
  sim.core().schedule(1000, [] {});
  EXPECT_TRUE(sim.run_until(5500));
  EXPECT_EQ(sim.now(), 5500);
}

// ---- SimTimer edges -----------------------------------------------------------

struct Tk : timing::Timeout {
  KOMPICS_EVENT(Tk, timing::Timeout);

  using Timeout::Timeout;
};

class TimerUser : public ComponentDefinition {
 public:
  TimerUser() {
    subscribe<Tk>(timer_, [this](const Tk&) { ++fired; });
  }
  timing::TimeoutId periodic(DurationMs initial, DurationMs period) {
    auto ev = timing::schedule_periodic<Tk>(initial, period);
    trigger(ev, timer_);
    return ev->timeout_id();
  }
  void cancel(timing::TimeoutId id) {
    trigger(make_event<timing::CancelTimeout>(id), timer_);
  }
  Positive<timing::Timer> timer_ = require<timing::Timer>();
  int fired = 0;
};

class TimerWorld : public ComponentDefinition {
 public:
  explicit TimerWorld(SimulatorCore* core) {
    timer = create<SimTimer>();
    timer.control()->trigger(make_event<SimTimer::Init>(core));
    user = create<TimerUser>();
    connect(timer.provided<timing::Timer>(), user.required<timing::Timer>());
  }
  Component timer, user;
};

TEST(SimTimerEdge, CancelPeriodicBeforeFirstFire) {
  Simulation sim;
  auto main = sim.bootstrap<TimerWorld>(&sim.core());
  sim.run_until(1);
  auto& user = main.definition_as<TimerWorld>().user.definition_as<TimerUser>();
  const auto id = user.periodic(100, 100);
  sim.run_until(50);
  user.cancel(id);
  sim.run_until(2000);
  EXPECT_EQ(user.fired, 0);
}

TEST(SimTimerEdge, ZeroPeriodIsClampedNotInfinite) {
  Simulation sim;
  auto main = sim.bootstrap<TimerWorld>(&sim.core());
  sim.run_until(1);
  auto& user = main.definition_as<TimerWorld>().user.definition_as<TimerUser>();
  const auto id = user.periodic(1, 0);  // degenerate period
  sim.run_until(50);
  user.cancel(id);
  EXPECT_GT(user.fired, 10);
  EXPECT_LT(user.fired, 100) << "a zero period must not create a same-instant livelock";
}

// ---- emulator edges --------------------------------------------------------------

class Echo : public Message {
  KOMPICS_EVENT(Echo, Message);

 public:
  Echo(Address s, Address d, int n) : Message(s, d), n(n) {}
  int n;
};

class SelfSender : public ComponentDefinition {
 public:
  SelfSender() {
    subscribe<Echo>(network_, [this](const Echo& e) { got.push_back(e.n); });
  }
  void send_self(Address self, int n) {
    trigger(make_event<Echo>(self, self, n), network_);
  }
  void send_to(Address self, Address dest, int n) {
    trigger(make_event<Echo>(self, dest, n), network_);
  }
  Positive<Network> network_ = require<Network>();
  std::vector<int> got;
};

TEST(EmulatorEdge, MessageToSelfIsDeliveredThroughTheModel) {
  Simulation sim;
  auto hub = std::make_shared<SimNetworkHub>(&sim.core(), 1, LinkModel{3, 3, 0.0, false});
  class W : public ComponentDefinition {
   public:
    explicit W(SimNetworkHubPtr hub) {
      net = create<NetworkEmulator>();
      net.control()->trigger(make_event<NetworkEmulator::Init>(Address::node(1), hub));
      app = create<SelfSender>();
      connect(net.provided<Network>(), app.required<Network>());
    }
    Component net, app;
  };
  auto main = sim.bootstrap<W>(hub);
  sim.run_until(1);
  main.definition_as<W>().app.definition_as<SelfSender>().send_self(Address::node(1), 5);
  sim.run_until(2);
  EXPECT_TRUE(main.definition_as<W>().app.definition_as<SelfSender>().got.empty())
      << "self-sends also pay the modeled latency";
  sim.run_until(10);
  EXPECT_EQ(main.definition_as<W>().app.definition_as<SelfSender>().got,
            (std::vector<int>{5}));
}

TEST(EmulatorEdge, OneWayPartitionBlocksOnlyTheNamedDirection) {
  Simulation sim;
  auto hub = std::make_shared<SimNetworkHub>(&sim.core(), 1, LinkModel{1, 1, 0.0, false});
  class W : public ComponentDefinition {
   public:
    explicit W(SimNetworkHubPtr hub) {
      for (int i = 0; i < 2; ++i) {
        net[i] = create<NetworkEmulator>();
        net[i].control()->trigger(
            make_event<NetworkEmulator::Init>(Address::node(1 + i), hub));
        app[i] = create<SelfSender>();
        connect(net[i].provided<Network>(), app[i].required<Network>());
      }
    }
    Component net[2], app[2];
  };
  auto main = sim.bootstrap<W>(hub);
  sim.run_until(1);
  auto& w = main.definition_as<W>();
  auto send = [&](int from, int to, int n) {
    w.app[from].definition_as<SelfSender>().send_to(Address::node(1 + from),
                                                    Address::node(1 + to), n);
  };

  // Mute host 1 toward host 2; the reverse direction must still deliver.
  hub->partition_oneway({1}, {2});
  send(0, 1, 10);
  send(1, 0, 20);
  sim.run_until(10);
  EXPECT_TRUE(w.app[1].definition_as<SelfSender>().got.empty())
      << "blocked direction must drop";
  EXPECT_EQ(w.app[0].definition_as<SelfSender>().got, (std::vector<int>{20}))
      << "reverse direction must flow";
  EXPECT_EQ(hub->stats().partitioned, 1u);

  // heal() clears directional rules too.
  hub->heal();
  send(0, 1, 11);
  sim.run_until(20);
  EXPECT_EQ(w.app[1].definition_as<SelfSender>().got, (std::vector<int>{11}));
}

// ---- real-time scenario mode (Fig. 12 right) ---------------------------------------

TEST(ScenarioRealtime, RunsTheSameCompositionOnWallClock) {
  Scenario scenario(5);
  std::vector<int> order;
  auto a = scenario.process("a");
  a->inter_arrival(Dist::constant(5)).raise(3, [&] { order.push_back(1); });
  auto b = scenario.process("b");
  b->inter_arrival(Dist::constant(5)).raise(2, [&] { order.push_back(2); });
  scenario.start(a);
  scenario.start_after_termination_of(5, a, b);
  scenario.terminate_after_termination_of(5, b);

  const auto t0 = std::chrono::steady_clock::now();
  scenario.run_realtime(/*time_scale=*/0.2);  // 5x faster than specified
  const auto wall =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();

  EXPECT_TRUE(scenario.terminated());
  EXPECT_EQ(order, (std::vector<int>{1, 1, 1, 2, 2}));
  // Specified span: 15+10+5 = 30 ms scaled by 0.2 => ~6 ms (generous bound).
  EXPECT_LT(wall, 2000.0);
}

}  // namespace
}  // namespace kompics::sim::test
