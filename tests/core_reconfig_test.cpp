// Dynamic reconfiguration (paper §2.6): channel hold/resume/plug/unplug and
// the component-replacement recipe, verified to not drop a single event
// ("Kompics enables the dynamic reconfiguration of the component
// architecture without dropping any of the triggered events").

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "kompics/kompics.hpp"

namespace kompics::test {
namespace {

class Num : public Event {
  KOMPICS_EVENT(Num, Event);

 public:
  explicit Num(int n) : n(n) {}
  int n;
};

class NumPort : public PortType {
 public:
  NumPort() {
    set_name("NumPort");
    negative<Num>();   // downstream (requests)
    positive<Num>();   // upstream (indications)
  }
};

/// Emits Num(i) for i in [0, n) on demand.
class Source : public ComponentDefinition {
 public:
  Source() = default;
  void emit(int from, int count) {
    for (int i = 0; i < count; ++i) trigger(make_event<Num>(from + i), out_);
  }
  Negative<NumPort> out_ = provide<NumPort>();
};

/// Records every received Num.
class Collector : public ComponentDefinition {
 public:
  Collector() {
    subscribe<Num>(in_, [this](const Num& m) { seen.push_back(m.n); });
  }
  Positive<NumPort> in_ = require<NumPort>();
  std::vector<int> seen;
};

class PairMain : public ComponentDefinition {
 public:
  PairMain() {
    source = create<Source>();
    collector = create<Collector>();
    channel = connect(source.provided<NumPort>(), collector.required<NumPort>());
  }
  Component source, collector;
  ChannelRef channel;
};

std::unique_ptr<Runtime> make_runtime() { return Runtime::threaded(Config{}, 2, 3); }

TEST(Channels, HoldQueuesAndResumeFlushesInFifoOrder) {
  auto rt = make_runtime();
  auto main = rt->bootstrap<PairMain>();
  auto& def = main.definition_as<PairMain>();
  rt->await_quiescence();

  def.channel->hold();
  def.source.definition_as<Source>().emit(0, 50);
  rt->await_quiescence();
  EXPECT_TRUE(def.collector.definition_as<Collector>().seen.empty());
  EXPECT_EQ(def.channel->queued(), 50u);

  def.channel->resume();
  rt->await_quiescence();
  std::vector<int> expect(50);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(def.collector.definition_as<Collector>().seen, expect);
  EXPECT_EQ(def.channel->queued(), 0u);
}

TEST(Channels, HoldQueuesBothDirections) {
  auto rt = make_runtime();
  auto main = rt->bootstrap<PairMain>();
  auto& def = main.definition_as<PairMain>();
  rt->await_quiescence();

  // Subscribe the source to upstream traffic too.
  auto& src = def.source.definition_as<Source>();
  (void)src;
  def.channel->hold();
  def.source.definition_as<Source>().emit(0, 3);
  // Upstream direction: trigger a request from the collector side.
  def.collector.definition_as<Collector>();
  auto* up = def.collector.core()->find_port(std::type_index(typeid(NumPort)), false);
  up->inside->trigger(make_event<Num>(100));
  rt->await_quiescence();
  EXPECT_EQ(def.channel->queued(), 4u);
  def.channel->resume();
  rt->await_quiescence();
  EXPECT_EQ(def.channel->queued(), 0u);
  EXPECT_EQ(def.collector.definition_as<Collector>().seen.size(), 3u);
}

TEST(Channels, UnplugQueuesTowardMissingEndAndPlugRedirects) {
  auto rt = make_runtime();
  auto main = rt->bootstrap<PairMain>();
  auto& def = main.definition_as<PairMain>();
  rt->await_quiescence();

  // Unplug the collector end; traffic toward it must queue, not drop.
  auto* collector_port =
      def.collector.core()->find_port(std::type_index(typeid(NumPort)), false);
  def.channel->unplug(collector_port->outside.get());
  def.source.definition_as<Source>().emit(0, 10);
  rt->await_quiescence();
  EXPECT_TRUE(def.collector.definition_as<Collector>().seen.empty());
  EXPECT_EQ(def.channel->queued(), 10u);

  // Plug into a brand-new collector: the queue flushes there.
  auto fresh = rt->create_component<Collector>(main.core());
  fresh.control()->trigger(make_event<Start>());
  def.channel->plug(
      fresh.core()->find_port(std::type_index(typeid(NumPort)), false)->outside.get());
  rt->await_quiescence();
  std::vector<int> expect(10);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(fresh.definition_as<Collector>().seen, expect);
  EXPECT_TRUE(def.collector.definition_as<Collector>().seen.empty());
}

TEST(Channels, PlugRejectsTypeAndPolarityMismatch) {
  auto rt = make_runtime();
  auto main = rt->bootstrap<PairMain>();
  auto& def = main.definition_as<PairMain>();
  rt->await_quiescence();

  auto* collector_port =
      def.collector.core()->find_port(std::type_index(typeid(NumPort)), false);
  def.channel->unplug(collector_port->outside.get());
  // Same polarity as the remaining (positive) end: must be rejected.
  auto* source_port = def.source.core()->find_port(std::type_index(typeid(NumPort)), true);
  EXPECT_THROW(def.channel->plug(source_port->outside.get()), std::logic_error);
}

TEST(Channels, DisconnectDropsSubsequentTraffic) {
  auto rt = make_runtime();
  auto main = rt->bootstrap<PairMain>();
  auto& def = main.definition_as<PairMain>();
  rt->await_quiescence();

  def.channel->destroy();
  def.source.definition_as<Source>().emit(0, 5);
  rt->await_quiescence();
  EXPECT_TRUE(def.collector.definition_as<Collector>().seen.empty());
  EXPECT_EQ(def.channel->state(), Channel::State::kDead);
}

// ---- full replacement recipe (§2.6) ------------------------------------------

/// A relay that transforms Num(n) -> Num(n + delta) downstream.
class Relay : public ComponentDefinition {
 public:
  struct SetDelta : Init {
    KOMPICS_EVENT(SetDelta, Init);

    explicit SetDelta(int d) : delta(d) {}
    int delta;
  };

  Relay() {
    subscribe<SetDelta>(control(), [this](const SetDelta& init) { delta_ = init.delta; });
    subscribe<Num>(upstream_, [this](const Num& m) {
      trigger(make_event<Num>(m.n + delta_), downstream_);
    });
  }

  int delta() const { return delta_; }

 private:
  Positive<NumPort> upstream_ = require<NumPort>();
  Negative<NumPort> downstream_ = provide<NumPort>();
  int delta_ = 0;
};

class RelayMain : public ComponentDefinition {
 public:
  RelayMain() {
    source = create<Source>();
    relay = create<Relay>();
    relay.control()->trigger(make_event<Relay::SetDelta>(1000));
    collector = create<Collector>();
    connect(source.provided<NumPort>(), relay.required<NumPort>());
    connect(relay.provided<NumPort>(), collector.required<NumPort>());
  }

  /// Replaces the relay with one carrying a different delta, §2.6-style.
  void swap_relay(int new_delta) {
    relay = replace<Relay>(relay, make_event<Relay::SetDelta>(new_delta));
  }

  Component source, relay, collector;
};

TEST(Reconfiguration, ReplaceRelayLosesNoEvents) {
  auto rt = make_runtime();
  auto main = rt->bootstrap<RelayMain>();
  auto& def = main.definition_as<RelayMain>();
  rt->await_quiescence();

  // Traffic before the swap flows through delta=1000.
  def.source.definition_as<Source>().emit(0, 100);
  rt->await_quiescence();
  ASSERT_EQ(def.collector.definition_as<Collector>().seen.size(), 100u);
  EXPECT_EQ(def.collector.definition_as<Collector>().seen[0], 1000);

  // Swap while idle: all channels are held, unplugged, re-plugged, resumed.
  def.swap_relay(2000);
  rt->await_quiescence();
  EXPECT_EQ(def.relay.definition_as<Relay>().delta(), 2000);

  def.source.definition_as<Source>().emit(100, 100);
  rt->await_quiescence();
  const auto& seen = def.collector.definition_as<Collector>().seen;
  ASSERT_EQ(seen.size(), 200u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(seen[i], 1000 + i);
  for (int i = 100; i < 200; ++i) EXPECT_EQ(seen[i], 2000 + i);
}

TEST(Reconfiguration, ReplaceUnderLiveTrafficDropsNothing) {
  auto rt = make_runtime();
  auto main = rt->bootstrap<RelayMain>();
  auto& def = main.definition_as<RelayMain>();
  rt->await_quiescence();

  // The payload-recovery scheme below (v % 1'000'000) must work no matter
  // which relay incarnation handled an in-flight event — a burst emitted
  // just before a swap may race the Stop and be handled by either the old
  // or the new relay; the protocol only promises exactly-once delivery,
  // not which incarnation does the work. Make the *initial* relay's delta
  // a multiple of 1'000'000 too (the ctor default of 1000 would alias
  // round-0 payloads into round 1's range).
  def.relay.control()->trigger(make_event<Relay::SetDelta>(1'000'000));
  rt->await_quiescence();

  // Interleave bursts with swaps: each swap starts while the burst's events
  // are still in flight (in channels, in the old relay's queues, or mid-
  // handler). Held channels + the Stopped protocol + retire-forwarding must
  // deliver every single one exactly once.
  int emitted = 0;
  for (int round = 0; round < 20; ++round) {
    def.source.definition_as<Source>().emit(round * 1000, 50);
    emitted += 50;
    def.swap_relay(1'000'000 * (round + 2));
    rt->await_quiescence();  // swap protocol completion is counted work
  }

  const auto& seen = def.collector.definition_as<Collector>().seen;
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(emitted));
  // Recover original payloads (delta is a multiple of 1'000'000; payloads
  // are < 20'000) and verify each emitted number arrived exactly once.
  std::vector<int> payloads;
  payloads.reserve(seen.size());
  for (int v : seen) payloads.push_back(v % 1'000'000);
  std::sort(payloads.begin(), payloads.end());
  std::vector<int> expect;
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 50; ++i) expect.push_back(round * 1000 + i);
  }
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(payloads, expect);
}

}  // namespace
}  // namespace kompics::test

namespace kompics::test {
namespace {

// ---- channel selectors (per-channel event filtering, §2.3) -------------------

TEST(Channels, SelectorFiltersPerChannel) {
  auto rt = make_runtime();
  // One source fanned out to two collectors; a selector on each channel
  // splits the stream by parity — the Java implementation's
  // ChannelSelector mechanism.
  class SplitMain : public ComponentDefinition {
   public:
    SplitMain() {
      source = create<Source>();
      even = create<Collector>();
      odd = create<Collector>();
      auto even_ch = connect(source.provided<NumPort>(), even.required<NumPort>());
      auto odd_ch = connect(source.provided<NumPort>(), odd.required<NumPort>());
      even_ch->set_filter(Direction::kPositive, [](const Event& e) {
        return event_as<Num>(e).n % 2 == 0;
      });
      odd_ch->set_filter(Direction::kPositive, [](const Event& e) {
        return event_as<Num>(e).n % 2 == 1;
      });
    }
    Component source, even, odd;
  };

  auto main = rt->bootstrap<SplitMain>();
  auto& def = main.definition_as<SplitMain>();
  rt->await_quiescence();

  def.source.definition_as<Source>().emit(0, 10);
  rt->await_quiescence();
  EXPECT_EQ(def.even.definition_as<Collector>().seen, (std::vector<int>{0, 2, 4, 6, 8}));
  EXPECT_EQ(def.odd.definition_as<Collector>().seen, (std::vector<int>{1, 3, 5, 7, 9}));
}

TEST(Channels, SelectorClearedResumesFullDelivery) {
  auto rt = make_runtime();
  auto main = rt->bootstrap<PairMain>();
  auto& def = main.definition_as<PairMain>();
  rt->await_quiescence();

  def.channel->set_filter(Direction::kPositive, [](const Event&) { return false; });
  def.source.definition_as<Source>().emit(0, 5);
  rt->await_quiescence();
  EXPECT_TRUE(def.collector.definition_as<Collector>().seen.empty());

  def.channel->set_filter(Direction::kPositive, nullptr);
  def.source.definition_as<Source>().emit(100, 3);
  rt->await_quiescence();
  EXPECT_EQ(def.collector.definition_as<Collector>().seen, (std::vector<int>{100, 101, 102}));
}

}  // namespace
}  // namespace kompics::test
