// Stress driver: Channel hold/resume/unplug/plug racing forward (§2.6).
// The paper's reconfiguration claim is that the hold+unplug+plug+resume
// discipline loses no events; here trigger threads pump traffic through a
// channel while a reconfiguration thread churns its state, and the test
// checks exact conservation at the end. A destroy-race variant checks the
// teardown path never crashes or double-delivers.

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>
#include <vector>

#include "kompics/kompics.hpp"
#include "stress_util.hpp"

namespace kompics::test {
namespace {

class Tick : public Event {
  KOMPICS_EVENT(Tick, Event);
};
class TickPort : public PortType {
 public:
  TickPort() {
    set_name("StressChanTickPort");
    negative<Tick>();
    positive<Tick>();
  }
};

class Source : public ComponentDefinition {
 public:
  Negative<TickPort> out_ = provide<TickPort>();
};

class Sink : public ComponentDefinition {
 public:
  Sink() {
    subscribe<Tick>(in_, [this](const Tick&) { received.fetch_add(1); });
  }
  Positive<TickPort> in_ = require<TickPort>();
  std::atomic<long> received{0};
};

class Main : public ComponentDefinition {
 public:
  Main() {
    source = create<Source>();
    sink = create<Sink>();
    channel = connect(source.provided<TickPort>(), sink.required<TickPort>());
  }
  Component source, sink;
  ChannelRef channel;
};

PortCore* injection_port(const Component& source) {
  // Inside half of the provided port: triggering here sends the event
  // outward, through the channel, exactly like a handler's trigger().
  return source.core()->find_port(std::type_index(typeid(TickPort)), true)->inside.get();
}

TEST(StressChannel, HoldResumeStormConservesEvents) {
  const std::uint64_t seed = stress::announce_seed("StressChannel.HoldResume");
  const int kThreads = 2;
  const int kPerThread = 4000 * stress::scale();
  const int kOps = 1500 * stress::scale();

  auto rt = Runtime::threaded(Config{}, 2, 1);
  auto main = rt->bootstrap<Main>();
  auto& def = main.definition_as<Main>();
  rt->await_quiescence();

  PortCore* inject = injection_port(def.source);
  std::atomic<bool> go{false};
  std::vector<std::thread> triggers;
  for (int t = 0; t < kThreads; ++t) {
    triggers.emplace_back([&, t] {
      std::mt19937_64 rng(seed + static_cast<std::uint64_t>(t));
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kPerThread; ++i) {
        inject->trigger(make_event<Tick>());
        if ((rng() & 0x7f) == 0) std::this_thread::yield();
      }
    });
  }

  std::thread reconfigurer([&] {
    std::mt19937_64 rng(seed ^ 0xdead);
    go.store(true);
    bool held = false;
    for (int i = 0; i < kOps; ++i) {
      if (held) {
        def.channel->resume();
      } else {
        def.channel->hold();
      }
      held = !held;
      for (std::uint64_t spin = rng() % 64; spin > 0; --spin) std::this_thread::yield();
    }
    if (held) def.channel->resume();
  });

  for (auto& t : triggers) t.join();
  reconfigurer.join();
  def.channel->resume();  // idempotent; guarantees a final flush
  rt->await_quiescence();

  EXPECT_EQ(def.sink.definition_as<Sink>().received.load(),
            static_cast<long>(kThreads) * kPerThread)
      << "hold/resume must queue, never drop";
  EXPECT_EQ(def.channel->queued(), 0u);
}

TEST(StressChannel, UnplugPlugStormConservesEvents) {
  const std::uint64_t seed = stress::announce_seed("StressChannel.UnplugPlug");
  const int kThreads = 2;
  const int kPerThread = 3000 * stress::scale();
  const int kOps = 800 * stress::scale();

  auto rt = Runtime::threaded(Config{}, 2, 1);
  auto main = rt->bootstrap<Main>();
  auto& def = main.definition_as<Main>();
  rt->await_quiescence();

  PortCore* inject = injection_port(def.source);
  PortCore* sink_end =
      def.sink.core()->find_port(std::type_index(typeid(TickPort)), false)->outside.get();

  std::atomic<bool> go{false};
  std::vector<std::thread> triggers;
  for (int t = 0; t < kThreads; ++t) {
    triggers.emplace_back([&, t] {
      std::mt19937_64 rng(seed + 31 * static_cast<std::uint64_t>(t));
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kPerThread; ++i) {
        inject->trigger(make_event<Tick>());
        if ((rng() & 0x7f) == 0) std::this_thread::yield();
      }
    });
  }

  std::thread reconfigurer([&] {
    std::mt19937_64 rng(seed ^ 0xbeef);
    go.store(true);
    bool held = false;
    bool unplugged = false;
    for (int i = 0; i < kOps; ++i) {
      switch (rng() % 4) {
        case 0:
          if (!held) {
            def.channel->hold();
            held = true;
          }
          break;
        case 1:
          if (held) {
            def.channel->resume();
            held = false;
          }
          break;
        case 2:
          if (!unplugged) {
            def.channel->unplug(sink_end);
            unplugged = true;
          }
          break;
        default:
          if (unplugged) {
            def.channel->plug(sink_end);
            unplugged = false;
          }
          break;
      }
      for (std::uint64_t spin = rng() % 64; spin > 0; --spin) std::this_thread::yield();
    }
    if (unplugged) def.channel->plug(sink_end);
    if (held) def.channel->resume();
  });

  for (auto& t : triggers) t.join();
  reconfigurer.join();
  rt->await_quiescence();

  EXPECT_EQ(def.sink.definition_as<Sink>().received.load(),
            static_cast<long>(kThreads) * kPerThread)
      << "unplug/plug must queue toward the missing end, never drop";
  EXPECT_EQ(def.channel->queued(), 0u);
}

TEST(StressChannel, DestroyRacingForwardNeverCrashesOrDuplicates) {
  const std::uint64_t seed = stress::announce_seed("StressChannel.Destroy");
  const int kRounds = 60 * stress::scale();
  const int kPerRound = 500;

  std::mt19937_64 rng(seed);
  for (int round = 0; round < kRounds; ++round) {
    auto rt = Runtime::threaded(Config{}, 2, 1);
    auto main = rt->bootstrap<Main>();
    auto& def = main.definition_as<Main>();
    rt->await_quiescence();

    PortCore* inject = injection_port(def.source);
    std::atomic<bool> go{false};
    std::thread trigger_thread([&] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kPerRound; ++i) inject->trigger(make_event<Tick>());
    });
    go.store(true);
    // Destroy the channel at a random point during the trigger storm.
    for (std::uint64_t spin = rng() % 2000; spin > 0; --spin) std::this_thread::yield();
    def.channel->destroy();
    trigger_thread.join();
    rt->await_quiescence();

    // Events forwarded before destruction arrive once; the rest are
    // dropped by the dead channel — never duplicated, never crashing.
    const long got = def.sink.definition_as<Sink>().received.load();
    EXPECT_GE(got, 0L);
    EXPECT_LE(got, static_cast<long>(kPerRound));
    rt->shutdown();
  }
}

}  // namespace
}  // namespace kompics::test
