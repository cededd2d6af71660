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

// ---- a sender racing the unplug of its own end -------------------------------

class Numbered : public Event {
  KOMPICS_EVENT(Numbered, Event);

 public:
  explicit Numbered(long n) : n(n) {}
  long n;
};
class NumberedPort : public PortType {
 public:
  NumberedPort() {
    set_name("StressChanNumberedPort");
    negative<Numbered>();
    positive<Numbered>();
  }
};

class NumberedSource : public ComponentDefinition {
 public:
  Negative<NumberedPort> out_ = provide<NumberedPort>();
};

class NumberedSink : public ComponentDefinition {
 public:
  explicit NumberedSink(long capacity) : seen(static_cast<std::size_t>(capacity), 0) {
    subscribe<Numbered>(in_, [this](const Numbered& e) {
      ++seen[static_cast<std::size_t>(e.n)];
      received.fetch_add(1);
    });
  }
  Positive<NumberedPort> in_ = require<NumberedPort>();
  std::vector<int> seen;  // sink context only; read after quiescence
  std::atomic<long> received{0};
};

class BystanderSink : public ComponentDefinition {
 public:
  Positive<NumberedPort> in_ = require<NumberedPort>();
};

class ReplugMain : public ComponentDefinition {
 public:
  ReplugMain(long capacity, int bystanders) {
    source = create<NumberedSource>();
    replacement = create<NumberedSource>();
    sink = create<NumberedSink>(capacity);
    // Bystander channels attached first make the source's fan-out walk long,
    // so a forward into the watched channel regularly starts before an
    // unplug/plug pair and finishes after it.
    for (int i = 0; i < bystanders; ++i) {
      bystander.push_back(create<BystanderSink>());
      connect(source.provided<NumberedPort>(), bystander.back().required<NumberedPort>());
    }
    channel = connect(source.provided<NumberedPort>(), sink.required<NumberedPort>());
    // Anything arriving at the replacement's outside half was misrouted: the
    // replacement never sends, and the sink never sends back.
    subscribe<Numbered>(replacement.provided<NumberedPort>(),
                        [this](const Numbered&) { misrouted.fetch_add(1); });
  }
  Component source, replacement, sink;
  std::vector<Component> bystander;
  ChannelRef channel;
  std::atomic<long> misrouted{0};
};

TEST(StressChannel, UnplugOfSendingPositiveEndNeverReachesReplacement) {
  const std::uint64_t seed = stress::announce_seed("StressChannel.UnplugSender");
  const long kSends = 60000L * stress::scale();

  auto rt = Runtime::threaded(Config{}, 2, 1);
  auto main = rt->bootstrap<ReplugMain>(kSends, 128);
  auto& def = main.definition_as<ReplugMain>();
  rt->await_quiescence();

  PortCore* inject =
      def.source.core()->find_port(std::type_index(typeid(NumberedPort)), true)->inside.get();
  PortCore* source_end =
      def.source.core()->find_port(std::type_index(typeid(NumberedPort)), true)->outside.get();
  PortCore* replacement_end =
      def.replacement.core()->find_port(std::type_index(typeid(NumberedPort)), true)->outside.get();

  // started = the number being sent; finished = how many sends returned.
  std::atomic<long> started{-1};
  std::atomic<long> finished{0};
  std::thread sender([&] {
    for (long n = 0; n < kSends; ++n) {
      started.store(n);
      inject->trigger(make_event<Numbered>(n));
      finished.store(n + 1);
    }
  });

  // Sends wholly before an unplug, or begun after the matching re-plug, must
  // all reach the sink; a send overlapping the window may be dropped by the
  // detached source port, but must never reach the replacement.
  std::vector<char> may_drop(static_cast<std::size_t>(kSends), 0);
  std::mt19937_64 rng(seed);
  long swaps = 0;
  while (finished.load() < kSends) {
    const long lo = finished.load();
    def.channel->unplug(source_end);
    def.channel->plug(replacement_end);
    for (std::uint64_t spin = rng() % 4; spin > 0; --spin) std::this_thread::yield();
    def.channel->unplug(replacement_end);
    def.channel->plug(source_end);
    const long hi = std::min(started.load(), kSends - 1);
    for (long n = lo; n <= hi; ++n) may_drop[static_cast<std::size_t>(n)] = 1;
    ++swaps;
    for (std::uint64_t spin = rng() % 8; spin > 0; --spin) std::this_thread::yield();
  }
  sender.join();
  rt->await_quiescence();

  EXPECT_EQ(def.misrouted.load(), 0) << "an event of the unplugged end reached its replacement ("
                                     << swaps << " swaps)";
  const auto& seen = def.sink.definition_as<NumberedSink>().seen;
  long lost = 0;
  long duplicated = 0;
  for (long n = 0; n < kSends; ++n) {
    const int times = seen[static_cast<std::size_t>(n)];
    if (times > 1) ++duplicated;
    if (times == 0 && may_drop[static_cast<std::size_t>(n)] == 0) ++lost;
  }
  EXPECT_EQ(lost, 0) << "sends outside every unplug window were lost";
  EXPECT_EQ(duplicated, 0);
  EXPECT_EQ(def.channel->queued(), 0u);
}

}  // namespace
}  // namespace kompics::test
