// Stress driver: §2.6 component replacement under live traffic and CPU
// contention. Each round emits a deep burst into a relay and immediately
// replaces it, so the Stop (control work runs first) overtakes most of the
// burst: the old relay goes passive and parks the rest of its queue while
// the parent's Stopped handler re-homes the channels and retires it. Spinner
// threads load the CPUs so the retiring parent and the parking old
// relay interleave in every order. "Kompics enables the dynamic
// reconfiguration of the component architecture without dropping any of the
// triggered events": every payload must reach the collector exactly once.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <random>
#include <thread>
#include <vector>

#include "kompics/kompics.hpp"
#include "stress_util.hpp"

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
    set_name("StressReplaceNumPort");
    negative<Num>();
    positive<Num>();
  }
};

class Source : public ComponentDefinition {
 public:
  void emit(int from, int count) {
    for (int i = 0; i < count; ++i) trigger(make_event<Num>(from + i), out_);
  }
  Negative<NumPort> out_ = provide<NumPort>();
};

/// Forwards Num(n) as Num(n + delta); delta is a multiple of kDeltaUnit so
/// the collector can recover the payload whichever incarnation relayed it.
class Relay : public ComponentDefinition {
 public:
  struct SetDelta : Init {
    KOMPICS_EVENT(SetDelta, Init);

   public:
    explicit SetDelta(int d) : delta(d) {}
    int delta;
  };

  Relay() {
    subscribe<SetDelta>(control(), [this](const SetDelta& init) { delta_ = init.delta; });
    subscribe<Num>(upstream_, [this](const Num& m) {
      // A little handler CPU keeps the burst queued when the Stop arrives.
      const auto until = std::chrono::steady_clock::now() + std::chrono::microseconds(2);
      while (std::chrono::steady_clock::now() < until) {
      }
      trigger(make_event<Num>(m.n + delta_), downstream_);
    });
  }

 private:
  Positive<NumPort> upstream_ = require<NumPort>();
  Negative<NumPort> downstream_ = provide<NumPort>();
  int delta_ = 0;
};

class Collector : public ComponentDefinition {
 public:
  Collector() {
    subscribe<Num>(in_, [this](const Num& m) { seen.push_back(m.n); });
  }
  Positive<NumPort> in_ = require<NumPort>();
  std::vector<int> seen;
};

constexpr int kDeltaUnit = 1'000'000;

class Main : public ComponentDefinition {
 public:
  Main() {
    source = create<Source>();
    relay = create<Relay>();
    relay.control()->trigger(make_event<Relay::SetDelta>(kDeltaUnit));
    collector = create<Collector>();
    connect(source.provided<NumPort>(), relay.required<NumPort>());
    connect(relay.provided<NumPort>(), collector.required<NumPort>());
  }
  void swap_relay(int round) {
    relay = replace<Relay>(relay, make_event<Relay::SetDelta>(kDeltaUnit * (round + 2)));
  }
  Component source, relay, collector;
};

TEST(StressReplace, BurstThenReplaceUnderContentionDropsNothing) {
  const std::uint64_t seed = stress::announce_seed("StressReplace.BurstThenReplace");
  const int kRounds = 40 * stress::scale();
  std::mt19937_64 rng(seed);

  // Load half the CPUs: the two workers get preempted at arbitrary points,
  // like a test binary sharing a busy CI host, yet still make progress.
  const unsigned spinners = std::max(1u, std::thread::hardware_concurrency() / 2);
  std::atomic<bool> stop{false};
  std::vector<std::thread> load;
  for (unsigned i = 0; i < spinners; ++i) {
    load.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
      }
    });
  }

  auto rt = Runtime::threaded(Config{}, 2, seed);
  auto main = rt->bootstrap<Main>();
  auto& def = main.definition_as<Main>();
  rt->await_quiescence();

  std::vector<int> expect;
  for (int round = 0; round < kRounds; ++round) {
    const int burst = 200 + static_cast<int>(rng() % 800);
    def.source.definition_as<Source>().emit(round * 1000, burst);
    for (int i = 0; i < burst; ++i) expect.push_back(round * 1000 + i);
    def.swap_relay(round);
    rt->await_quiescence();
  }
  stop.store(true);
  for (auto& t : load) t.join();

  const auto& seen = def.collector.definition_as<Collector>().seen;
  std::vector<int> payloads;
  payloads.reserve(seen.size());
  for (int v : seen) payloads.push_back(v % kDeltaUnit);
  std::sort(payloads.begin(), payloads.end());
  EXPECT_EQ(payloads.size(), expect.size()) << "events lost or duplicated across replace";
  EXPECT_EQ(payloads, expect);
  rt->shutdown();
}

}  // namespace
}  // namespace kompics::test
