// A3 — cost of dynamic reconfiguration (§2.6): hot-swap a relay component
// under live traffic and measure (a) the wall-clock duration of the full
// hold -> Stopped -> re-plug -> resume -> retire protocol, (b) per-event
// overhead of a held channel (queue + flush vs direct forward), and
// (c) verified zero event loss across many swaps.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <vector>

#include "kompics/kompics.hpp"

using namespace kompics;

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

class Relay : public ComponentDefinition {
 public:
  struct Gen : Init {
    KOMPICS_EVENT(Gen, Init);

    explicit Gen(int g) : generation(g) {}
    int generation;
  };
  Relay() {
    subscribe<Gen>(control(), [this](const Gen& g) { generation_ = g.generation; });
    subscribe<Num>(in_, [this](const Num& m) { trigger(make_event<Num>(m.n), out_); });
  }
  int generation() const { return generation_; }

 private:
  Positive<NumPort> in_ = require<NumPort>();
  Negative<NumPort> out_ = provide<NumPort>();
  int generation_ = 0;
};

class Sink : public ComponentDefinition {
 public:
  Sink() {
    subscribe<Num>(in_, [this](const Num&) { received.fetch_add(1); });
  }
  Positive<NumPort> in_ = require<NumPort>();
  std::atomic<long> received{0};
};

class Main : public ComponentDefinition {
 public:
  Main() {
    source = create<Source>();
    relay = create<Relay>();
    relay.control()->trigger(make_event<Relay::Gen>(0));
    sink = create<Sink>();
    connect(source.provided<NumPort>(), relay.required<NumPort>());
    connect(relay.provided<NumPort>(), sink.required<NumPort>());
  }
  void swap(int generation) { relay = replace<Relay>(relay, make_event<Relay::Gen>(generation)); }
  Component source, relay, sink;
};

}  // namespace

int main(int argc, char** argv) {
  const int swaps = argc > 1 ? std::atoi(argv[1]) : 200;
  const int burst = 500;

  auto rt = Runtime::threaded(Config{}, 4, 1);
  auto main_c = rt->bootstrap<Main>();
  auto& pipeline = main_c.definition_as<Main>();
  rt->await_quiescence();

  std::printf("=== A3: dynamic reconfiguration under live traffic ===\n");

  // Baseline: relay throughput without any swaps.
  {
    const auto t0 = std::chrono::steady_clock::now();
    for (int b = 0; b < swaps; ++b) {
      pipeline.source.definition_as<Source>().emit(b * burst, burst);
      rt->await_quiescence();
    }
    const double dt =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    std::printf("baseline      : %8.2f us per %d-event burst (no swaps)\n", dt / swaps * 1e6,
                burst);
  }

  // Swap under traffic: emit a burst, immediately hot-swap, wait for the
  // protocol (counted work) to finish; measure the whole cycle.
  long emitted = static_cast<long>(swaps) * burst;
  pipeline.sink.definition_as<Sink>().received.store(0);
  std::vector<double> swap_us;
  for (int s = 0; s < swaps; ++s) {
    pipeline.source.definition_as<Source>().emit(s * burst, burst);
    const auto t0 = std::chrono::steady_clock::now();
    pipeline.swap(s + 1);
    rt->await_quiescence();  // includes flushing held channels + retirement
    swap_us.push_back(std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
  }
  double mean = std::accumulate(swap_us.begin(), swap_us.end(), 0.0) / swap_us.size();
  std::sort(swap_us.begin(), swap_us.end());
  std::printf("swap+flush    : %8.2f us mean, %8.2f us p50, %8.2f us p99 "
              "(swap of a relay mid-%d-event burst)\n",
              mean, swap_us[swap_us.size() / 2], swap_us[swap_us.size() * 99 / 100], burst);

  const long received = pipeline.sink.definition_as<Sink>().received.load();
  std::printf("event loss    : emitted=%ld received=%ld -> %s\n", emitted, received,
              emitted == received ? "ZERO LOSS across all swaps" : "LOSS (bug!)");
  std::printf("final relay generation: %d (every swap completed)\n",
              pipeline.relay.definition_as<Relay>().generation());
  return emitted == received ? 0 : 1;
}
