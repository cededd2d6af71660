// F6/F7 — microbenchmarks of the publish-subscribe event dissemination
// semantics of Figures 6 and 7: trigger-to-handler dispatch cost, cost per
// additional handler on one port (Fig. 7: all compatible handlers run
// sequentially), fan-out cost per additional subscriber component (Fig. 6:
// all channels forward), channel-chain (composite pass-through) depth, and
// a composite whose inside port fans out to children that mostly do not
// handle the event (the CATS node shape).

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>

#include "kompics/kompics.hpp"
#include "kompics/protocol.hpp"

using namespace kompics;

namespace {

// KOMPICS_TELEMETRY=off|sampled|full selects the telemetry mode for every
// runtime the benchmarks create (scripts/bench_pubsub.sh drives this to
// produce BENCH_telemetry.json). Default off: the overhead-budget baseline.
void apply_telemetry_mode(Runtime& rt) {
  const char* mode = std::getenv("KOMPICS_TELEMETRY");
  if (mode == nullptr || std::strcmp(mode, "off") == 0) return;
  if (std::strcmp(mode, "sampled") == 0) {
    rt.telemetry().enable_all(/*sample=*/0.01);
  } else if (std::strcmp(mode, "full") == 0) {
    rt.telemetry().enable_all(/*sample=*/1.0);
  }
}

class Tick : public Event {
  KOMPICS_EVENT(Tick, Event);

 public:
  explicit Tick(int n) : n(n) {}
  int n;
};

// Another message type on TickPort, handled by the children of
// NodeComposite that do not handle Tick.
class Tock : public Event {
  KOMPICS_EVENT(Tock, Event);
};

class TickPort : public PortType {
 public:
  TickPort() {
    set_name("TickPort");
    negative<Tick>();
    positive<Tick>();
    positive<Tock>();
  }
};

class Counter : public ComponentDefinition {
 public:
  explicit Counter(int handlers) {
    for (int i = 0; i < handlers; ++i) {
      subscribe<Tick>(in_, [this](const Tick&) { ++count; });
    }
  }
  Positive<TickPort> in_ = require<TickPort>();
  long count = 0;
};

class ParkPort : public PortType {
 public:
  ParkPort() {
    set_name("ParkPort");
    negative<Tick>();
    positive<Tick>();
  }
};

// Counter with the coroutine protocol layer live on the component: a parked
// frame holds a correlation subscription on a second (never-connected) port,
// so the ProtocolHost, hidden resume port and frame bookkeeping all exist —
// but the measured dispatch path is byte-for-byte the plain subscribe path.
// BM_DispatchHandlersProto vs BM_DispatchHandlers is the coroutine layer's
// tax on non-coroutine dispatch (budget: <= 3%, scripts/bench_pubsub.sh
// --protocol enforces it).
class ProtoCounter : public ComponentDefinition {
 public:
  explicit ProtoCounter(int handlers) {
    for (int i = 0; i < handlers; ++i) {
      subscribe<Tick>(in_, [this](const Tick&) { ++count; });
    }
  }
  protocol::Proto<void> park_forever() {
    co_await park_.next<Tick>([](const Tick& t) { return t.n < 0; });
  }
  Positive<TickPort> in_ = require<TickPort>();
  Positive<ParkPort> park_ = require<ParkPort>();
  long count = 0;
};

class Emitter : public ComponentDefinition {
 public:
  void emit(int n) { trigger(make_event<Tick>(n), out_); }
  Negative<TickPort> out_ = provide<TickPort>();
};

class FanMain : public ComponentDefinition {
 public:
  FanMain(int subscribers, int handlers_each) {
    emitter = create<Emitter>();
    for (int i = 0; i < subscribers; ++i) {
      sinks.push_back(create<Counter>(handlers_each));
      connect(emitter.provided<TickPort>(), sinks.back().required<TickPort>());
    }
  }
  Component emitter;
  std::vector<Component> sinks;
};

class ProtoFanMain : public ComponentDefinition {
 public:
  explicit ProtoFanMain(int handlers) {
    emitter = create<Emitter>();
    sink = create<ProtoCounter>(handlers);
    connect(emitter.provided<TickPort>(), sink.required<TickPort>());
  }
  Component emitter, sink;
};

class Relay : public ComponentDefinition {
 public:
  Relay() {
    subscribe<Tick>(in_, [this](const Tick& t) { trigger(make_event<Tick>(t.n), out_); });
  }
  Positive<TickPort> in_ = require<TickPort>();
  Negative<TickPort> out_ = provide<TickPort>();
};

class ChainMain : public ComponentDefinition {
 public:
  explicit ChainMain(int depth) {
    emitter = create<Emitter>();
    Component prev;
    for (int i = 0; i < depth; ++i) {
      relays.push_back(create<Relay>());
      if (i == 0) {
        connect(emitter.provided<TickPort>(), relays.back().required<TickPort>());
      } else {
        connect(relays[relays.size() - 2].provided<TickPort>(),
                relays.back().required<TickPort>());
      }
    }
    sink = create<Counter>(1);
    connect(relays.back().provided<TickPort>(), sink.required<TickPort>());
  }
  Component emitter, sink;
  std::vector<Component> relays;
};

// A protocol child of a node: subscribes to Tick, or only to the other
// message type on the same port.
class NodeChild : public ComponentDefinition {
 public:
  explicit NodeChild(bool ticks) {
    if (ticks) {
      subscribe<Tick>(in_, [this](const Tick&) { ++count; });
    } else {
      subscribe<Tock>(in_, [](const Tock&) {});
    }
  }
  Positive<TickPort> in_ = require<TickPort>();
  long count = 0;
};

// Like CatsNode's Network port: the composite's required port is wired on
// the inside to six children, and only one of them handles the event.
class NodeComposite : public ComponentDefinition {
 public:
  NodeComposite() {
    for (int i = 0; i < 6; ++i) {
      children.push_back(create<NodeChild>(/*ticks=*/i == 0));
      connect(in_, children.back().required<TickPort>());
    }
  }
  Positive<TickPort> in_ = require<TickPort>();
  std::vector<Component> children;
};

class NodeMain : public ComponentDefinition {
 public:
  NodeMain() {
    emitter = create<Emitter>();
    node = create<NodeComposite>();
    connect(emitter.provided<TickPort>(), node.required<TickPort>());
  }
  Component emitter, node;
};

// One subscriber, varying handler count (Fig. 7 semantics).
void BM_DispatchHandlers(benchmark::State& state) {
  auto rt = Runtime::threaded(Config{}, 2, 1);
  apply_telemetry_mode(*rt);
  auto main = rt->bootstrap<FanMain>(1, static_cast<int>(state.range(0)));
  rt->await_quiescence();
  auto& emitter = main.definition_as<FanMain>().emitter.definition_as<Emitter>();
  int n = 0;
  for (auto _ : state) {
    emitter.emit(n++);
    rt->await_quiescence();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DispatchHandlers)->Arg(1)->Arg(2)->Arg(4)->Arg(16);

// The same dispatch as BM_DispatchHandlers, but the subscriber carries a
// live coroutine layer: a parked frame (correlation subscription + resume
// machinery on the hidden protocol port) that the measured events never
// touch. The plain/proto items_per_second ratio is the coroutine layer's
// overhead on non-coroutine dispatch.
void BM_DispatchHandlersProto(benchmark::State& state) {
  auto rt = Runtime::threaded(Config{}, 2, 1);
  apply_telemetry_mode(*rt);
  auto main = rt->bootstrap<ProtoFanMain>(static_cast<int>(state.range(0)));
  rt->await_quiescence();
  auto& world = main.definition_as<ProtoFanMain>();
  auto& emitter = world.emitter.definition_as<Emitter>();
  protocol::spawn(world.sink.definition_as<ProtoCounter>().park_forever());
  rt->await_quiescence();
  int n = 0;
  for (auto _ : state) {
    emitter.emit(n++);
    rt->await_quiescence();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DispatchHandlersProto)->Arg(1)->Arg(2)->Arg(4)->Arg(16);

// Fan-out to N subscriber components via N channels (Fig. 6 semantics).
void BM_FanOutSubscribers(benchmark::State& state) {
  auto rt = Runtime::threaded(Config{}, 4, 1);
  apply_telemetry_mode(*rt);
  auto main = rt->bootstrap<FanMain>(static_cast<int>(state.range(0)), 1);
  rt->await_quiescence();
  auto& emitter = main.definition_as<FanMain>().emitter.definition_as<Emitter>();
  int n = 0;
  for (auto _ : state) {
    emitter.emit(n++);
    rt->await_quiescence();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FanOutSubscribers)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

// Composite pass-through pipeline: per-hop cost through channels.
void BM_ChannelChain(benchmark::State& state) {
  auto rt = Runtime::threaded(Config{}, 2, 1);
  apply_telemetry_mode(*rt);
  auto main = rt->bootstrap<ChainMain>(static_cast<int>(state.range(0)));
  rt->await_quiescence();
  auto& emitter = main.definition_as<ChainMain>().emitter.definition_as<Emitter>();
  int n = 0;
  for (auto _ : state) {
    emitter.emit(n++);
    rt->await_quiescence();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChannelChain)->Arg(1)->Arg(8)->Arg(32)->Arg(128);

// Indications entering a composite that fans each out to six children, of
// which one subscribes to its type: a burst of B, then one drain. With
// B = 1 the round trip's wake-up dominates; B = 64 exposes the per-event
// dispatch cost of the five children that do not handle it.
void BM_FanOutComposite(benchmark::State& state) {
  auto rt = Runtime::threaded(Config{}, 2, 1);
  apply_telemetry_mode(*rt);
  auto main = rt->bootstrap<NodeMain>();
  rt->await_quiescence();
  auto& emitter = main.definition_as<NodeMain>().emitter.definition_as<Emitter>();
  const int burst = static_cast<int>(state.range(0));
  int n = 0;
  for (auto _ : state) {
    for (int i = 0; i < burst; ++i) emitter.emit(n++);
    rt->await_quiescence();
  }
  state.SetItemsProcessed(state.iterations() * burst);
}
BENCHMARK(BM_FanOutComposite)->Arg(1)->Arg(64);

// Raw trigger throughput into one busy component (queueing fast path):
// emit a burst of B events, then drain once.
void BM_TriggerBurst(benchmark::State& state) {
  auto rt = Runtime::threaded(Config{}, 2, 1);
  apply_telemetry_mode(*rt);
  auto main = rt->bootstrap<FanMain>(1, 1);
  rt->await_quiescence();
  auto& emitter = main.definition_as<FanMain>().emitter.definition_as<Emitter>();
  const int burst = static_cast<int>(state.range(0));
  int n = 0;
  for (auto _ : state) {
    for (int i = 0; i < burst; ++i) emitter.emit(n++);
    rt->await_quiescence();
  }
  state.SetItemsProcessed(state.iterations() * burst);
}
BENCHMARK(BM_TriggerBurst)->Arg(64)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
