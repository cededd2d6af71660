// Execution-model tests (paper §3): lock-free MPSC work queues, mutual
// exclusion of a component's handlers under the multi-core scheduler, work
// stealing, and runtime quiescence accounting.

#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <thread>
#include <vector>

#include "kompics/kompics.hpp"
#include "kompics/mpsc_queue.hpp"
#include "kompics/work_stealing_scheduler.hpp"

namespace kompics::test {
namespace {

// ---- MPSC queue -------------------------------------------------------------

struct Node {
  std::atomic<Node*> next{nullptr};
  int producer = 0;
  int seq = 0;
};

TEST(MpscQueue, SingleThreadFifo) {
  MpscQueue<Node> q;
  std::vector<Node> nodes(100);
  for (int i = 0; i < 100; ++i) {
    nodes[i].seq = i;
    q.push(&nodes[i]);
  }
  for (int i = 0; i < 100; ++i) {
    Node* n = q.pop();
    ASSERT_NE(n, nullptr);
    EXPECT_EQ(n->seq, i);
  }
  EXPECT_EQ(q.pop(), nullptr);
  EXPECT_TRUE(q.empty());
}

TEST(MpscQueue, MultiProducerDeliversEverythingInPerProducerOrder) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 20000;
  MpscQueue<Node> q;
  // deque: nodes contain atomics (immovable), and deque never relocates.
  std::deque<Node> storage(kProducers * kPerProducer);

  std::atomic<bool> go{false};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kPerProducer; ++i) {
        Node& n = storage[static_cast<std::size_t>(p * kPerProducer + i)];
        n.producer = p;
        n.seq = i;
        q.push(&n);
      }
    });
  }
  go.store(true);

  std::vector<int> last_seq(kProducers, -1);
  int received = 0;
  while (received < kProducers * kPerProducer) {
    Node* n = q.pop();
    if (n == nullptr) {
      std::this_thread::yield();
      continue;
    }
    EXPECT_EQ(n->seq, last_seq[n->producer] + 1) << "per-producer FIFO violated";
    last_seq[n->producer] = n->seq;
    ++received;
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(q.pop(), nullptr);
}

// ---- handler mutual exclusion (§3) -----------------------------------------

class Tick : public Event {
  KOMPICS_EVENT(Tick, Event);
};
class TickPort : public PortType {
 public:
  TickPort() {
    set_name("TickPort");
    negative<Tick>();
    positive<Tick>();
  }
};

/// Detects concurrent handler execution with an intentionally non-atomic
/// critical section guarded by an atomic "inside" flag.
class ExclusionProbe : public ComponentDefinition {
 public:
  ExclusionProbe() {
    subscribe<Tick>(port_, [this](const Tick&) {
      if (inside.exchange(true)) violations.fetch_add(1);
      // Widen the race window.
      for (volatile int i = 0; i < 50; ++i) {
      }
      counter = counter + 1;  // non-atomic on purpose
      inside.store(false);
    });
  }
  Negative<TickPort> port_ = provide<TickPort>();
  std::atomic<bool> inside{false};
  std::atomic<int> violations{0};
  int counter = 0;
};

class ProbeMain : public ComponentDefinition {
 public:
  ProbeMain() { probe = create<ExclusionProbe>(); }
  Component probe;
};

TEST(Execution, HandlersOfOneComponentAreMutuallyExclusive) {
  auto rt = Runtime::threaded(Config{}, 8, 1);
  auto main = rt->bootstrap<ProbeMain>();
  auto& def = main.definition_as<ProbeMain>();
  rt->await_quiescence();

  constexpr int kEvents = 20000;
  auto* port = def.probe.core()->find_port(std::type_index(typeid(TickPort)), true);
  // Hammer from several external threads to force contention.
  std::vector<std::thread> senders;
  for (int t = 0; t < 4; ++t) {
    senders.emplace_back([port] {
      for (int i = 0; i < kEvents / 4; ++i) port->outside->trigger(make_event<Tick>());
    });
  }
  for (auto& t : senders) t.join();
  rt->await_quiescence();

  auto& probe = def.probe.definition_as<ExclusionProbe>();
  EXPECT_EQ(probe.violations.load(), 0);
  EXPECT_EQ(probe.counter, kEvents) << "every event handled exactly once";
}

// ---- multi-core execution and work stealing ----------------------------------

class Worker : public ComponentDefinition {
 public:
  Worker() {
    subscribe<Tick>(port_, [this](const Tick&) {
      // A bit of CPU work so parallelism matters.
      volatile double x = 1.0;
      for (int i = 0; i < 300; ++i) x = x * 1.0000001 + 0.5;
      (void)x;
      done.fetch_add(1);
    });
  }
  Negative<TickPort> port_ = provide<TickPort>();
  std::atomic<int> done{0};
};

class FarmMain : public ComponentDefinition {
 public:
  explicit FarmMain(int n) {
    for (int i = 0; i < n; ++i) workers.push_back(create<Worker>());
  }
  std::vector<Component> workers;
};

TEST(Execution, ManyComponentsAllMakeProgressAcrossWorkers) {
  auto rt = Runtime::threaded(Config{}, 4, 1);
  auto main = rt->bootstrap<FarmMain>(32);
  auto& def = main.definition_as<FarmMain>();
  rt->await_quiescence();

  constexpr int kPerComponent = 200;
  for (auto& w : def.workers) {
    auto* port = w.core()->find_port(std::type_index(typeid(TickPort)), true);
    for (int i = 0; i < kPerComponent; ++i) port->outside->trigger(make_event<Tick>());
  }
  rt->await_quiescence();
  for (auto& w : def.workers) {
    EXPECT_EQ(w.definition_as<Worker>().done.load(), kPerComponent);
  }
}

/// Fans one upstream Tick out to every connected Worker: all the resulting
/// ready-tokens are born on the spreader's own worker thread, creating the
/// imbalance that forces the other workers to steal.
class Spreader : public ComponentDefinition {
 public:
  Spreader() {
    subscribe<Tick>(out_, [this](const Tick&) { trigger(make_event<Tick>(), out_); });
  }
  void burst() { trigger(make_event<Tick>(), out_); }
  Negative<TickPort> out_ = provide<TickPort>();
};

/// Worker variant on the consuming side of a channel.
class SinkWorker : public ComponentDefinition {
 public:
  SinkWorker() {
    subscribe<Tick>(port_, [this](const Tick&) {
      volatile double x = 1.0;
      for (int i = 0; i < 300; ++i) x = x * 1.0000001 + 0.5;
      (void)x;
      done.fetch_add(1);
    });
  }
  Positive<TickPort> port_ = require<TickPort>();
  std::atomic<int> done{0};
};

class ImbalancedMain : public ComponentDefinition {
 public:
  explicit ImbalancedMain(int n) {
    spreader = create<Spreader>();
    for (int i = 0; i < n; ++i) {
      workers.push_back(create<SinkWorker>());
      connect(spreader.provided<TickPort>(), workers.back().required<TickPort>());
    }
  }
  Component spreader;
  std::vector<Component> workers;
};

TEST(WorkStealing, ImbalancedLoadTriggersSteals) {
  WorkStealingScheduler::Options opts;
  opts.workers = 4;
  auto scheduler = std::make_unique<WorkStealingScheduler>(opts);
  auto* sched = scheduler.get();
  Runtime rt(Config{}, std::move(scheduler), std::make_unique<WallClock>(), 1);

  auto main = rt.bootstrap<ImbalancedMain>(32);
  auto& def = main.definition_as<ImbalancedMain>();
  rt.await_quiescence();

  // Each burst fans out to 32 workers from one component; repeat.
  for (int i = 0; i < 200; ++i) {
    def.spreader.definition_as<Spreader>().burst();
    if (i % 20 == 0) rt.await_quiescence();
  }
  rt.await_quiescence();

  int total = 0;
  for (auto& w : def.workers) total += w.definition_as<SinkWorker>().done.load();
  EXPECT_EQ(total, 32 * 200);
  const auto stats = sched->stats();
  EXPECT_GT(stats.steals, 0u) << "fan-out imbalance should force work stealing";
}

TEST(WorkStealing, DisabledStealingStillCompletes) {
  WorkStealingScheduler::Options opts;
  opts.workers = 4;
  opts.stealing = false;
  Runtime rt(Config{}, std::make_unique<WorkStealingScheduler>(opts),
             std::make_unique<WallClock>(), 1);
  auto main = rt.bootstrap<FarmMain>(16);
  auto& def = main.definition_as<FarmMain>();
  rt.await_quiescence();
  for (auto& w : def.workers) {
    auto* port = w.core()->find_port(std::type_index(typeid(TickPort)), true);
    for (int i = 0; i < 100; ++i) port->outside->trigger(make_event<Tick>());
  }
  rt.await_quiescence();
  for (auto& w : def.workers) {
    EXPECT_EQ(w.definition_as<Worker>().done.load(), 100);
  }
}

// ---- stats consistency -------------------------------------------------------

TEST(Stats, ExecutedMatchesScheduledAfterMultiThreadedBurst) {
  WorkStealingScheduler::Options opts;
  opts.workers = 4;
  auto scheduler = std::make_unique<WorkStealingScheduler>(opts);
  auto* sched = scheduler.get();
  Runtime rt(Config{}, std::move(scheduler), std::make_unique<WallClock>(), 1);
  auto main = rt.bootstrap<FarmMain>(8);
  auto& def = main.definition_as<FarmMain>();
  rt.await_quiescence();

  // Baseline after bootstrap so lifecycle work units don't skew the ledger.
  const auto baseline = sched->stats();

  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<PortCore*> ports;
  for (auto& w : def.workers) {
    ports.push_back(w.core()->find_port(std::type_index(typeid(TickPort)), true)->outside.get());
  }
  std::vector<std::thread> senders;
  for (int t = 0; t < kThreads; ++t) {
    senders.emplace_back([&ports, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ports[static_cast<std::size_t>((t + i) % ports.size())]->trigger(make_event<Tick>());
      }
    });
  }
  for (auto& t : senders) t.join();
  rt.await_quiescence();

  constexpr std::uint64_t kTotal = kThreads * kPerThread;
  int done = 0;
  for (auto& w : def.workers) done += w.definition_as<Worker>().done.load();
  EXPECT_EQ(done, static_cast<int>(kTotal));
  // Every scheduled work unit is executed exactly once, and the per-worker
  // counters (read concurrently, written by worker threads) add up exactly.
  const auto stats = sched->stats();
  EXPECT_EQ(stats.executed - baseline.executed, kTotal)
      << "stats() must account every scheduled unit exactly once";
}

// ---- quiescence accounting -----------------------------------------------------

class ChainRelay : public ComponentDefinition {
 public:
  ChainRelay() {
    subscribe<Tick>(in_, [this](const Tick&) {
      ++relayed;
      trigger(make_event<Tick>(), out_);
    });
  }
  Positive<TickPort> in_ = require<TickPort>();
  Negative<TickPort> out_ = provide<TickPort>();
  int relayed = 0;
};

class ChainMain : public ComponentDefinition {
 public:
  explicit ChainMain(int n) {
    for (int i = 0; i < n; ++i) relays.push_back(create<ChainRelay>());
    for (int i = 0; i + 1 < n; ++i) {
      connect(relays[i].provided<TickPort>(), relays[i + 1].required<TickPort>());
    }
  }
  std::vector<Component> relays;
};

TEST(Quiescence, AwaitCoversCascadedWork) {
  auto rt = Runtime::threaded(Config{}, 4, 1);
  auto main = rt->bootstrap<ChainMain>(64);
  auto& def = main.definition_as<ChainMain>();
  rt->await_quiescence();

  // Inject at the head; a 64-deep cascade must be fully counted: when
  // await_quiescence returns, every relay has fired. (Triggering on the
  // *outside* half of a required port sends the event inward, as a channel
  // delivery would.)
  auto* head = def.relays[0].core()->find_port(std::type_index(typeid(TickPort)), false);
  for (int i = 0; i < 100; ++i) head->outside->trigger(make_event<Tick>());
  rt->await_quiescence();
  for (std::size_t i = 1; i < def.relays.size(); ++i) {
    EXPECT_EQ(def.relays[i].definition_as<ChainRelay>().relayed, 100) << "relay " << i;
  }
}

}  // namespace
}  // namespace kompics::test
