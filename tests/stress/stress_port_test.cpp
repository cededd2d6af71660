// Stress driver: PortCore subscribe/unsubscribe racing dispatch. Trigger
// threads dispatch on a port while the owning component — driven by Churn
// events — adds and removes subscriptions on that same port. This races
// add_subscription/remove_subscription (under the port lock) against
// dispatch-time matching and the executing worker's lock-free re-check of
// Subscription::active. Verifies the §2.2 semantics: the permanent handler
// sees every event; a handler unsubscribed-and-quiesced never fires again.

#include <gtest/gtest.h>

#include <array>
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
class Churn : public Event {
  KOMPICS_EVENT(Churn, Event);

 public:
  explicit Churn(bool add) : add(add) {}
  bool add;
};
class ChurnPort : public PortType {
 public:
  ChurnPort() {
    set_name("StressChurnPort");
    negative<Tick>();
    negative<Churn>();
  }
};

class Churny : public ComponentDefinition {
 public:
  Churny() {
    subscribe<Tick>(port_, [this](const Tick&) { base_seen.fetch_add(1); });
    subscribe<Churn>(port_, [this](const Churn& c) {
      // Handlers of one component are mutually exclusive, so the vector is
      // safe; the races of interest are inside the port, between these
      // (un)subscribes and the trigger threads' dispatches.
      if (c.add && dynamic_.size() < 8) {
        dynamic_.push_back(
            subscribe<Tick>(port_, [this](const Tick&) { dynamic_seen.fetch_add(1); }));
      } else if (!c.add && !dynamic_.empty()) {
        unsubscribe(dynamic_.back());
        dynamic_.pop_back();
      }
    });
  }
  std::size_t dynamic_count() const { return dynamic_.size(); }

  Negative<ChurnPort> port_ = provide<ChurnPort>();
  std::atomic<long> base_seen{0};
  std::atomic<long> dynamic_seen{0};

 private:
  std::vector<SubscriptionRef> dynamic_;
};

class Main : public ComponentDefinition {
 public:
  Main() { churny = create<Churny>(); }
  Component churny;
};

TEST(StressPort, SubscriptionChurnRacingDispatch) {
  const std::uint64_t seed = stress::announce_seed("StressPort.Churn");
  const int kTickThreads = 2;
  const int kTicksPerThread = 5000 * stress::scale();
  const int kChurns = 4000 * stress::scale();

  auto rt = Runtime::threaded(Config{}, 2, 1);
  auto main = rt->bootstrap<Main>();
  auto& def = main.definition_as<Main>();
  rt->await_quiescence();
  auto& churny = def.churny.definition_as<Churny>();

  PortCore* port =
      def.churny.core()->find_port(std::type_index(typeid(ChurnPort)), true)->outside.get();

  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kTickThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(seed + static_cast<std::uint64_t>(t));
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kTicksPerThread; ++i) {
        port->trigger(make_event<Tick>());
        if ((rng() & 0xff) == 0) std::this_thread::yield();
      }
    });
  }
  threads.emplace_back([&] {
    std::mt19937_64 rng(seed ^ 0xfeed);
    while (!go.load()) std::this_thread::yield();
    for (int i = 0; i < kChurns; ++i) {
      port->trigger(make_event<Churn>((rng() & 1) != 0));
      if ((rng() & 0x3f) == 0) std::this_thread::yield();
    }
  });
  go.store(true);
  for (auto& t : threads) t.join();
  rt->await_quiescence();

  const long total_ticks = static_cast<long>(kTickThreads) * kTicksPerThread;
  EXPECT_EQ(churny.base_seen.load(), total_ticks)
      << "the permanent subscription must see every tick despite churn";

  // Drain all dynamic subscriptions, then verify none ever fires again.
  for (int i = 0; i < 8; ++i) port->trigger(make_event<Churn>(false));
  rt->await_quiescence();
  ASSERT_EQ(churny.dynamic_count(), 0u);
  const long dynamic_before = churny.dynamic_seen.load();
  for (int i = 0; i < 500; ++i) port->trigger(make_event<Tick>());
  rt->await_quiescence();
  EXPECT_EQ(churny.dynamic_seen.load(), dynamic_before)
      << "an unsubscribed-and-quiesced handler fired again";
  EXPECT_EQ(churny.base_seen.load(), total_ticks + 500);
}

// ---- subscribe/unsubscribe windows against concurrent triggers -------------

constexpr std::size_t kWindowSinks = 4;

/// Carries, per sink, the phase its trigger thread read before triggering:
/// 0 = unstamped (a window is opening or closing), odd 2r-1 = round r's
/// subscription had returned, even 2r = round r's unsubscribe had returned.
class Probe : public Event {
  KOMPICS_EVENT(Probe, Event);

 public:
  explicit Probe(std::array<std::uint32_t, kWindowSinks> phase) : phase(phase) {}
  std::array<std::uint32_t, kWindowSinks> phase;
};
/// Sibling of Probe with a permanent subscription on every sink, so the
/// interest mask is never empty and a closed window is pruned by the mask.
class Keep : public Event {
  KOMPICS_EVENT(Keep, Event);
};
class WindowPort : public PortType {
 public:
  WindowPort() {
    set_name("StressWindowPort");
    negative<Probe>();
    negative<Keep>();
  }
};

class WindowSink : public ComponentDefinition {
 public:
  WindowSink(std::size_t index, std::size_t rounds) : delivered(rounds + 1), index_(index) {
    subscribe<Keep>(port_, [this](const Keep&) { keep_seen.fetch_add(1); });
  }
  SubscriptionRef open() {
    return subscribe<Probe>(port_, [this](const Probe& p) {
      const std::uint32_t phase = p.phase[index_];
      if (phase == 0) return;
      if (phase % 2 == 1) {
        delivered[(phase + 1) / 2].fetch_add(1);
      } else {
        after_unsubscribe.fetch_add(1);
      }
    });
  }
  void close(const SubscriptionRef& s) { unsubscribe(s); }

  Negative<WindowPort> port_ = provide<WindowPort>();
  std::vector<std::atomic<long>> delivered;  // per round
  std::atomic<long> after_unsubscribe{0};
  std::atomic<long> keep_seen{0};

 private:
  std::size_t index_;
};

class WindowSource : public ComponentDefinition {
 public:
  void send(const EventPtr& e) { trigger(e, port_); }
  Positive<WindowPort> port_ = require<WindowPort>();
};

class WindowMain : public ComponentDefinition {
 public:
  explicit WindowMain(std::size_t rounds) {
    source = create<WindowSource>();
    for (std::size_t k = 0; k < kWindowSinks; ++k) {
      sinks.push_back(create<WindowSink>(k, rounds));
      connect(source.required<WindowPort>(), sinks.back().provided<WindowPort>());
    }
  }
  Component source;
  std::vector<Component> sinks;
};

TEST(StressPort, SubscribeWindowsRacingTriggersDeliverExactly) {
  const std::uint64_t seed = stress::announce_seed("StressPort.Windows");
  const std::size_t kRounds = 25 * static_cast<std::size_t>(stress::scale());
  const long kPerWindow = 150;
  constexpr std::size_t kTriggerThreads = 2;
  const int kBudgetMs = 120000;

  auto rt = Runtime::threaded(Config{}, 4, 1);
  auto main = rt->bootstrap<WindowMain>(kRounds);
  auto& def = main.definition_as<WindowMain>();
  rt->await_quiescence();
  auto& source = def.source.definition_as<WindowSource>();

  std::array<std::atomic<std::uint32_t>, kWindowSinks> phase{};
  // sent[k][r]: Probes stamped "round r open" for sink k, counted after
  // their trigger() returned; gap_sent[k]: those stamped "closed".
  std::vector<std::vector<std::atomic<long>>> sent;
  for (std::size_t k = 0; k < kWindowSinks; ++k) sent.emplace_back(kRounds + 1);
  std::array<std::atomic<long>, kWindowSinks> gap_sent{};
  std::atomic<long> keep_sent{0};

  // Handshake: a toggler changes a phase, bumps `gen`, and waits until every
  // trigger thread has begun an iteration under the new generation — every
  // event stamped with the old phase has then been triggered and counted.
  std::atomic<std::uint64_t> gen{0};
  std::array<std::atomic<std::uint64_t>, kTriggerThreads> ack{};
  std::atomic<bool> stop{false};
  auto quiesce_triggers = [&] {
    const std::uint64_t g = gen.fetch_add(1) + 1;
    return stress::spin_until(
        [&] {
          for (const auto& a : ack) {
            if (a.load() < g) return false;
          }
          return true;
        },
        kBudgetMs);
  };

  std::vector<std::thread> triggers;
  for (std::size_t t = 0; t < kTriggerThreads; ++t) {
    triggers.emplace_back([&, t] {
      std::mt19937_64 rng(seed + t);
      for (;;) {
        ack[t].store(gen.load());
        if (stop.load()) return;
        while (rt->pending() > 2048) std::this_thread::yield();
        if ((rng() & 7) == 0) {
          source.send(make_event<Keep>());
          keep_sent.fetch_add(1);
          continue;
        }
        std::array<std::uint32_t, kWindowSinks> stamp{};
        for (std::size_t k = 0; k < kWindowSinks; ++k) stamp[k] = phase[k].load();
        source.send(make_event<Probe>(stamp));
        for (std::size_t k = 0; k < kWindowSinks; ++k) {
          if (stamp[k] == 0) continue;
          if (stamp[k] % 2 == 1) {
            sent[k][(stamp[k] + 1) / 2].fetch_add(1);
          } else {
            gap_sent[k].fetch_add(1);
          }
        }
        if ((rng() & 0x3f) == 0) std::this_thread::yield();
      }
    });
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> togglers;
  for (std::size_t k = 0; k < kWindowSinks; ++k) {
    togglers.emplace_back([&, k] {
      auto& sink = def.sinks[k].definition_as<WindowSink>();
      for (std::size_t r = 1; r <= kRounds; ++r) {
        SubscriptionRef sub = sink.open();
        phase[k].store(static_cast<std::uint32_t>(2 * r - 1));
        const bool filled =
            stress::spin_until([&] { return sent[k][r].load() >= kPerWindow; }, kBudgetMs);
        phase[k].store(0);
        const bool drained =
            quiesce_triggers() &&
            stress::spin_until([&] { return sink.delivered[r].load() == sent[k][r].load(); },
                               kBudgetMs);
        if (!filled || !drained) {
          ADD_FAILURE() << "sink " << k << " round " << r << ": delivered "
                        << sink.delivered[r].load() << " of " << sent[k][r].load()
                        << " events triggered after subscribe() returned";
          failures.fetch_add(1);
          return;
        }
        sink.close(sub);
        phase[k].store(static_cast<std::uint32_t>(2 * r));
        const long gap_goal = gap_sent[k].load() + kPerWindow / 4;
        stress::spin_until([&] { return gap_sent[k].load() >= gap_goal; }, kBudgetMs);
        phase[k].store(0);
        quiesce_triggers();
      }
    });
  }
  for (auto& t : togglers) t.join();
  stop.store(true);
  for (auto& t : triggers) t.join();
  ASSERT_TRUE(rt->await_quiescence_for(kBudgetMs));
  ASSERT_EQ(failures.load(), 0);

  for (std::size_t k = 0; k < kWindowSinks; ++k) {
    auto& sink = def.sinks[k].definition_as<WindowSink>();
    for (std::size_t r = 1; r <= kRounds; ++r) {
      EXPECT_EQ(sink.delivered[r].load(), sent[k][r].load()) << "sink " << k << " round " << r;
    }
    EXPECT_GT(gap_sent[k].load(), 0);
    EXPECT_EQ(sink.after_unsubscribe.load(), 0)
        << "sink " << k << " handled an event triggered after unsubscribe() returned";
    EXPECT_EQ(sink.keep_seen.load(), keep_sent.load())
        << "the permanent subscription of sink " << k << " missed events";
  }
}

}  // namespace
}  // namespace kompics::test
