// Stress driver: PortCore subscribe/unsubscribe racing dispatch. Trigger
// threads dispatch on a port while the owning component — driven by Churn
// events — adds and removes subscriptions on that same port. This races
// add_subscription/remove_subscription (under the port lock) against
// dispatch-time matching and the executing worker's lock-free re-check of
// Subscription::active. Verifies the §2.2 semantics: the permanent handler
// sees every event; a handler unsubscribed-and-quiesced never fires again.

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

}  // namespace
}  // namespace kompics::test
