// Runtime reactor (kompics/reactor.hpp): the production Timer, Network and
// Web providers share one reactor thread per runtime and own none of their
// own; a simulation-only runtime never starts it; destroy_tree() drops a
// component's registrations on the spot.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include "kompics/kompics.hpp"
#include "net/tcp_network.hpp"
#include "sim/sim_timer.hpp"
#include "sim/simulation.hpp"
#include "timing/thread_timer.hpp"
#include "web/http_server.hpp"

namespace kompics::test {
namespace {

using timing::Timer;

/// OS threads of this process, counted from /proc/self/task.
int os_threads() {
  int n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

struct Tick : timing::Timeout {
  KOMPICS_EVENT(Tick, timing::Timeout);
  using timing::Timeout::Timeout;
};

/// Arms one periodic timeout on Start and counts its firings.
class Ticker : public ComponentDefinition {
 public:
  explicit Ticker(DurationMs period_ms = 5) {
    subscribe<Start>(control(), [this, period_ms](const Start&) {
      trigger(timing::schedule_periodic<Tick>(period_ms, period_ms), timer_);
    });
    subscribe<Tick>(timer_, [this](const Tick&) { fired.fetch_add(1); });
  }
  Positive<Timer> timer_ = require<Timer>();
  std::atomic<int> fired{0};
};

std::uint16_t pick_port() {
  // Pid-spread (see tcp_network_test.cpp), below the kernel's ephemeral
  // range so no outgoing connection already holds the port.
  static std::atomic<std::uint16_t> next{
      static_cast<std::uint16_t>(28500 + (static_cast<unsigned>(::getpid()) * 131u) % 2500u)};
  return next.fetch_add(1);
}

class Silent : public ComponentDefinition {
 public:
  Silent() {
    subscribe<web::WebRequest>(web_, [](const web::WebRequest&) {});
  }
  Negative<web::Web> web_ = provide<web::Web>();
};

class Crowd : public ComponentDefinition {
 public:
  Crowd() {
    for (int i = 0; i < 8; ++i) {
      timers.push_back(create<timing::ThreadTimer>());
      tickers.push_back(create<Ticker>());
      connect(tickers.back().required<Timer>(), timers.back().provided<Timer>());
    }
    for (int i = 0; i < 4; ++i) {
      nets.push_back(create<net::TcpNetwork>());
      trigger(make_event<net::TcpNetwork::Init>(net::Address::loopback(pick_port())),
              nets.back().control());
    }
    http = create<web::HttpServer>();
    trigger(make_event<web::HttpServer::Init>(net::Address::loopback(0)), http.control());
    app = create<Silent>();
    connect(app.provided<web::Web>(), http.required<web::Web>());
  }
  std::vector<Component> timers, tickers, nets;
  Component http, app;
};

class Idle : public ComponentDefinition {};

TEST(Reactor, ProvidersAddExactlyOneThreadBesideTheWorkers) {
  // Baseline: a 2-worker runtime with no providers (this also absorbs any
  // helper thread a sanitizer runtime starts with the first thread).
  const int idle = [] {
    auto rt = Runtime::threaded(Config{}, 2, 1);
    rt->bootstrap<Idle>();
    rt->await_quiescence();
    return os_threads();
  }();
  auto rt = Runtime::threaded(Config{}, 2, 1);
  auto main = rt->bootstrap<Crowd>();
  rt->await_quiescence();
  auto& crowd = main.definition_as<Crowd>();
  // Every timer is firing, so every provider is live.
  for (auto& t : crowd.tickers) {
    auto& ticker = t.definition_as<Ticker>();
    for (int i = 0; i < 2000 && ticker.fired.load() < 3; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GE(ticker.fired.load(), 3);
  }
  // The one reactor thread: 8 ThreadTimers, 4 TcpNetworks and an
  // HttpServer own no thread.
  EXPECT_EQ(os_threads(), idle + 1);
}

class SimTicking : public ComponentDefinition {
 public:
  explicit SimTicking(sim::SimulatorCore* core) {
    timer = create<sim::SimTimer>();
    trigger(make_event<sim::SimTimer::Init>(core), timer.control());
    ticker = create<Ticker>();
    connect(ticker.required<Timer>(), timer.provided<Timer>());
  }
  Component timer, ticker;
};

TEST(Reactor, SimulationOnlyRuntimeStartsNoReactorThread) {
  const int before = os_threads();
  sim::Simulation sim;
  auto main = sim.bootstrap<SimTicking>(&sim.core());
  sim.run_until(1000);
  EXPECT_GT(main.definition_as<SimTicking>().ticker.definition_as<Ticker>().fired.load(), 100);
  EXPECT_EQ(os_threads(), before);
}

class TimerPair : public ComponentDefinition {
 public:
  TimerPair() {
    timer = create<timing::ThreadTimer>();
    ticker = create<Ticker>(/*period_ms=*/60000);
    connect(ticker.required<Timer>(), timer.provided<Timer>());
  }
  void kill_timer() { destroy(timer); }
  Component timer, ticker;
};

TEST(Reactor, DestroyDropsTheDefinitionsDeadlinesAtOnce) {
  auto rt = Runtime::threaded(Config{}, 2, 1);
  auto main = rt->bootstrap<TimerPair>();
  rt->await_quiescence();
  auto& pair = main.definition_as<TimerPair>();
  for (int i = 0; i < 2000 && rt->reactor().armed_deadlines() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(rt->reactor().armed_deadlines(), 1u) << "the periodic tick is armed";
  pair.kill_timer();
  EXPECT_EQ(rt->reactor().armed_deadlines(), 0u) << "destroy must drop the armed deadline";
}

}  // namespace
}  // namespace kompics::test
