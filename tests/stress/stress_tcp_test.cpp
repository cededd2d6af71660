// Stress driver: TcpNetwork connect/teardown loops on 127.0.0.1. Each
// round boots a fresh runtime with two nodes, pushes bidirectional traffic
// (forcing connect-on-first-send both ways), then tears everything down
// with frames potentially still in flight. ASan patrols the teardown for
// use-after-free/leaks; TSan patrols the reactor-to-worker hand-off. A
// refused-connection round exercises the failure path.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <random>
#include <thread>

#include "kompics/kompics.hpp"
#include "net/serialization.hpp"
#include "net/tcp_network.hpp"
#include "stress_util.hpp"

namespace kompics::net::test {
namespace {

class Blob : public Message {
  KOMPICS_EVENT(Blob, Message);

 public:
  Blob(Address s, Address d, std::uint64_t seq, Bytes payload)
      : Message(s, d), seq(seq), payload(std::move(payload)) {}
  static constexpr auto wire_fields() { return wire::fields(&Blob::seq, &Blob::payload); }
  std::uint64_t seq;
  Bytes payload;
};

KOMPICS_REGISTER_MESSAGE(Blob, 9200);

class Endpoint : public ComponentDefinition {
 public:
  Endpoint() {
    subscribe<Blob>(network_, [this](const Blob&) { received.fetch_add(1); });
    subscribe<SendFailed>(netctl_, [this](const SendFailed&) { failures.fetch_add(1); });
  }
  void send(Address from, Address to, std::uint64_t seq, Bytes payload) {
    trigger(make_event<Blob>(from, to, seq, std::move(payload)), network_);
  }
  Positive<Network> network_ = require<Network>();
  Positive<NetworkControl> netctl_ = require<NetworkControl>();
  std::atomic<std::uint64_t> received{0};
  std::atomic<std::uint64_t> failures{0};
};

class Node : public ComponentDefinition {
 public:
  explicit Node(Address self) {
    net = create<TcpNetwork>();
    trigger(make_event<TcpNetwork::Init>(self, TcpNetwork::Options{}), net.control());
    app = create<Endpoint>();
    connect(net.provided<Network>(), app.required<Network>());
    connect(net.provided<NetworkControl>(), app.required<NetworkControl>());
  }
  Component net, app;
};

class TwoNodeMain : public ComponentDefinition {
 public:
  TwoNodeMain(Address a, Address b) {
    node_a = create<Node>(a);
    node_b = create<Node>(b);
  }
  Component node_a, node_b;
};

std::uint16_t pick_port() {
  // Pid-spread base (see tcp_network_test.cpp): concurrent ctest processes
  // must not hand out overlapping ports, or "refused connection" targets in
  // one test turn out to be live listeners of another. The range stays below
  // Linux's ephemeral ports (32768-60999), where another test's outbound
  // connection could already hold the port, and clear of the other test
  // binaries' ranges (stress_reactor 12000-20000, tcp_network 24000-28000,
  // reactor 28500-31000).
  static std::atomic<std::uint16_t> next{
      static_cast<std::uint16_t>(20000 + (static_cast<unsigned>(::getpid()) * 131u) % 3800u)};
  return next.fetch_add(1);
}

TEST(StressTcp, ConnectTeardownLoops) {
  const std::uint64_t seed = stress::announce_seed("StressTcp.Loops");
  const int kRounds = 6 * stress::scale();
  const std::uint64_t kMessages = 150;

  std::mt19937_64 rng(seed);
  for (int round = 0; round < kRounds; ++round) {
    const Address a = Address::loopback(pick_port());
    const Address b = Address::loopback(pick_port());
    auto rt = Runtime::threaded(Config{}, 2, 1);
    auto main = rt->bootstrap<TwoNodeMain>(a, b);
    auto& def = main.definition_as<TwoNodeMain>();
    rt->await_quiescence();

    auto& app_a = def.node_a.definition_as<Node>().app.definition_as<Endpoint>();
    auto& app_b = def.node_b.definition_as<Node>().app.definition_as<Endpoint>();

    // Bidirectional so both sides run connect-on-first-send and accept.
    for (std::uint64_t i = 1; i <= kMessages; ++i) {
      Bytes payload(rng() % 2048);
      for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng());
      app_a.send(a, b, i, payload);
      app_b.send(b, a, i, std::move(payload));
    }
    const bool delivered = stress::spin_until(
        [&] { return app_a.received.load() == kMessages && app_b.received.load() == kMessages; },
        15000);
    EXPECT_TRUE(delivered) << "round " << round << ": a=" << app_a.received.load()
                           << " b=" << app_b.received.load();

    if ((rng() & 1) != 0) {
      // Half the rounds: tear down with the last frames barely settled and
      // no graceful drain period at all.
      rt->shutdown();
    }
    // Runtime destructor handles the rest of the teardown.
  }
}

TEST(StressTcp, TeardownWithFramesInFlight) {
  const std::uint64_t seed = stress::announce_seed("StressTcp.InFlight");
  const int kRounds = 6 * stress::scale();

  std::mt19937_64 rng(seed);
  for (int round = 0; round < kRounds; ++round) {
    const Address a = Address::loopback(pick_port());
    const Address b = Address::loopback(pick_port());
    auto rt = Runtime::threaded(Config{}, 2, 1);
    auto main = rt->bootstrap<TwoNodeMain>(a, b);
    auto& def = main.definition_as<TwoNodeMain>();
    rt->await_quiescence();

    auto& app_a = def.node_a.definition_as<Node>().app.definition_as<Endpoint>();
    // Blast larger frames and destroy the runtime mid-stream: receivers may
    // see an arbitrary prefix; nothing may crash, leak, or double-free.
    for (std::uint64_t i = 1; i <= 80; ++i) {
      app_a.send(a, b, i, Bytes(16 * 1024, static_cast<std::uint8_t>(i)));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(rng() % 20));
  }
}

TEST(StressTcp, RefusedConnectionStorm) {
  stress::announce_seed("StressTcp.Refused");
  const int kTargets = 20;

  const Address self = Address::loopback(pick_port());
  auto rt = Runtime::threaded(Config{}, 2, 1);
  auto main = rt->bootstrap<TwoNodeMain>(self, Address::loopback(pick_port()));
  auto& def = main.definition_as<TwoNodeMain>();
  rt->await_quiescence();

  auto& app = def.node_a.definition_as<Node>().app.definition_as<Endpoint>();
  // A burst of sends to ports nobody listens on: every one must come back
  // as SendFailed instead of wedging the network or leaking conns.
  for (int i = 0; i < kTargets; ++i) {
    app.send(self, Address::loopback(pick_port()), static_cast<std::uint64_t>(i), Bytes{1, 2});
  }
  const bool reported = stress::spin_until(
      [&] { return app.failures.load() >= static_cast<std::uint64_t>(kTargets); }, 15000);
  EXPECT_TRUE(reported) << "failures=" << app.failures.load();
}

}  // namespace
}  // namespace kompics::net::test
