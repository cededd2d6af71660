// TcpNetwork integration tests: real kernel sockets on 127.0.0.1 —
// connection management, framing across partial reads, serialization, the
// compression path, bidirectional traffic, and failure reporting.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <random>
#include <thread>

#include "kompics/kompics.hpp"
#include "net/loopback.hpp"
#include "net/tcp_network.hpp"

namespace kompics::net::test {
namespace {

// Test message with variable-size payload.
class Blob : public Message {
  KOMPICS_EVENT(Blob, Message);

 public:
  Blob(Address s, Address d, std::uint64_t seq, Bytes payload)
      : Message(s, d), seq(seq), payload(std::move(payload)) {}
  static constexpr auto wire_fields() { return wire::fields(&Blob::seq, &Blob::payload); }
  std::uint64_t seq;
  Bytes payload;
};

KOMPICS_REGISTER_MESSAGE(Blob, 9100);

class Endpoint : public ComponentDefinition {
 public:
  Endpoint() {
    subscribe<Blob>(network_, [this](const Blob& b) {
      bytes_received.fetch_add(b.payload.size());
      received.fetch_add(1);
      last_seq.store(b.seq);
    });
    subscribe<SendFailed>(netctl_, [this](const SendFailed&) { failures.fetch_add(1); });
  }
  void send(Address from, Address to, std::uint64_t seq, Bytes payload) {
    trigger(make_event<Blob>(from, to, seq, std::move(payload)), network_);
  }
  Positive<Network> network_ = require<Network>();
  Positive<NetworkControl> netctl_ = require<NetworkControl>();
  std::atomic<std::uint64_t> received{0};
  std::atomic<std::uint64_t> bytes_received{0};
  std::atomic<std::uint64_t> last_seq{0};
  std::atomic<std::uint64_t> failures{0};
};

class Node : public ComponentDefinition {
 public:
  Node(Address self, TcpNetwork::Options opts) {
    net = create<TcpNetwork>();
    trigger(make_event<TcpNetwork::Init>(self, opts), net.control());
    app = create<Endpoint>();
    connect(net.provided<Network>(), app.required<Network>());
    connect(net.provided<NetworkControl>(), app.required<NetworkControl>());
  }
  Component net, app;
};

class TwoNodeMain : public ComponentDefinition {
 public:
  TwoNodeMain(Address a, Address b, TcpNetwork::Options opts) {
    node_a = create<Node>(a, opts);
    node_b = create<Node>(b, opts);
  }
  Component node_a, node_b;
};

std::uint16_t pick_port() {
  // Base derived from the pid: ctest runs each test in its own process and
  // may run several concurrently, so a fixed base collides across processes
  // (bind: Address already in use). Consecutive pids land ~131 ports apart.
  static std::atomic<std::uint16_t> next{
      static_cast<std::uint16_t>(24000 + (static_cast<unsigned>(::getpid()) * 131u) % 4000u)};
  return next.fetch_add(1);
}

void wait_for(std::function<bool()> cond, int budget_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(budget_ms);
  while (!cond() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

TEST(TcpNetwork, RoundTripSmallMessages) {
  const Address a = Address::loopback(pick_port());
  const Address b = Address::loopback(pick_port());
  auto rt = Runtime::threaded(Config{}, 2, 1);
  auto main = rt->bootstrap<TwoNodeMain>(a, b, TcpNetwork::Options{});
  auto& def = main.definition_as<TwoNodeMain>();
  rt->await_quiescence();

  auto& app_a = def.node_a.definition_as<Node>().app.definition_as<Endpoint>();
  auto& app_b = def.node_b.definition_as<Node>().app.definition_as<Endpoint>();
  for (std::uint64_t i = 1; i <= 100; ++i) app_a.send(a, b, i, Bytes{1, 2, 3});
  wait_for([&] { return app_b.received.load() == 100; });
  EXPECT_EQ(app_b.received.load(), 100u);
  EXPECT_EQ(app_b.last_seq.load(), 100u) << "TCP must preserve order";

  // And back on the same connection pair.
  for (std::uint64_t i = 1; i <= 50; ++i) app_b.send(b, a, i, Bytes{9});
  wait_for([&] { return app_a.received.load() == 50; });
  EXPECT_EQ(app_a.received.load(), 50u);
}

TEST(TcpNetwork, LargeMessagesCrossFrameBoundaries) {
  const Address a = Address::loopback(pick_port());
  const Address b = Address::loopback(pick_port());
  auto rt = Runtime::threaded(Config{}, 2, 1);
  auto main = rt->bootstrap<TwoNodeMain>(a, b, TcpNetwork::Options{});
  auto& def = main.definition_as<TwoNodeMain>();
  rt->await_quiescence();

  auto& app_a = def.node_a.definition_as<Node>().app.definition_as<Endpoint>();
  auto& app_b = def.node_b.definition_as<Node>().app.definition_as<Endpoint>();

  std::mt19937_64 rng(5);
  std::uint64_t total = 0;
  for (std::uint64_t i = 1; i <= 20; ++i) {
    Bytes payload(64 * 1024 + i * 1000);
    for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng());
    total += payload.size();
    app_a.send(a, b, i, std::move(payload));
  }
  wait_for([&] { return app_b.received.load() == 20; }, 10000);
  EXPECT_EQ(app_b.received.load(), 20u);
  EXPECT_EQ(app_b.bytes_received.load(), total);
}

TEST(TcpNetwork, CompressionPathRoundTrips) {
  const Address a = Address::loopback(pick_port());
  const Address b = Address::loopback(pick_port());
  TcpNetwork::Options opts;
  opts.compress = true;
  auto rt = Runtime::threaded(Config{}, 2, 1);
  auto main = rt->bootstrap<TwoNodeMain>(a, b, opts);
  auto& def = main.definition_as<TwoNodeMain>();
  rt->await_quiescence();

  auto& app_a = def.node_a.definition_as<Node>().app.definition_as<Endpoint>();
  auto& app_b = def.node_b.definition_as<Node>().app.definition_as<Endpoint>();

  // Highly compressible payload, above the compression threshold.
  Bytes payload(32 * 1024, 0x42);
  ASSERT_GE(payload.size(), TcpNetwork::kCompressThreshold);
  app_a.send(a, b, 1, payload);
  wait_for([&] { return app_b.received.load() == 1; });
  ASSERT_EQ(app_b.received.load(), 1u);
  EXPECT_EQ(app_b.bytes_received.load(), payload.size());

  // The wire carried far fewer bytes than the payload.
  const auto counters = def.node_a.definition_as<Node>().net.definition_as<TcpNetwork>().counters();
  EXPECT_LT(counters.bytes_sent, payload.size() / 4);
}

TEST(TcpNetwork, ConnectionRefusedReportsSendFailed) {
  const Address a = Address::loopback(pick_port());
  const Address dead = Address::loopback(pick_port());  // nobody listens
  auto rt = Runtime::threaded(Config{}, 2, 1);
  auto main = rt->bootstrap<TwoNodeMain>(a, Address::loopback(pick_port()),
                                         TcpNetwork::Options{});
  auto& def = main.definition_as<TwoNodeMain>();
  rt->await_quiescence();

  auto& app_a = def.node_a.definition_as<Node>().app.definition_as<Endpoint>();
  app_a.send(a, dead, 1, Bytes{1});
  wait_for([&] { return app_a.failures.load() >= 1; });
  EXPECT_GE(app_a.failures.load(), 1u);
}

// ---- loopback codec path -----------------------------------------------------

class LoopNode : public ComponentDefinition {
 public:
  LoopNode(Address self, LoopbackHubPtr hub, bool codec, bool compress) {
    net = create<LoopbackNetwork>();
    trigger(make_event<LoopbackNetwork::Init>(self, hub, codec, compress), net.control());
    app = create<Endpoint>();
    connect(net.provided<Network>(), app.required<Network>());
    connect(net.provided<NetworkControl>(), app.required<NetworkControl>());
  }
  Component net, app;
};

class LoopMain : public ComponentDefinition {
 public:
  LoopMain(LoopbackHubPtr hub, bool codec, bool compress) {
    a = create<LoopNode>(Address::node(1), hub, codec, compress);
    b = create<LoopNode>(Address::node(2), hub, codec, compress);
  }
  Component a, b;
};

TEST(Loopback, CodecExercisingPathDeliversEqualMessages) {
  auto hub = std::make_shared<LoopbackHub>();
  auto rt = Runtime::threaded(Config{}, 2, 1);
  auto main = rt->bootstrap<LoopMain>(hub, /*codec=*/true, /*compress=*/true);
  auto& def = main.definition_as<LoopMain>();
  rt->await_quiescence();

  auto& app_a = def.a.definition_as<LoopNode>().app.definition_as<Endpoint>();
  auto& app_b = def.b.definition_as<LoopNode>().app.definition_as<Endpoint>();
  Bytes payload(1024);
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<std::uint8_t>(i);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    app_a.send(Address::node(1), Address::node(2), i, payload);
  }
  rt->await_quiescence();
  EXPECT_EQ(app_b.received.load(), 10u);
  EXPECT_EQ(app_b.bytes_received.load(), 10 * payload.size());
  EXPECT_EQ(app_b.last_seq.load(), 10u);
  EXPECT_GT(def.a.definition_as<LoopNode>().net.definition_as<LoopbackNetwork>().bytes_on_wire(),
            0u);
}

TEST(Loopback, UnroutableDestinationCountsAsDropped) {
  auto hub = std::make_shared<LoopbackHub>();
  auto rt = Runtime::threaded(Config{}, 2, 1);
  auto main = rt->bootstrap<LoopMain>(hub, false, false);
  auto& def = main.definition_as<LoopMain>();
  rt->await_quiescence();

  auto& app_a = def.a.definition_as<LoopNode>().app.definition_as<Endpoint>();
  app_a.send(Address::node(1), Address::node(99), 1, Bytes{});
  rt->await_quiescence();
  EXPECT_EQ(def.a.definition_as<LoopNode>().net.definition_as<LoopbackNetwork>().dropped(), 1u);
}

}  // namespace
}  // namespace kompics::net::test
