// Stress test: destroy_tree() against live reactor registrations. Each
// round boots a runtime with several subtrees, each holding a ThreadTimer
// with armed periodic timeouts, two TcpNetworks streaming frames at each
// other, and an HttpServer with a request parked on a silent application.
// A seeded subset of the subtrees is stopped and destroyed mid-traffic
// while their deadlines keep coming due and their sockets stay readable;
// the survivors must keep working, the parked clients of the destroyed ones
// must see their connection closed, and the runtime then tears the rest
// down. ASan patrols readiness delivered into freed cores; TSan patrols the
// reactor-to-worker hand-off.

#include <gtest/gtest.h>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <random>
#include <thread>
#include <vector>

#include "kompics/kompics.hpp"
#include "net/serialization.hpp"
#include "net/tcp_network.hpp"
#include "stress_util.hpp"
#include "timing/thread_timer.hpp"
#include "web/http_server.hpp"

namespace kompics::test {
namespace {

using net::Address;
using net::Bytes;

class Chunk : public net::Message {
  KOMPICS_EVENT(Chunk, net::Message);

 public:
  Chunk(Address s, Address d, Bytes payload) : Message(s, d), payload(std::move(payload)) {}
  static constexpr auto wire_fields() { return net::wire::fields(&Chunk::payload); }
  Bytes payload;
};

KOMPICS_REGISTER_MESSAGE(Chunk, 9300);

struct PumpTick : timing::Timeout {
  KOMPICS_EVENT(PumpTick, timing::Timeout);
  using timing::Timeout::Timeout;
};

/// Once started with go(), sends a few KB to its peer on every 1 ms tick;
/// counts what arrives.
class Pump : public ComponentDefinition {
 public:
  Pump(Address self, Address peer) : self_(self), peer_(peer) {
    subscribe<PumpTick>(timer_, [this](const PumpTick&) {
      trigger(make_event<Chunk>(self_, peer_, Bytes(1024 + rng().next_below(3072), 0x5a)), net_);
    });
    subscribe<Chunk>(net_, [this](const Chunk&) { received.fetch_add(1); });
  }
  void go() { trigger(timing::schedule_periodic<PumpTick>(1, 1), timer_); }
  Positive<timing::Timer> timer_ = require<timing::Timer>();
  Positive<net::Network> net_ = require<net::Network>();
  std::atomic<long> received{0};

 private:
  Address self_, peer_;
};

class SilentApp : public ComponentDefinition {
 public:
  SilentApp() {
    subscribe<web::WebRequest>(web_, [](const web::WebRequest&) {});
  }
  Negative<web::Web> web_ = provide<web::Web>();
};

class Subtree : public ComponentDefinition {
 public:
  Subtree(Address a, Address b) {
    timer = create<timing::ThreadTimer>();
    for (const auto& [self, peer] : {std::pair{a, b}, std::pair{b, a}}) {
      nets.push_back(create<net::TcpNetwork>());
      trigger(make_event<net::TcpNetwork::Init>(self), nets.back().control());
      pumps.push_back(create<Pump>(self, peer));
      connect(pumps.back().required<net::Network>(), nets.back().provided<net::Network>());
      connect(pumps.back().required<timing::Timer>(), timer.provided<timing::Timer>());
    }
    http = create<web::HttpServer>();
    trigger(make_event<web::HttpServer::Init>(Address::loopback(0), /*request_timeout_ms=*/60000),
            http.control());
    app = create<SilentApp>();
    connect(app.provided<web::Web>(), http.required<web::Web>());
  }
  long received() const {
    return pumps[0].definition_as<Pump>().received.load() +
           pumps[1].definition_as<Pump>().received.load();
  }
  Component timer, http, app;
  std::vector<Component> nets, pumps;
};

class Forest : public ComponentDefinition {
 public:
  explicit Forest(const std::vector<std::uint16_t>& ports) {
    for (std::size_t i = 0; i + 1 < ports.size(); i += 2) {
      trees.push_back(
          create<Subtree>(Address::loopback(ports[i]), Address::loopback(ports[i + 1])));
      const int bit = 1 << (trees.size() - 1);
      subscribe<Stopped>(trees.back().control(),
                         [this, bit](const Stopped&) { stopped.fetch_or(bit); });
    }
  }
  // Stop first: a handler still running in a subtree could otherwise
  // trigger through a channel into a sibling core that destroy() frees.
  void stop(std::size_t i) { trigger(make_event<Stop>(), trees[i].control()); }
  void kill(std::size_t i) { destroy(trees[i]); }
  std::vector<Component> trees;
  std::atomic<int> stopped{0};  // bit i: subtree i confirmed Stopped
};

std::uint16_t pick_port() {
  // Pid-spread (see tcp_network_test.cpp), below the kernel's ephemeral
  // range so no outgoing connection already holds the port.
  static std::atomic<std::uint16_t> next{
      static_cast<std::uint16_t>(12000 + (static_cast<unsigned>(::getpid()) * 131u) % 8000u)};
  return next.fetch_add(1);
}

/// Connects and sends a complete request that the silent app never answers.
int park_request(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(0x7f000001);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const std::string req = "GET /parked HTTP/1.0\r\n\r\n";
  (void)!::send(fd, req.data(), req.size(), MSG_NOSIGNAL);
  timeval tv{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

TEST(StressReactor, DestroyWithLiveRegistrations) {
  const std::uint64_t seed = stress::announce_seed("StressReactor.DestroyWithLiveRegistrations");
  const int kRounds = 6 * stress::scale();
  constexpr std::size_t kTrees = 3;
  std::mt19937_64 rng(seed);

  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::uint16_t> ports;
    for (std::size_t i = 0; i < 2 * kTrees; ++i) ports.push_back(pick_port());
    auto rt = Runtime::threaded(Config{}, 2, seed + static_cast<std::uint64_t>(round));
    auto main = rt->bootstrap<Forest>(ports);
    auto& forest = main.definition_as<Forest>();
    rt->await_quiescence();  // before the pumps tick: afterwards it may never come

    std::vector<Subtree*> trees;
    std::vector<int> clients;
    for (auto& t : forest.trees) {
      trees.push_back(&t.definition_as<Subtree>());
      clients.push_back(park_request(trees.back()->http.definition_as<web::HttpServer>().port()));
      ASSERT_GE(clients.back(), 0);
    }
    for (auto& t : forest.trees) {
      for (auto& p : t.definition_as<Subtree>().pumps) p.definition_as<Pump>().go();
    }
    for (Subtree* t : trees) {
      ASSERT_TRUE(stress::spin_until([&] { return t->received() >= 10; }, 20000))
          << "round " << round << ": frames are not flowing";
    }

    // Destroy a seeded non-empty proper subset, mid-traffic: their timers
    // keep coming due and their sockets keep receiving while they are
    // stopped and destroyed.
    std::vector<bool> dead(kTrees, false);
    int dead_mask = 0;
    const std::size_t kills = 1 + rng() % (kTrees - 1);
    for (std::size_t k = 0; k < kills; ++k) dead[rng() % kTrees] = true;
    std::this_thread::sleep_for(std::chrono::microseconds(rng() % 3000));
    for (std::size_t i = 0; i < kTrees; ++i) {
      if (!dead[i]) continue;
      dead_mask |= 1 << i;
      forest.stop(i);
    }
    ASSERT_TRUE(stress::spin_until([&] { return (forest.stopped.load() & dead_mask) == dead_mask; },
                                   20000));
    for (std::size_t i = 0; i < kTrees; ++i) {
      if (dead[i]) forest.kill(i);
    }

    for (std::size_t i = 0; i < kTrees; ++i) {
      if (dead[i]) {
        // The parked request dies with its server: EOF or reset, not the
        // 10 s receive timeout.
        char byte;
        const ssize_t n = ::recv(clients[i], &byte, 1, 0);
        EXPECT_TRUE(n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK))
            << "round " << round << ": parked client of a destroyed server was never closed";
      } else {
        const long before = trees[i]->received();
        EXPECT_TRUE(stress::spin_until([&] { return trees[i]->received() >= before + 10; }, 20000))
            << "round " << round << ": a surviving subtree stopped";
      }
    }
    for (int fd : clients) ::close(fd);
    // Teardown of the survivors with their registrations still live.
    main = Component{};
    rt.reset();
  }
}

}  // namespace
}  // namespace kompics::test
