// Full-stack deployment-mode integration test: a small CATS cluster over
// the real TcpNetwork (kernel sockets on 127.0.0.1), exercising the entire
// Fig. 10 deployment architecture — Grizzly-equivalent NIO stack, message
// serialization, bootstrap over the network, ring convergence, and
// linearizable get/put — under the multi-core scheduler.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <future>
#include <thread>

#include "cats/bootstrap.hpp"
#include "cats/cats_client.hpp"
#include "cats/cats_node.hpp"
#include "cats/monitor.hpp"
#include "kompics/kompics.hpp"
#include "kompics/telemetry.hpp"
#include "net/tcp_network.hpp"
#include "timing/thread_timer.hpp"
#include "web/http_server.hpp"
#include "web/monitor_web.hpp"

namespace kompics::cats::test {
namespace {

using net::Address;
using net::TcpNetwork;

CatsParams fast_params() {
  CatsParams params;
  params.stabilization_period_ms = 100;
  params.shuffle_period_ms = 100;
  params.fd_ping_period_ms = 100;
  params.fd_initial_timeout_ms = 600;
  params.op_timeout_ms = 2000;
  params.keepalive_period_ms = 300;
  params.bootstrap_eviction_ms = 2000;
  return params;
}

class TcpMachine : public ComponentDefinition {
 public:
  TcpMachine(NodeRef self, Address boot) {
    net = create<TcpNetwork>();
    TcpNetwork::Options opts;
    opts.compress = true;  // exercise the compression path over real sockets
    trigger(make_event<TcpNetwork::Init>(self.addr, opts), net.control());
    timer = create<timing::ThreadTimer>();
    node = create<CatsNode>(self, boot, Address{}, fast_params());
    client = create<CatsClient>();
    connect(node.required<net::Network>(), net.provided<net::Network>());
    connect(node.required<timing::Timer>(), timer.provided<timing::Timer>());
    connect(node.provided<PutGet>(), client.required<PutGet>());
  }
  Component net, timer, node, client;
};

class TcpClusterMain : public ComponentDefinition {
 public:
  TcpClusterMain(std::uint16_t base_port, int n) {
    const Address boot_addr = Address::loopback(base_port);
    boot_net = create<TcpNetwork>();
    trigger(make_event<TcpNetwork::Init>(boot_addr), boot_net.control());
    boot_timer = create<timing::ThreadTimer>();
    boot_server = create<BootstrapServer>();
    trigger(make_event<BootstrapServer::Init>(boot_addr, fast_params()),
            boot_server.control());
    connect(boot_server.required<net::Network>(), boot_net.provided<net::Network>());
    connect(boot_server.required<timing::Timer>(), boot_timer.provided<timing::Timer>());

    for (int i = 0; i < n; ++i) {
      const NodeRef self{static_cast<RingKey>(i) * (~0ull / static_cast<RingKey>(n)),
                         Address::loopback(static_cast<std::uint16_t>(base_port + 1 + i))};
      machines.push_back(create<TcpMachine>(self, boot_addr));
    }
  }
  Component boot_net, boot_timer, boot_server;
  std::vector<Component> machines;
};

TEST(CatsOverTcp, ClusterConvergesAndServesLinearizableOps) {
  constexpr int kNodes = 4;
  auto rt = Runtime::threaded(Config{}, 4, 1);
  auto main = rt->bootstrap<TcpClusterMain>(31400, kNodes);
  auto& cluster = main.definition_as<TcpClusterMain>();

  // Wait for ring convergence over real sockets.
  bool converged = false;
  for (int waited = 0; waited < 20000 && !converged; waited += 100) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    int ready = 0;
    for (auto& m : cluster.machines) {
      ready += m.definition_as<TcpMachine>().node.definition_as<CatsNode>().ready() ? 1 : 0;
    }
    converged = ready == kNodes;
  }
  ASSERT_TRUE(converged) << "TCP cluster did not converge";

  // Put on node 0, read on node 3 — values traverse real TCP with
  // serialization and compression.
  auto& writer =
      cluster.machines[0].definition_as<TcpMachine>().client.definition_as<CatsClient>();
  auto& reader =
      cluster.machines[3].definition_as<TcpMachine>().client.definition_as<CatsClient>();

  // Compressible 16 KB value, far above TcpNetwork::kCompressThreshold.
  const Value big(16 * 1024, 0x61);
  auto& writer_net =
      cluster.machines[0].definition_as<TcpMachine>().net.definition_as<TcpNetwork>();
  const std::uint64_t sent_before = writer_net.counters().bytes_sent;
  for (int i = 0; i < 10; ++i) {
    std::promise<bool> put_done;
    writer.put(hash_to_ring("tcp-key-" + std::to_string(i)), big,
               [&](bool ok) { put_done.set_value(ok); });
    ASSERT_TRUE(put_done.get_future().get()) << "put " << i;
  }
  // The compressed path ran: every put carried the value to at least one
  // other node, yet the writer's wire carried under half the raw bytes.
  EXPECT_LT(writer_net.counters().bytes_sent - sent_before, 10 * big.size() / 2);
  for (int i = 0; i < 10; ++i) {
    std::promise<std::pair<bool, Value>> get_done;
    reader.get(hash_to_ring("tcp-key-" + std::to_string(i)),
               [&](bool ok, bool found, const Value& v) {
                 get_done.set_value({ok && found, v});
               });
    auto [ok, v] = get_done.get_future().get();
    ASSERT_TRUE(ok) << "get " << i;
    EXPECT_EQ(v, big);
  }

  // The wire really was TCP: the network components counted traffic.
  const auto counters =
      cluster.machines[0].definition_as<TcpMachine>().net.definition_as<TcpNetwork>().counters();
  EXPECT_GT(counters.messages_sent, 20u);
  EXPECT_GT(counters.bytes_received, 0u);
  EXPECT_GT(counters.connections_opened + counters.connections_accepted, 0u);
}

// ---- cross-node distributed tracing over real TCP (ISSUE 10) ---------------
//
// Three runtimes on one machine — two CATS nodes and a monitor — each with
// its own Telemetry (distinct telemetry.node_id, so trace/span ids are
// globally unique). A force-traced put on node 1 crosses real sockets to
// node 2 via the wire trailer; the monitor's /trace/<id> endpoint pulls both
// nodes' span shards over HTTP (kernel.trace_addr advertised in §4.1 status
// reports) and merges them into one causal tree.

namespace {

std::string http_get_path(std::uint16_t port, const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(0x7f000001);
  addr.sin_port = htons(port);
  timeval tv{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string req = "GET " + path + " HTTP/1.0\r\nHost: test\r\n\r\n";
  (void)!::send(fd, req.data(), req.size(), MSG_NOSIGNAL);
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) out.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  return out;
}

/// Issues a put whose request event carries a forced trace, and resolves a
/// promise when the response comes back.
class TracedDriver : public ComponentDefinition {
 public:
  TracedDriver() {
    subscribe<PutResponse>(putget_, [this](const PutResponse& r) { done.set_value(r.ok); });
  }

  std::uint32_t traced_put(RingKey key, Value value) {
    auto ev = make_event<PutRequest>(1, key, std::move(value));
    const std::uint32_t trace_id = runtime().telemetry().force_trace(*ev);
    trigger(std::move(ev), putget_);
    return trace_id;
  }

  std::promise<bool> done;

 private:
  Positive<PutGet> putget_ = require<PutGet>();
};

/// Answers nothing: node-side /trace and /metrics are kernel-served.
class NullWebApp : public ComponentDefinition {
 public:
  NullWebApp() {
    subscribe<web::WebRequest>(web_, [this](const web::WebRequest& req) {
      trigger(make_event<web::WebResponse>(req.id, 404, "text/plain", "no app"), web_);
    });
  }
  Negative<web::Web> web_ = provide<web::Web>();
};

class TracedNodeMain : public ComponentDefinition {
 public:
  TracedNodeMain(NodeRef self, Address boot, Address monitor, std::uint16_t http_port,
                 CatsParams params) {
    net = create<TcpNetwork>();
    trigger(make_event<TcpNetwork::Init>(self.addr), net.control());
    timer = create<timing::ThreadTimer>();
    node = create<CatsNode>(self, boot, monitor, params);
    driver = create<TracedDriver>();
    connect(node.required<net::Network>(), net.provided<net::Network>());
    connect(node.required<timing::Timer>(), timer.provided<timing::Timer>());
    connect(node.provided<PutGet>(), driver.required<PutGet>());
    http = create<web::HttpServer>();
    trigger(make_event<web::HttpServer::Init>(Address::loopback(http_port)), http.control());
    app = create<NullWebApp>();
    connect(app.provided<web::Web>(), http.required<web::Web>());
  }
  Component net, timer, node, driver, http, app;
};

class MonitorMain : public ComponentDefinition {
 public:
  MonitorMain(Address monitor_addr, Address boot_addr, std::uint16_t http_port,
              CatsParams params) {
    net = create<TcpNetwork>();
    trigger(make_event<TcpNetwork::Init>(monitor_addr), net.control());
    server = create<MonitorServer>();
    trigger(make_event<MonitorServer::Init>(monitor_addr), server.control());
    connect(server.required<net::Network>(), net.provided<net::Network>());

    boot_net = create<TcpNetwork>();
    trigger(make_event<TcpNetwork::Init>(boot_addr), boot_net.control());
    boot_timer = create<timing::ThreadTimer>();
    boot_server = create<BootstrapServer>();
    trigger(make_event<BootstrapServer::Init>(boot_addr, params), boot_server.control());
    connect(boot_server.required<net::Network>(), boot_net.provided<net::Network>());
    connect(boot_server.required<timing::Timer>(), boot_timer.provided<timing::Timer>());

    // /trace/<id> fans out a blocking HTTP GET per node: give the server a
    // generous request timeout.
    http = create<web::HttpServer>();
    trigger(make_event<web::HttpServer::Init>(Address::loopback(http_port),
                                              /*request_timeout_ms=*/10000),
            http.control());
    app = create<web::MonitorWebApp>();
    trigger(make_event<web::MonitorWebApp::Init>(&server.definition_as<MonitorServer>()),
            app.control());
    connect(app.provided<web::Web>(), http.required<web::Web>());
  }
  Component net, server, boot_net, boot_timer, boot_server, http, app;
};

}  // namespace

TEST(CatsOverTcp, TracePropagatesAcrossNodesIntoOneMergedTree) {
  constexpr std::uint16_t kBootPort = 31640;
  constexpr std::uint16_t kMonitorPort = 31641;
  constexpr std::uint16_t kNodePort[2] = {31642, 31643};
  constexpr std::uint16_t kNodeHttp[2] = {31652, 31653};
  constexpr std::uint16_t kMonitorHttp = 31654;
  const Address boot_addr = Address::loopback(kBootPort);
  const Address monitor_addr = Address::loopback(kMonitorPort);

  CatsParams params = fast_params();
  params.monitor_period_ms = 200;  // fast §4.1 rounds so trace_addr arrives quickly

  // Tracing on with a vanishing sampling probability: only the forced trace
  // records spans, so the shards stay small and deterministic to assert on.
  auto telemetry_config = [](std::int64_t node_id, std::int64_t trace_port) {
    Config cfg;
    cfg.set("telemetry.trace_sampling", 1e-300)
        .set("telemetry.node_id", node_id)
        .set("telemetry.trace_port", trace_port);
    return cfg;
  };

  auto monitor_rt = Runtime::threaded(telemetry_config(9, 0), 2, 1);
  auto monitor_main =
      monitor_rt->bootstrap<MonitorMain>(monitor_addr, boot_addr, kMonitorHttp, params);

  std::vector<std::shared_ptr<Runtime>> node_rts;
  std::vector<Component> node_mains;
  for (int i = 0; i < 2; ++i) {
    node_rts.push_back(
        Runtime::threaded(telemetry_config(i + 1, kNodeHttp[i]), 2, 1));
    const NodeRef self{static_cast<RingKey>(i) * (~0ull / 2), Address::loopback(kNodePort[i])};
    node_mains.push_back(
        node_rts.back()->bootstrap<TracedNodeMain>(self, boot_addr, monitor_addr,
                                                   kNodeHttp[i], params));
  }

  auto node_of = [&](int i) -> TracedNodeMain& {
    return node_mains[static_cast<std::size_t>(i)].definition_as<TracedNodeMain>();
  };

  // Ring convergence over real sockets.
  bool converged = false;
  for (int waited = 0; waited < 20000 && !converged; waited += 100) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    converged = node_of(0).node.definition_as<CatsNode>().ready() &&
                node_of(1).node.definition_as<CatsNode>().ready();
  }
  ASSERT_TRUE(converged) << "TCP cluster did not converge";

  // Both nodes must have advertised their trace endpoint to the monitor.
  auto& server =
      monitor_main.definition_as<MonitorMain>().server.definition_as<MonitorServer>();
  bool advertised = false;
  for (int waited = 0; waited < 10000 && !advertised; waited += 100) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::size_t with_addr = 0;
    for (const auto& [addr, report] : server.global_view()) {
      with_addr += report.fields.count("kernel.trace_addr");
    }
    advertised = with_addr >= 2;
  }
  ASSERT_TRUE(advertised) << "nodes did not advertise kernel.trace_addr:\n"
                          << server.render_text();

  // One traced put from node 0: replication degree 3 over 2 nodes forces
  // the write across the wire, carrying the trace trailer.
  auto& driver = node_of(0).driver.definition_as<TracedDriver>();
  const std::uint32_t trace_id = driver.traced_put(hash_to_ring("traced-key"), Value(64, 0x42));
  ASSERT_NE(trace_id, 0u);
  // The id carries its minting node in the top byte (telemetry.node_id=1).
  EXPECT_EQ(telemetry::node_of_id(trace_id), 1u);
  auto fut = driver.done.get_future();
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  ASSERT_TRUE(fut.get());

  // The merged tree must span both nodes and show the wire hops. Poll: span
  // rings are per-thread and the last hop's record races the response.
  const std::string label0 = Address::loopback(kNodePort[0]).to_node_string();
  const std::string label1 = Address::loopback(kNodePort[1]).to_node_string();
  std::string body;
  bool merged = false;
  for (int waited = 0; waited < 15000 && !merged; waited += 250) {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    body = http_get_path(kMonitorHttp, "/trace/" + std::to_string(trace_id));
    merged = body.find("\"node\": \"" + label0 + "\"") != std::string::npos &&
             body.find("\"node\": \"" + label1 + "\"") != std::string::npos &&
             body.find("\"kind\": \"net_send\"") != std::string::npos &&
             body.find("\"kind\": \"net_recv\"") != std::string::npos;
  }
  EXPECT_TRUE(merged) << "merged trace missing cross-node spans:\n" << body;
  EXPECT_NE(body.find("\"trace\": " + std::to_string(trace_id)), std::string::npos);
  EXPECT_NE(body.find("clock_offset_ns"), std::string::npos);

  // Satellite: TcpNetwork counters surface as Prometheus samples on the
  // node's own /metrics endpoint.
  const std::string metrics = http_get_path(kNodeHttp[0], "/metrics");
  EXPECT_NE(metrics.find("tcp_messages_sent_total{"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("tcp_send_queue_depth{"), std::string::npos);

  // And the monitor's cluster rollup labels per-node numeric status fields.
  const std::string cluster = http_get_path(kMonitorHttp, "/metrics");
  EXPECT_NE(cluster.find("cats_cluster_nodes_reporting"), std::string::npos);
  EXPECT_NE(cluster.find("cats_cluster_status{node="), std::string::npos);
}

}  // namespace
}  // namespace kompics::cats::test
