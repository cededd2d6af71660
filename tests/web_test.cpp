// Web substrate tests: the embedded HttpServer (Jetty stand-in) bridging a
// raw TCP client to the Web port, and the routes of the CatsWebApp status
// page and the MonitorWebApp cluster view.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "kompics/kompics.hpp"
#include "timing/thread_timer.hpp"
#include "web/cats_web.hpp"
#include "web/http_server.hpp"
#include "web/monitor_web.hpp"

namespace kompics::web::test {
namespace {

/// Minimal blocking HTTP client for the tests.
std::string http_get(std::uint32_t host, std::uint16_t port, const std::string& path) {
  int fd = -1;
  // The listener opens on Start, asynchronously; retry briefly.
  for (int attempt = 0; attempt < 20; ++attempt) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(host);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) break;
    ::close(fd);
    fd = -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (fd < 0) return "";
  const std::string req = "GET " + path + " HTTP/1.0\r\nHost: test\r\n\r\n";
  (void)!::send(fd, req.data(), req.size(), MSG_NOSIGNAL);
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) out.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  return out;
}

/// Trivial Web application: echoes the request path.
class EchoApp : public ComponentDefinition {
 public:
  EchoApp() {
    subscribe<WebRequest>(web_, [this](const WebRequest& req) {
      ++requests;
      trigger(make_event<WebResponse>(req.id, 200, "text/plain",
                                      "you asked for " + req.path + "?" + req.query),
              web_);
    });
  }
  Negative<Web> web_ = provide<Web>();
  int requests = 0;
};

class EchoMain : public ComponentDefinition {
 public:
  explicit EchoMain(net::Address listen) {
    server = create<HttpServer>();
    server.control()->trigger(make_event<HttpServer::Init>(listen));
    app = create<EchoApp>();
    connect(app.provided<Web>(), server.required<Web>());
  }
  Component server, app;
};

TEST(HttpServer, ServesWebAppResponses) {
  auto rt = Runtime::threaded(Config{}, 2, 1);
  auto main = rt->bootstrap<EchoMain>(net::Address::loopback(0));  // ephemeral port
  rt->await_quiescence();
  auto& server = main.definition_as<EchoMain>().server.definition_as<HttpServer>();
  ASSERT_NE(server.port(), 0);

  const std::string reply = http_get(0x7f000001, server.port(), "/hello?x=1");
  EXPECT_NE(reply.find("200 OK"), std::string::npos);
  EXPECT_NE(reply.find("you asked for /hello?x=1"), std::string::npos);
  // The served counter is bumped after the server closes the socket, so
  // the client can observe EOF slightly before the increment: poll.
  for (int i = 0; i < 100 && server.requests_served() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server.requests_served(), 1u);
}

TEST(HttpServer, TimesOutWhenAppStaysSilent) {
  class SilentApp : public ComponentDefinition {
   public:
    SilentApp() {
      subscribe<WebRequest>(web_, [](const WebRequest&) { /* never answer */ });
    }
    Negative<Web> web_ = provide<Web>();
  };
  class SilentMain : public ComponentDefinition {
   public:
    explicit SilentMain(net::Address listen) {
      server = create<HttpServer>();
      server.control()->trigger(make_event<HttpServer::Init>(listen, /*timeout=*/100));
      app = create<SilentApp>();
      connect(app.provided<Web>(), server.required<Web>());
    }
    Component server, app;
  };

  auto rt = Runtime::threaded(Config{}, 2, 1);
  auto main = rt->bootstrap<SilentMain>(net::Address::loopback(0));
  rt->await_quiescence();
  auto& server = main.definition_as<SilentMain>().server.definition_as<HttpServer>();
  const std::string reply = http_get(0x7f000001, server.port(), "/");
  EXPECT_NE(reply.find("504"), std::string::npos);
}

TEST(HttpServer, SilentClientDoesNotBlockTeardown) {
  auto rt = Runtime::threaded(Config{}, 2, 1);
  auto main = rt->bootstrap<EchoMain>(net::Address::loopback(0));
  rt->await_quiescence();
  const std::uint16_t port =
      main.definition_as<EchoMain>().server.definition_as<HttpServer>().port();
  main = Component{};

  // Connect and send nothing: the request never completes.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(0x7f000001);
  addr.sin_port = htons(port);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // let the server accept it

  // Teardown must not wait for the client. A hang cannot be failed from
  // this thread, so a watchdog ends the process instead.
  std::atomic<bool> torn_down{false};
  std::thread watchdog([&] {
    for (int i = 0; i < 1000 && !torn_down.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!torn_down.load()) {
      std::fprintf(stderr, "runtime teardown blocked on a silent HTTP client\n");
      std::_Exit(1);
    }
  });
  rt.reset();
  torn_down.store(true);
  watchdog.join();

  // The server's side of the connection is gone with it.
  char byte;
  EXPECT_LE(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);
}

// ---- CATS web application ------------------------------------------------------

class FakeStatusProvider : public ComponentDefinition {
 public:
  FakeStatusProvider() {
    subscribe<cats::StatusRequest>(status_, [this](const cats::StatusRequest& req) {
      trigger(make_event<cats::StatusResponse>(
                  req.id, "FakeComponent",
                  std::map<std::string, std::string>{{"answer", "fortytwo"},
                                                     {"ring_epoch", "7"},
                                                     {"views_installed", "3"}}),
              status_);
    });
  }
  Negative<cats::Status> status_ = provide<cats::Status>();
};

class CatsWebMain : public ComponentDefinition {
 public:
  explicit CatsWebMain(net::Address listen) {
    timer = create<timing::ThreadTimer>();
    app = create<CatsWebApp>();
    app.control()->trigger(
        make_event<CatsWebApp::Init>(cats::NodeRef{7, net::Address::node(7)}, 50));
    provider = create<FakeStatusProvider>();
    server = create<HttpServer>();
    server.control()->trigger(make_event<HttpServer::Init>(listen));
    connect(app.required<timing::Timer>(), timer.provided<timing::Timer>());
    connect(provider.provided<cats::Status>(), app.required<cats::Status>());
    connect(app.provided<Web>(), server.required<Web>());
  }
  Component timer, app, provider, server;
};

TEST(CatsWebApp, RendersComponentStatusTables) {
  auto rt = Runtime::threaded(Config{}, 2, 1);
  auto main = rt->bootstrap<CatsWebMain>(net::Address::loopback(0));
  rt->await_quiescence();
  // Give the refresh timer a moment to pull status.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  auto& server = main.definition_as<CatsWebMain>().server.definition_as<HttpServer>();
  const std::string reply = http_get(0x7f000001, server.port(), "/");
  EXPECT_NE(reply.find("HTTP/1.0 200"), std::string::npos) << reply;
  EXPECT_NE(reply.find("FakeComponent"), std::string::npos);
  EXPECT_NE(reply.find("fortytwo"), std::string::npos);
  EXPECT_NE(reply.find("node-7"), std::string::npos);
}

TEST(CatsWebApp, UnknownPathsAre404) {
  auto rt = Runtime::threaded(Config{}, 2, 1);
  auto main = rt->bootstrap<CatsWebMain>(net::Address::loopback(0));
  rt->await_quiescence();
  auto& server = main.definition_as<CatsWebMain>().server.definition_as<HttpServer>();
  for (const char* path : {"/status", "/metrics/extra", "/index.html"}) {
    const std::string reply = http_get(0x7f000001, server.port(), path);
    EXPECT_NE(reply.find("HTTP/1.0 404"), std::string::npos) << path << "\n" << reply;
    EXPECT_EQ(reply.find("FakeComponent"), std::string::npos) << path;
  }
}

TEST(CatsWebApp, ServesProtocolCountersAsPrometheusMetrics) {
  auto rt = Runtime::threaded(Config{}, 2, 1);
  auto main = rt->bootstrap<CatsWebMain>(net::Address::loopback(0));
  rt->await_quiescence();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  auto& server = main.definition_as<CatsWebMain>().server.definition_as<HttpServer>();
  const std::string reply = http_get(0x7f000001, server.port(), "/metrics");
  EXPECT_NE(reply.find("text/plain"), std::string::npos);
  // Numeric status fields become labelled Prometheus samples...
  EXPECT_NE(reply.find("cats_fakecomponent_ring_epoch{node=\"7\"} 7"), std::string::npos)
      << reply;
  EXPECT_NE(reply.find("cats_fakecomponent_views_installed{node=\"7\"} 3"), std::string::npos);
  // ...while string-valued fields stay off the metrics surface.
  EXPECT_EQ(reply.find("fortytwo"), std::string::npos);
}

class MonitorWebMain : public ComponentDefinition {
 public:
  explicit MonitorWebMain(net::Address listen) {
    monitor = create<cats::MonitorServer>();
    monitor.control()->trigger(make_event<cats::MonitorServer::Init>(net::Address::node(1)));
    app = create<MonitorWebApp>();
    app.control()->trigger(
        make_event<MonitorWebApp::Init>(&monitor.definition_as<cats::MonitorServer>()));
    server = create<HttpServer>();
    server.control()->trigger(make_event<HttpServer::Init>(listen));
    connect(app.provided<Web>(), server.required<Web>());
  }
  Component monitor, app, server;
};

TEST(MonitorWebApp, ServesGlobalViewAtRootAnd404Elsewhere) {
  auto rt = Runtime::threaded(Config{}, 2, 1);
  auto main = rt->bootstrap<MonitorWebMain>(net::Address::loopback(0));
  rt->await_quiescence();
  auto& server = main.definition_as<MonitorWebMain>().server.definition_as<HttpServer>();
  const std::string root = http_get(0x7f000001, server.port(), "/");
  EXPECT_NE(root.find("HTTP/1.0 200"), std::string::npos) << root;
  EXPECT_NE(root.find("CATS global view"), std::string::npos) << root;
  for (const char* path : {"/status", "/index.html", "/nodes/1"}) {
    const std::string reply = http_get(0x7f000001, server.port(), path);
    EXPECT_NE(reply.find("HTTP/1.0 404"), std::string::npos) << path << "\n" << reply;
    EXPECT_EQ(reply.find("CATS global view"), std::string::npos) << path;
  }
}

}  // namespace
}  // namespace kompics::web::test
