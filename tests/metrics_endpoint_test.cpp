// /metrics and /trace endpoint tests: the HttpServer answers both directly
// from kernel telemetry (no Web-port round trip), so the monitoring surface
// works even when the application layer never responds.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>

#include "kompics/kompics.hpp"
#include "kompics/telemetry.hpp"
#include "web/http_server.hpp"

namespace kompics::web::test {
namespace {

/// Minimal blocking HTTP client (same shape as web_test.cpp's).
std::string http_get(std::uint32_t host, std::uint16_t port, const std::string& path) {
  int fd = -1;
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

/// A deliberately wedged Web application: never answers WebRequest. The
/// telemetry endpoints must still respond — that is the whole point of
/// serving them from the kernel.
class WedgedApp : public ComponentDefinition {
 public:
  WedgedApp() {
    subscribe<WebRequest>(web_, [](const WebRequest&) { /* drop it */ });
  }
  Negative<Web> web_ = provide<Web>();
};

class ScrapeMain : public ComponentDefinition {
 public:
  explicit ScrapeMain(net::Address listen) {
    server = create<HttpServer>();
    server.control()->trigger(make_event<HttpServer::Init>(listen, /*request_timeout_ms=*/200));
    app = create<WedgedApp>();
    connect(app.provided<Web>(), server.required<Web>());
  }
  Component server, app;
};

class ScrapeFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    rt = Runtime::threaded(Config{}, 2, 1);
    rt->telemetry().enable_all(/*sample=*/1.0);
    main = rt->bootstrap<ScrapeMain>(net::Address::loopback(0));
    rt->await_quiescence();
    port = main.definition_as<ScrapeMain>().server.definition_as<HttpServer>().port();
    ASSERT_NE(port, 0);
  }

  std::shared_ptr<Runtime> rt;
  Component main;
  std::uint16_t port = 0;
};

TEST_F(ScrapeFixture, MetricsEndpointServesPrometheusText) {
  const std::string resp = http_get(0x7f000001, port, "/metrics");
  ASSERT_NE(resp.find("200 OK"), std::string::npos) << resp;
  EXPECT_NE(resp.find("Content-Type: text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(resp.find("kompics_scheduler_total{counter=\"executed\"}"), std::string::npos);
  EXPECT_NE(resp.find("kompics_component_dispatches_total{"), std::string::npos);
  EXPECT_NE(resp.find("kompics_handler_latency_ns_bucket{"), std::string::npos);
  EXPECT_NE(resp.find("kompics_events_published_total"), std::string::npos);
}

TEST_F(ScrapeFixture, TraceEndpointServesSpanJson) {
  // Bootstrap itself generates traced control dispatches at sampling 1.0;
  // scrape twice so the first scrape's own activity is surely visible.
  http_get(0x7f000001, port, "/metrics");
  const std::string resp = http_get(0x7f000001, port, "/trace");
  ASSERT_NE(resp.find("200 OK"), std::string::npos) << resp;
  EXPECT_NE(resp.find("Content-Type: application/json"), std::string::npos);
  EXPECT_NE(resp.find("\"spans\": ["), std::string::npos);
  EXPECT_NE(resp.find("\"traces_started\": "), std::string::npos);
}

TEST_F(ScrapeFixture, TelemetryEndpointsBypassWedgedApp) {
  // A normal request hits the wedged app and times out with 504 …
  const std::string app_resp = http_get(0x7f000001, port, "/anything");
  EXPECT_NE(app_resp.find("504"), std::string::npos) << app_resp;
  // … but /metrics still answers instantly from the kernel.
  const std::string metrics = http_get(0x7f000001, port, "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
}

// One Prometheus text line: `name{label="value",...} value` or `name value`.
// Label values may contain anything once escaped; the grammar check below
// walks the quoting state machine instead of pattern-matching.
bool valid_prometheus_line(const std::string& line) {
  if (line.empty() || line[0] == '#') return true;
  std::size_t i = 0;
  auto name_char = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
           c == '_' || c == ':';
  };
  if (!name_char(line[0]) || (line[0] >= '0' && line[0] <= '9')) return false;
  while (i < line.size() && name_char(line[i])) ++i;
  if (i < line.size() && line[i] == '{') {
    bool in_str = false;
    ++i;
    for (; i < line.size(); ++i) {
      if (in_str) {
        if (line[i] == '\\') ++i;  // escaped char inside a label value
        else if (line[i] == '"') in_str = false;
      } else if (line[i] == '"') {
        in_str = true;
      } else if (line[i] == '}') {
        break;
      }
    }
    if (i >= line.size() || in_str) return false;
    ++i;  // past '}'
  }
  if (i >= line.size() || line[i] != ' ') return false;
  return line.find(' ', i + 1) == std::string::npos;  // exactly one value token
}

TEST_F(ScrapeFixture, MetricsSurviveHostileComponentNames) {
  // Components may carry arbitrary names (set_name is public API); quotes,
  // backslashes, and newlines must come out escaped, and a very long name
  // must not be truncated into a malformed line (the old fixed 512-byte
  // snprintf buffer clipped lines mid-label).
  auto& def = main.definition_as<ScrapeMain>();
  def.app.core()->set_name("evil\"name\\with{chars}\nnewline");
  std::string long_name(600, 'x');
  def.server.core()->set_name(long_name);
  // Generate dispatches under the new names so they appear in /metrics.
  http_get(0x7f000001, port, "/anything");
  rt->await_quiescence();

  const std::string resp = http_get(0x7f000001, port, "/metrics");
  ASSERT_NE(resp.find("200 OK"), std::string::npos);
  const std::size_t body_at = resp.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const std::string body = resp.substr(body_at + 4);

  EXPECT_NE(body.find("evil\\\"name\\\\with{chars}\\nnewline"), std::string::npos) << body;
  EXPECT_NE(body.find(long_name), std::string::npos) << "long name truncated";
  std::istringstream lines(body);
  std::string line;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(valid_prometheus_line(line)) << "unparseable line: " << line;
  }
}

TEST_F(ScrapeFixture, MetricsIncludeSpanRingAndRunQueueGauges) {
  http_get(0x7f000001, port, "/metrics");  // prior scrape seeds span rings
  const std::string resp = http_get(0x7f000001, port, "/metrics");
  EXPECT_NE(resp.find("kompics_span_ring_occupancy"), std::string::npos);
  EXPECT_NE(resp.find("kompics_span_ring_capacity"), std::string::npos);
  EXPECT_NE(resp.find("kompics_scheduler_run_queue_depth"), std::string::npos);
  EXPECT_NE(resp.find("kompics_protocol_frames_in_flight"), std::string::npos);
  EXPECT_NE(resp.find("kompics_telemetry_node_id"), std::string::npos);
}

}  // namespace
}  // namespace kompics::web::test
