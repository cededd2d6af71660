#pragma once

// HttpServer: minimal embedded HTTP/1.0 server component — the stand-in for
// the paper's embedded Jetty (§4.1). One accept thread; each connection is
// served by a short-lived worker that parses the request line, triggers a
// WebRequest on the required Web port, and blocks (bounded) for the
// application's WebResponse, bridging the synchronous socket world to the
// asynchronous component world.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "kompics/component.hpp"
#include "kompics/kompics.hpp"
#include "net/address.hpp"
#include "web/web_port.hpp"

namespace kompics::web {

class HttpServer : public ComponentDefinition {
 public:
  struct Init : kompics::Init {
    KOMPICS_EVENT(Init, kompics::Init);

    explicit Init(net::Address listen, DurationMs request_timeout_ms = 2000,
                  bool telemetry_endpoints = true)
        : listen(listen),
          request_timeout_ms(request_timeout_ms),
          telemetry_endpoints(telemetry_endpoints) {}
    net::Address listen;
    DurationMs request_timeout_ms;
    /// Serve /metrics (Prometheus text) and /trace (span JSON) directly
    /// from kernel telemetry, bypassing the Web port.
    bool telemetry_endpoints;
  };

  HttpServer();
  ~HttpServer() override;

  /// Joins the accept thread and every connection worker; a worker that
  /// outlived the server used to touch freed state when answering slowly.
  void halt() override { stop_accepting(); }

  std::uint16_t port() const { return listen_.port; }
  std::uint64_t requests_served() const { return served_.load(std::memory_order_relaxed); }

 private:
  struct PendingResponse {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    int status = 504;
    std::string content_type = "text/plain";
    std::string body = "timeout";
  };

  void boot();
  void stop_accepting();
  void accept_main();
  void serve_connection(int fd);
  void send_direct(int fd, int status, const std::string& content_type,
                   const std::string& body);

  Positive<Web> web_ = require<Web>();

  net::Address listen_{};
  DurationMs request_timeout_ms_ = 2000;
  bool telemetry_endpoints_ = true;
  int listen_fd_ = -1;
  std::atomic<bool> running_{false};
  std::thread accept_thread_;
  // One handle per connection served; all joined in stop_accepting(). Kept
  // instead of detaching so no worker can outlive the server object.
  std::mutex conn_mu_;
  std::vector<std::thread> conn_threads_;

  std::mutex pending_mu_;
  std::map<std::uint64_t, std::shared_ptr<PendingResponse>> pending_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> served_{0};
};

}  // namespace kompics::web
