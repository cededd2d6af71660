#pragma once

// HttpServer: minimal embedded HTTP/1.0 server component — the stand-in for
// the paper's embedded Jetty (§4.1). Its non-blocking sockets are watched by
// the runtime reactor (kompics/reactor.hpp): accept, read and write run as
// IoReady work items in component context. A complete request is triggered
// as a WebRequest on the required Web port; the application's WebResponse
// handler writes the reply. Each connection carries one reactor deadline,
// the request timeout: a client that has not sent a full request by then
// is dropped, and a request the application has not answered gets a 504.
// The component owns no thread.

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "kompics/component.hpp"
#include "kompics/kompics.hpp"
#include "net/address.hpp"
#include "web/web_port.hpp"

namespace kompics::web {

class HttpServer : public ComponentDefinition {
 public:
  struct Init : kompics::Init {
    KOMPICS_EVENT(Init, kompics::Init);

    explicit Init(net::Address listen, DurationMs request_timeout_ms = 2000)
        : listen(listen), request_timeout_ms(request_timeout_ms) {}
    net::Address listen;
    DurationMs request_timeout_ms;
  };

  HttpServer();
  ~HttpServer() override;

  std::uint16_t port() const { return listen_.port; }
  std::uint64_t requests_served() const { return served_.load(std::memory_order_relaxed); }

 private:
  struct Conn {
    int fd = -1;
    Reactor::Key key = 0;        // reactor watch; also the WebRequest id
    Reactor::Deadline deadline;  // the request timeout
    std::string in{};       // request bytes read so far
    std::string path{};     // the parsed request path
    bool awaiting = false;  // WebRequest triggered, no WebResponse yet
    std::string out{};      // response bytes not yet written
    std::size_t out_off = 0;
  };

  void boot();
  void on_ready(const IoReady& r);
  void on_deadline(const DeadlineDue& d);
  void accept_all();
  void read_request(Conn& c);
  void respond(Conn& c, int status, std::string content_type, std::string body);
  void flush(Conn& c);
  void close_conn(Conn& c);

  Positive<Web> web_ = require<Web>();
  ReactorLink reactor_{core()};

  net::Address listen_{};
  DurationMs request_timeout_ms_ = 2000;
  int listen_fd_ = -1;
  Reactor::Key listen_key_ = 0;

  std::unordered_map<Reactor::Key, Conn> conns_;  // handlers only
  std::atomic<std::uint64_t> served_{0};
};

}  // namespace kompics::web
