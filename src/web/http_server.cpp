#include "web/http_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>

#include "kompics/telemetry.hpp"

namespace kompics::web {

HttpServer::HttpServer() {
  subscribe<Init>(control(), [this](const Init& init) {
    listen_ = init.listen;
    request_timeout_ms_ = init.request_timeout_ms;
  });
  subscribe<Start>(control(), [this](const Start&) { boot(); });
  subscribe<IoReady>(reactor_.port(), [this](const IoReady& r) { on_ready(r); });
  subscribe<DeadlineDue>(reactor_.port(), [this](const DeadlineDue& d) { on_deadline(d); });

  subscribe<WebResponse>(web_, [this](const WebResponse& resp) {
    auto it = conns_.find(resp.id);
    if (it == conns_.end() || !it->second.awaiting) return;  // timed out already
    respond(it->second, resp.status, resp.content_type, resp.body);
  });
}

HttpServer::~HttpServer() {
  // destroy_tree() already dropped the reactor registrations.
  for (auto& [key, conn] : conns_) ::close(conn.fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void HttpServer::boot() {
  if (listen_fd_ >= 0) return;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(listen_.host);
  addr.sin_port = htons(listen_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("HttpServer: cannot listen on " + listen_.to_string());
  }
  // Recover an ephemeral port choice so callers can connect.
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  listen_.port = ntohs(addr.sin_port);
  listen_key_ = reactor_.watch(listen_fd_, EPOLLIN);
}

void HttpServer::on_ready(const IoReady& r) {
  if (r.key == listen_key_) {
    accept_all();
    return;
  }
  auto it = conns_.find(r.key);
  if (it == conns_.end()) return;  // closed after the reactor collected the edge
  Conn& c = it->second;
  if (!c.out.empty()) {
    flush(c);
  } else if (!c.awaiting) {
    read_request(c);
  }
}

void HttpServer::on_deadline(const DeadlineDue& d) {
  auto it = std::find_if(conns_.begin(), conns_.end(),
                         [&d](const auto& kc) { return kc.second.deadline.key == d.key; });
  if (it == conns_.end()) return;
  Conn& c = it->second;
  c.deadline = {};
  if (c.awaiting) {
    respond(c, 504, "text/plain", "timeout");
  } else {
    close_conn(c);  // silent client, or a reply the client never drained
  }
}

void HttpServer::accept_all() {
  for (int fd; (fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK)) >= 0;) {
    const Reactor::Key key = reactor_.watch(fd, EPOLLIN | EPOLLOUT | EPOLLRDHUP);
    if (key == 0) {
      ::close(fd);
      continue;
    }
    conns_.emplace(key, Conn{.fd = fd,
                             .key = key,
                             .deadline = reactor_.arm(now() + request_timeout_ms_)});
  }
}

void HttpServer::read_request(Conn& c) {
  char buf[4096];
  bool eof = false;
  while (c.in.find("\r\n\r\n") == std::string::npos && c.in.size() < 8192) {
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      c.in.append(buf, static_cast<std::size_t>(n));
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;  // wait for the next readiness edge
    } else {
      eof = true;  // the client closed its side: serve what arrived
      break;
    }
  }
  if (eof && c.in.empty()) {
    close_conn(c);
    return;
  }
  std::string method = "GET", path = "/", query;
  const auto eol = c.in.find("\r\n");
  if (eol != std::string::npos) {
    const std::string line = c.in.substr(0, eol);
    const auto sp1 = line.find(' ');
    const auto sp2 = line.find(' ', sp1 + 1);
    if (sp1 != std::string::npos && sp2 != std::string::npos) {
      method = line.substr(0, sp1);
      std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
      const auto qpos = target.find('?');
      path = target.substr(0, qpos);
      if (qpos != std::string::npos) query = target.substr(qpos + 1);
    }
  }
  c.path = path;
  c.in.clear();
  // The trace endpoint answers directly from the kernel (no Web-port round
  // trip): the monitoring surface must work even when the application layer
  // is wedged — that is precisely when it is needed.
  if (path == "/trace") {
    respond(c, 200, "application/json", telemetry::render_trace_json(runtime()));
    return;
  }
  c.awaiting = true;
  trigger(make_event<WebRequest>(c.key, method, path, query), web_);
}

void HttpServer::respond(Conn& c, int status, std::string content_type, std::string body) {
  c.awaiting = false;
  if (c.path == "/metrics") {
    // One combined surface: kernel telemetry first — served even when the
    // app is wedged and the request timed out — then whatever protocol-level
    // samples the app answered for the same path (e.g. CATS ring epochs).
    const bool app_samples = status == 200 && content_type.rfind("text/plain", 0) == 0;
    body = telemetry::render_prometheus(runtime()) + (app_samples ? body : "");
    status = 200;
    content_type = "text/plain; version=0.0.4";
  }
  c.out = "HTTP/1.0 " + std::to_string(status) + (status == 200 ? " OK" : " ERROR") +
          "\r\nContent-Type: " + content_type +
          "\r\nContent-Length: " + std::to_string(body.size()) +
          "\r\nConnection: close\r\n\r\n" + body;
  flush(c);
}

void HttpServer::flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n =
        ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;  // wait for EPOLLOUT
    if (n <= 0) break;
    c.out_off += static_cast<std::size_t>(n);
  }
  close_conn(c);
  served_.fetch_add(1, std::memory_order_relaxed);
}

void HttpServer::close_conn(Conn& c) {
  reactor_.cancel(c.deadline);
  reactor_.unwatch(c.key);
  ::close(c.fd);
  conns_.erase(c.key);  // destroys c
}

}  // namespace kompics::web
