#include "net/tcp_network.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "kompics/telemetry.hpp"
#include "net/compression.hpp"
#include "net/serialization.hpp"

namespace kompics::net {

namespace {

constexpr std::uint8_t kFlagCompressed = 0x01;
constexpr std::uint8_t kFlagTraced = 0x02;  ///< TraceTrailer appended after the body
constexpr std::size_t kMaxFrame = 64u << 20;  // 64 MiB sanity bound
constexpr int kListenBacklog = 128;

constexpr int kOne = 1;  // setsockopt flag value

}  // namespace

TcpNetwork::TcpNetwork() {
  subscribe<Init>(control(), [this](const Init& init) { boot(init.self, init.options); });
  subscribe<Message>(network_, [this](const Message& m) { send(m); });
  subscribe<IoReady>(reactor_.port(), [this](const IoReady& r) { on_ready(r); });
}

TcpNetwork::~TcpNetwork() {
  // destroy_tree() already dropped the reactor registrations.
  for (auto& [key, conn] : conns_) ::close(conn.fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void TcpNetwork::boot(Address self, const Options& opts) {
  self_ = self;
  options_ = opts;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) throw std::runtime_error("socket() failed");
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &kOne, sizeof(kOne));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(self.host);
  addr.sin_port = htons(self.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, kListenBacklog) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("cannot listen on " + self.to_string() + ": " + why);
  }
  listen_key_ = reactor_.watch(listen_fd_, EPOLLIN);
}

void TcpNetwork::count(std::uint64_t Counters::*field, std::uint64_t n) {
  std::lock_guard<std::mutex> g(counters_mu_);
  counters_.*field += n;
}

Bytes TcpNetwork::frame_message(const Message& m, const TraceTrailer* trailer, bool* failed) {
  *failed = false;
  Bytes body;
  try {
    SerializationRegistry::instance().serialize(m, body);
  } catch (const std::exception& e) {
    *failed = true;
    trigger(make_event<SendFailed>(current_event_as<Message>(), e.what()), netctl_);
    return {};
  }
  std::uint8_t flags = 0;
  if (options_.compress && body.size() >= kCompressThreshold) {
    Bytes packed;
    kz::compress(body, packed);
    if (packed.size() < body.size()) {
      body = std::move(packed);
      flags = kFlagCompressed;
    }
  }
  // Traced messages carry a fixed trailer after the (possibly compressed)
  // body; untraced frames are byte-identical to the pre-tracing format.
  const std::size_t trailer_bytes = trailer != nullptr ? TraceTrailer::kWireSize : 0;
  if (trailer != nullptr) flags |= kFlagTraced;
  Bytes frame;
  frame.reserve(body.size() + 5 + trailer_bytes);
  BufferWriter w(frame);
  w.u32(static_cast<std::uint32_t>(body.size() + 1 + trailer_bytes));
  w.u8(flags);
  w.raw(body.data(), body.size());
  if (trailer != nullptr) trailer->write(w);
  return frame;
}

void TcpNetwork::send(const Message& m) {
  OutFrame of;
  TraceTrailer trailer;
  const TraceTrailer* trailer_ptr = nullptr;
  telemetry::Telemetry& tel = runtime().telemetry();
  const std::uint64_t word = m.kompics_trace_word();
  if (word != 0 && tel.tracing_enabled()) {
    // Mint the net-send span up front so its id can travel in the trailer;
    // parent it under the executing handler's span when that handler belongs
    // to the same trace (the common case: a handler triggering the send).
    of.trace_id = telemetry::trace_of_word(word);
    of.send_span = tel.alloc_span_id();
    const auto active = tel.active_span();
    of.parent_span = active.trace_id == of.trace_id ? active.span_id
                                                    : telemetry::parent_of_word(word);
    of.enqueue_ns = telemetry::now_ns();
    trailer.trace_id = of.trace_id;
    trailer.send_span = of.send_span;
    trailer.send_ts_ns = of.enqueue_ns;
    trailer_ptr = &trailer;
  }
  bool failed = false;
  of.bytes = frame_message(m, trailer_ptr, &failed);
  if (failed) {
    count(&Counters::send_failures);
    return;
  }
  Conn* c = conn_for(m.destination());
  if (c == nullptr) {
    trigger(make_event<SendFailed>(current_event_as<Message>(),
                                   "connect to " + m.destination().to_string() + " failed"),
            netctl_);
    count(&Counters::send_failures);
    return;
  }
  queued_frames_.fetch_add(1, std::memory_order_relaxed);
  c->outbox.push_back(std::move(of));
  flush(*c);  // a connect still in progress answers EAGAIN: EPOLLOUT follows
}

void TcpNetwork::on_ready(const IoReady& r) {
  if (r.key == listen_key_) {
    accept_all();
    return;
  }
  auto it = conns_.find(r.key);
  if (it == conns_.end()) return;  // closed after the reactor collected the edge
  // Edge-triggered: write and read until EAGAIN, whatever the edge was. A
  // refused connect or a reset surfaces as a send/recv error there, and a
  // hangup as EOF after any frames the peer sent before closing.
  if (flush(it->second)) read(it->second);
}

void TcpNetwork::accept_all() {
  for (int fd; (fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK)) >= 0;) {
    if (adopt(fd, Address{}) != nullptr) count(&Counters::connections_accepted);
  }
}

TcpNetwork::Conn* TcpNetwork::conn_for(const Address& dest) {
  auto it = out_by_peer_.find(dest);
  if (it != out_by_peer_.end()) return &conns_.at(it->second);

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(dest.host);
  addr.sin_port = htons(dest.port);
  if (fd < 0 || (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
                 errno != EINPROGRESS)) {
    if (fd >= 0) ::close(fd);
    return nullptr;
  }
  Conn* c = adopt(fd, dest);
  if (c == nullptr) return nullptr;
  out_by_peer_[dest] = c->key;
  count(&Counters::connections_opened);
  if (!seen_peers_.insert(dest).second) count(&Counters::reconnects);
  return c;
}

TcpNetwork::Conn* TcpNetwork::adopt(int fd, Address peer) {
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &kOne, sizeof(kOne));
  const Reactor::Key key = reactor_.watch(fd, EPOLLIN | EPOLLOUT | EPOLLRDHUP);
  if (key == 0) {
    ::close(fd);
    return nullptr;
  }
  return &conns_.emplace(key, Conn{.fd = fd, .key = key, .peer = peer}).first->second;
}

bool TcpNetwork::flush(Conn& c) {
  while (!c.outbox.empty()) {
    const OutFrame& front = c.outbox.front();
    const ssize_t n = ::send(c.fd, front.bytes.data() + c.out_offset,
                             front.bytes.size() - c.out_offset, MSG_NOSIGNAL);
    if (n < 0) {
      // EAGAIN: the reactor delivers the next EPOLLOUT edge once the
      // socket drains.
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      close_conn(c, "send failed");
      return false;
    }
    count(&Counters::bytes_sent, static_cast<std::uint64_t>(n));
    c.out_offset += static_cast<std::size_t>(n);
    if (c.out_offset == front.bytes.size()) {
      if (front.trace_id != 0) {
        // The frame fully left the socket: close the net-send span. Its
        // duration is enqueue-to-last-byte, i.e. send-queue wait + write.
        const std::uint64_t now = telemetry::now_ns();
        const std::string hop = "net.send -> " + c.peer.to_string();
        runtime().telemetry().record_net_span(
            telemetry::SpanKind::kNetSend, front.trace_id, front.send_span, front.parent_span,
            self_.to_string().c_str(), hop.c_str(),
            static_cast<std::uint32_t>(front.bytes.size()), 0, front.enqueue_ns,
            now - front.enqueue_ns);
      }
      queued_frames_.fetch_sub(1, std::memory_order_relaxed);
      c.outbox.pop_front();
      c.out_offset = 0;
      count(&Counters::messages_sent);
    }
  }
  return true;
}

void TcpNetwork::read(Conn& c) {
  std::uint8_t buf[16 * 1024];
  while (true) {
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n == 0) {
      close_conn(c, "peer closed");
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_conn(c, "recv failed");
      return;
    }
    count(&Counters::bytes_received, static_cast<std::uint64_t>(n));
    c.inbox.insert(c.inbox.end(), buf, buf + n);
    // Extract complete frames.
    std::size_t pos = 0;
    while (c.inbox.size() - pos >= 4) {
      BufferReader header(c.inbox.data() + pos, 4);
      const std::uint32_t frame_len = header.u32();
      if (frame_len == 0 || frame_len > kMaxFrame) {
        close_conn(c, "bad frame length");
        return;
      }
      if (c.inbox.size() - pos - 4 < frame_len) break;
      const std::uint8_t* body = c.inbox.data() + pos + 4;
      try {
        const std::uint8_t flags = body[0];
        std::size_t payload_len = frame_len - 1;
        TraceTrailer trailer;
        bool traced = false;
        if ((flags & kFlagTraced) != 0) {
          // The trailer sits after the (possibly compressed) body, inside
          // the frame length, so it is read before any decompression.
          if (payload_len < TraceTrailer::kWireSize) {
            close_conn(c, "bad trace trailer");
            return;
          }
          payload_len -= TraceTrailer::kWireSize;
          BufferReader tr(body + 1 + payload_len, TraceTrailer::kWireSize);
          trailer = TraceTrailer::read(tr);
          traced = trailer.trace_id != 0;
        }
        MessagePtr msg;
        if ((flags & kFlagCompressed) != 0) {
          const Bytes plain = kz::decompress(body + 1, payload_len);
          msg = SerializationRegistry::instance().deserialize(plain);
        } else {
          BufferReader r(body + 1, payload_len);
          msg = SerializationRegistry::instance().deserialize(r);
        }
        count(&Counters::messages_received);
        telemetry::Telemetry& tel = runtime().telemetry();
        if (traced && tel.tracing_enabled()) {
          // Continue the sender's trace: a local net-recv span bridges the
          // wire hop, and the message is stamped so the receiving handler
          // parents under it. link_delta is local-now minus the sender's
          // send stamp — wire latency plus inter-node clock skew.
          const std::uint32_t recv_span = tel.alloc_span_id();
          const std::uint64_t now = telemetry::now_ns();
          const std::int64_t delta = static_cast<std::int64_t>(now - trailer.send_ts_ns);
          const std::uint64_t wire_ns = delta > 0 ? static_cast<std::uint64_t>(delta) : 0;
          const std::string hop = "net.recv <- " + msg->source().to_string();
          tel.record_net_span(telemetry::SpanKind::kNetRecv, trailer.trace_id, recv_span,
                              trailer.send_span, self_.to_string().c_str(), hop.c_str(),
                              4 + frame_len, delta, now - wire_ns, wire_ns);
          msg->kompics_stamp_trace(
              telemetry::pack_trace_word(trailer.trace_id, recv_span));
        }
        trigger(msg, network_);
      } catch (const std::exception& e) {
        close_conn(c, "frame decode failed");
        return;
      }
      pos += 4 + frame_len;
    }
    if (pos > 0) c.inbox.erase(c.inbox.begin(), c.inbox.begin() + static_cast<long>(pos));
  }
}

void TcpNetwork::close_conn(Conn& c, const char* reason) {
  queued_frames_.fetch_sub(c.outbox.size(), std::memory_order_relaxed);
  if (c.peer.valid()) out_by_peer_.erase(c.peer);
  if (c.peer.valid() && !c.outbox.empty()) {
    trigger(make_event<SendFailed>(nullptr, std::string(reason) + " (" +
                                                std::to_string(c.outbox.size()) +
                                                " frames dropped)"),
            netctl_);
  }
  reactor_.unwatch(c.key);
  ::close(c.fd);
  conns_.erase(c.key);  // destroys c
}

TcpNetwork::Counters TcpNetwork::counters() const {
  std::lock_guard<std::mutex> g(counters_mu_);
  return counters_;
}

std::vector<std::pair<std::string, std::uint64_t>> TcpNetwork::metric_samples() const {
  const Counters c = counters();
  return {{"tcp_messages_sent_total", c.messages_sent},
          {"tcp_messages_received_total", c.messages_received},
          {"tcp_bytes_sent_total", c.bytes_sent},
          {"tcp_bytes_received_total", c.bytes_received},
          {"tcp_connections_opened_total", c.connections_opened},
          {"tcp_connections_accepted_total", c.connections_accepted},
          {"tcp_send_failures_total", c.send_failures},
          {"tcp_reconnects_total", c.reconnects},
          {"tcp_send_queue_depth", queued_frames_.load(std::memory_order_relaxed)}};
}

}  // namespace kompics::net
