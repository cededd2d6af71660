#pragma once

// TcpNetwork: a production Network provider over kernel TCP sockets — the
// from-scratch equivalent of the paper's pluggable NIO frameworks (Grizzly /
// Netty / MINA, §3). It performs automatic connection management
// (connect-on-first-send, accept, teardown), length-prefixed framing,
// message serialization via the SerializationRegistry, and optional kz
// compression. Its non-blocking sockets are watched by the runtime reactor
// (kompics/reactor.hpp): the Message handler writes the socket directly,
// and readiness edges arrive as IoReady work items that accept, read and
// flush in component context. The component owns no thread.
//
// Wire frame: [u32 length][u8 flags][body]; flags bit0 => body compressed.

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "kompics/component.hpp"
#include "kompics/kompics.hpp"
#include "net/address.hpp"
#include "net/network_port.hpp"

namespace kompics::net {

struct TraceTrailer;  // serialization.hpp

class TcpNetwork : public ComponentDefinition {
 public:
  struct Options {
    bool compress = false;
  };
  /// With compression on, only bodies of at least this many bytes are
  /// compressed.
  static constexpr std::size_t kCompressThreshold = 256;

  struct Init : kompics::Init {
    KOMPICS_EVENT(Init, kompics::Init);

    explicit Init(Address self) : self(self) {}
    Init(Address self, Options opts) : self(self), options(opts) {}
    Address self;
    Options options{};
  };

  TcpNetwork();
  ~TcpNetwork() override;

  struct Counters {
    std::uint64_t messages_sent = 0;
    std::uint64_t messages_received = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t connections_opened = 0;
    std::uint64_t connections_accepted = 0;
    std::uint64_t send_failures = 0;
    std::uint64_t reconnects = 0;  ///< outgoing connects to a previously seen peer
  };
  Counters counters() const;
  Address self() const { return self_; }

  /// Surfaces the transport counters on the kernel /metrics scrape
  /// (tcp_*_total counters + the live send-queue depth gauge).
  std::vector<std::pair<std::string, std::uint64_t>> metric_samples() const override;

 private:
  /// One framed message queued for writing. Traced frames remember their
  /// trace context and enqueue stamp so a net-send span (queue + write
  /// latency, frame bytes) can be recorded when the last byte leaves.
  struct OutFrame {
    Bytes bytes;
    std::uint32_t trace_id = 0;  ///< 0 = untraced
    std::uint32_t send_span = 0;
    std::uint32_t parent_span = 0;
    std::uint64_t enqueue_ns = 0;
  };

  struct Conn {
    int fd = -1;
    Reactor::Key key = 0;
    Address peer{};               // valid for outgoing connections
    std::deque<OutFrame> outbox{};  // frames awaiting write
    std::size_t out_offset = 0;   // partial-write position in outbox.front()
    Bytes inbox{};                // partial frame assembly
  };

  void boot(Address self, const Options& opts);
  void send(const Message& m);
  Bytes frame_message(const Message& m, const TraceTrailer* trailer, bool* failed);
  void on_ready(const IoReady& r);
  void accept_all();
  Conn* conn_for(const Address& dest);  ///< nullptr when connect() fails
  Conn* adopt(int fd, Address peer);    ///< watches a new socket; nullptr on failure
  bool flush(Conn& c);                  ///< false when the connection closed
  void read(Conn& c);
  void close_conn(Conn& c, const char* reason);
  void count(std::uint64_t Counters::*field, std::uint64_t n = 1);

  Negative<Network> network_ = provide<Network>();
  Negative<NetworkControl> netctl_ = provide<NetworkControl>();
  ReactorLink reactor_{core()};

  Address self_{};
  Options options_{};
  int listen_fd_ = -1;
  Reactor::Key listen_key_ = 0;

  // Component-context state: only handlers touch it.
  std::unordered_map<Reactor::Key, Conn> conns_;
  std::unordered_map<Address, Reactor::Key> out_by_peer_;  // outgoing conns
  std::unordered_set<Address> seen_peers_;                 // reconnect detection

  // Frames accepted by send() but not yet fully written (or dropped): the
  // send-queue depth gauge on /metrics.
  std::atomic<std::uint64_t> queued_frames_{0};

  mutable std::mutex counters_mu_;
  Counters counters_;
};

}  // namespace kompics::net
