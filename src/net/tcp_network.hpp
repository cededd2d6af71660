#pragma once

// TcpNetwork: a production Network provider over kernel TCP sockets — the
// from-scratch equivalent of the paper's pluggable NIO frameworks (Grizzly /
// Netty / MINA, §3). One epoll-driven I/O thread per component instance
// performs automatic connection management (connect-on-first-send, accept,
// teardown), length-prefixed framing, message serialization via the
// SerializationRegistry, and optional kz compression.
//
// Wire frame: [u32 length][u8 flags][body]; flags bit0 => body compressed.

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
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
    std::size_t compress_threshold = 256;  ///< only compress bodies >= this
    int listen_backlog = 128;
  };

  struct Init : kompics::Init {
    KOMPICS_EVENT(Init, kompics::Init);

    explicit Init(Address self) : self(self) {}
    Init(Address self, Options opts) : self(self), options(opts) {}
    Address self;
    Options options{};
  };

  TcpNetwork();
  ~TcpNetwork() override;

  /// Joins the I/O thread so in-flight frames stop being delivered before
  /// the component tree around this network is torn down.
  void halt() override { shutdown_io(); }

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
    bool connected = false;     // outgoing: connect() completed
    bool registered = false;    // in epoll set
    Address peer{};             // valid for outgoing connections
    std::deque<OutFrame> outbox;  // frames awaiting write
    std::size_t out_offset = 0; // partial-write position in outbox.front()
    Bytes inbox;                // partial frame assembly
  };

  void boot(Address self, const Options& opts);
  void shutdown_io();
  void io_main();
  void wake_io();
  void post_send(const Message& m);
  Bytes frame_message(const Message& m, const TraceTrailer* trailer, bool* failed);

  // I/O-thread-only helpers.
  void io_handle_listener();
  void io_handle_wake();
  void io_handle_conn(int fd, std::uint32_t events);
  void io_flush_writes(Conn& c);
  void io_read(Conn& c);
  void io_close_conn(int fd, const char* reason);
  Conn& io_conn_for(const Address& dest);
  void io_process_outgoing_queue();

  Negative<Network> network_ = provide<Network>();
  Negative<NetworkControl> netctl_ = provide<NetworkControl>();

  Address self_{};
  Options options_{};

  std::atomic<bool> io_running_{false};
  std::atomic<bool> io_stop_{false};
  std::thread io_thread_;
  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int wake_fd_ = -1;

  // Handler threads enqueue (dest, frame); the I/O thread drains.
  std::mutex out_mu_;
  std::vector<std::pair<Address, OutFrame>> pending_out_;

  // Frames accepted by post_send but not yet fully written (or dropped):
  // the send-queue depth gauge on /metrics.
  std::atomic<std::uint64_t> queued_frames_{0};

  // I/O-thread-owned state.
  std::unordered_map<int, Conn> conns_;             // by fd
  std::unordered_map<Address, int> out_by_peer_;    // outgoing conns
  std::unordered_map<Address, bool> seen_peers_;    // reconnect detection

  mutable std::mutex counters_mu_;
  Counters counters_;
};

}  // namespace kompics::net
