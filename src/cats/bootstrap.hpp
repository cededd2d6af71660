#pragma once

// Bootstrap service (paper §4.1): a BootstrapServer keeps a list of online
// nodes for a system instance; every node embeds a BootstrapClient that
// fetches alive peers at startup and — after the node has joined — sends
// periodic keep-alives. The server evicts nodes whose keep-alives stop.

#include <unordered_map>
#include <vector>

#include "cats/messages.hpp"
#include "cats/params.hpp"
#include "cats/ports.hpp"
#include "kompics/component.hpp"
#include "kompics/kompics.hpp"
#include "kompics/protocol.hpp"
#include "net/network_port.hpp"
#include "timing/timer_port.hpp"

namespace kompics::cats {

class BootstrapServer : public ComponentDefinition {
 public:
  struct Init : kompics::Init {
    KOMPICS_EVENT(Init, kompics::Init);

    Init(Address self, CatsParams params) : self(self), params(params) {}
    Address self;
    CatsParams params;
  };

  BootstrapServer();

  std::size_t alive_count() const { return alive_.size(); }
  std::vector<NodeRef> alive_nodes() const;

 private:
  struct EvictionRound : timing::Timeout {
    KOMPICS_EVENT(EvictionRound, timing::Timeout);

    using Timeout::Timeout;
  };

  Negative<Status> status_ = provide<Status>();
  Positive<net::Network> network_ = require<net::Network>();
  Positive<timing::Timer> timer_ = require<timing::Timer>();

  Address self_;
  CatsParams params_;
  struct AliveEntry {
    NodeRef node;
    TimeMs last_seen = 0;
  };
  std::unordered_map<Address, AliveEntry> alive_;
  std::uint64_t requests_served_ = 0;
  std::uint64_t evictions_ = 0;
};

class BootstrapClient : public ComponentDefinition {
 public:
  struct Init : kompics::Init {
    KOMPICS_EVENT(Init, kompics::Init);

    Init(NodeRef self, Address server, CatsParams params)
        : self(self), server(server), params(params) {}
    NodeRef self;
    Address server;
    CatsParams params;
  };

  BootstrapClient();

 private:
  /// Send-the-request/await-the-answer loop, retrying every keep-alive
  /// period until the server responds (the server may not be up yet).
  protocol::Proto<void> run_handshake();
  /// Infinite keep-alive heartbeat; dies with the component.
  protocol::Proto<void> run_keepalive();

  Negative<Bootstrap> bootstrap_ = provide<Bootstrap>();
  Positive<net::Network> network_ = require<net::Network>();
  Positive<timing::Timer> timer_ = require<timing::Timer>();

  NodeRef self_;
  Address server_;
  CatsParams params_;
  bool handshaking_ = false;
  bool done_ = false;
};

}  // namespace kompics::cats
