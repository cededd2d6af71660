#pragma once

// PingFailureDetector (Fig. 11): an eventually-perfect failure detector.
// Periodically pings each monitored node; a node that misses its (adaptive)
// timeout is Suspected, and Restored when a pong finally arrives — at which
// point the timeout is increased, so in a partially synchronous system every
// false suspicion eventually stops (the classic <>P construction).

#include <cstdint>
#include <unordered_map>

#include "cats/messages.hpp"
#include "cats/params.hpp"
#include "cats/ports.hpp"
#include "kompics/component.hpp"
#include "kompics/kompics.hpp"
#include "net/network_port.hpp"
#include "timing/timer_port.hpp"

namespace kompics::cats {

class PingFailureDetector : public ComponentDefinition {
 public:
  struct Init : kompics::Init {
    KOMPICS_EVENT(Init, kompics::Init);

    Init(Address self, CatsParams params) : self(self), params(params) {}
    Address self;
    CatsParams params;
  };

  PingFailureDetector();

  // Introspection for tests.
  bool is_suspected(const Address& a) const {
    auto it = monitored_.find(a);
    return it != monitored_.end() && it->second.suspected;
  }
  std::size_t monitored_count() const { return monitored_.size(); }

 private:
  struct Mon {
    std::uint64_t seq_sent = 0;
    std::uint64_t seq_acked = 0;
    TimeMs last_ping_time = 0;
    DurationMs timeout;
    bool suspected = false;
  };

  struct PingRound : timing::Timeout {
    KOMPICS_EVENT(PingRound, timing::Timeout);

    using Timeout::Timeout;
  };

  void on_round();

  Negative<EventuallyPerfectFD> fd_ = provide<EventuallyPerfectFD>();
  Negative<Status> status_ = provide<Status>();
  Positive<net::Network> network_ = require<net::Network>();
  Positive<timing::Timer> timer_ = require<timing::Timer>();

  Address self_;
  CatsParams params_;
  std::unordered_map<Address, Mon> monitored_;
  std::uint64_t suspicions_ = 0;
  std::uint64_t restores_ = 0;
};

}  // namespace kompics::cats
