#pragma once

// CatsNode (Fig. 10/11): the composite component encapsulating one CATS
// node. Clients see only the PutGet port; internally the node wires up the
// bootstrap client, ping failure detector, Cyclon overlay, CATS ring,
// one-hop router, consistent-ABD replication, and (optionally) a monitor
// client — "by encapsulating many components behind the PutGet port,
// clients are hidden from the complexity and event-driven control flow
// internal to the component" (§4.1).

#include <atomic>

#include "cats/abd.hpp"
#include "cats/bootstrap.hpp"
#include "cats/cyclon.hpp"
#include "cats/failure_detector.hpp"
#include "cats/monitor.hpp"
#include "cats/params.hpp"
#include "cats/ports.hpp"
#include "cats/ring.hpp"
#include "cats/router.hpp"
#include "kompics/component.hpp"
#include "kompics/kompics.hpp"
#include "net/network_port.hpp"
#include "timing/timer_port.hpp"

namespace kompics::cats {

class CatsNode : public ComponentDefinition {
 public:
  /// monitor_server may be invalid (Address{}) to disable monitoring.
  CatsNode(NodeRef self, Address bootstrap_server, Address monitor_server, CatsParams params);

  const NodeRef& self() const { return self_; }
  /// Safe to poll from outside the component (tests, status pages) while
  /// handlers flip it on a worker thread.
  bool ready() const { return ready_.load(std::memory_order_acquire); }

  // Child handles exposed for tests and status inspection.
  Component fd, cyclon, ring, router, abd, bootstrap_client, monitor_client;

 private:
  Negative<PutGet> putget_ = provide<PutGet>();
  Positive<net::Network> network_ = require<net::Network>();
  Positive<timing::Timer> timer_ = require<timing::Timer>();

  struct JoinCheck : timing::Timeout {
    KOMPICS_EVENT(JoinCheck, timing::Timeout);

    using Timeout::Timeout;
  };

  NodeRef self_;
  CatsParams params_;
  timing::TimeoutId join_check_id_ = 0;
  // Atomic: read by ready() from arbitrary threads; written in handlers.
  std::atomic<bool> ready_{false};
  bool orphaned_ = false;
  TimeMs last_refresh_ = 0;
  std::vector<NodeRef> contacts_;
};

}  // namespace kompics::cats
