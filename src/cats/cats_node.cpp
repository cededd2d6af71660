#include "cats/cats_node.hpp"

namespace kompics::cats {

CatsNode::CatsNode(NodeRef self, Address bootstrap_server, Address monitor_server,
                   CatsParams params)
    : self_(self), params_(params) {
  register_cats_serializers();

  fd = create<PingFailureDetector>();
  trigger(make_event<PingFailureDetector::Init>(self.addr, params), fd.control());
  cyclon = create<CyclonOverlay>();
  trigger(make_event<CyclonOverlay::Init>(self, params), cyclon.control());
  ring = create<CatsRing>();
  trigger(make_event<CatsRing::Init>(self, params), ring.control());
  router = create<OneHopRouter>();
  trigger(make_event<OneHopRouter::Init>(self, params), router.control());
  abd = create<ConsistentABD>();
  trigger(make_event<ConsistentABD::Init>(self, params), abd.control());
  bootstrap_client = create<BootstrapClient>();
  trigger(make_event<BootstrapClient::Init>(self, bootstrap_server, params),
          bootstrap_client.control());

  // Network and Timer pass-through: the node's own required ports fan in to
  // every protocol component (Fig. 11: "all provided ports are connected to
  // all required ports of the same type" within the node's scope).
  for (const Component& c : {fd, cyclon, ring, router, abd, bootstrap_client}) {
    connect(c.required<net::Network>(), network_);
  }
  for (const Component& c : {fd, cyclon, ring, router, abd, bootstrap_client}) {
    connect(c.required<timing::Timer>(), timer_);
  }

  // Service wiring.
  connect(fd.provided<EventuallyPerfectFD>(), ring.required<EventuallyPerfectFD>());
  connect(cyclon.provided<NodeSampling>(), router.required<NodeSampling>());
  connect(cyclon.provided<NodeSampling>(), ring.required<NodeSampling>());
  connect(ring.provided<Ring>(), router.required<Ring>());
  connect(ring.provided<Ring>(), abd.required<Ring>());
  connect(router.provided<Router>(), abd.required<Router>());
  // The ABD's view manager feeds installed quorum views back to the router,
  // which answers lookups with (members, view version) for consistent-quorum
  // phases.
  connect(abd.provided<QuorumViews>(), router.required<QuorumViews>());

  // Expose ABD's PutGet as the node's own PutGet (composite pass-through).
  connect(abd.provided<PutGet>(), putget_);

  // Optional monitoring: the client polls every functional component's
  // Status port and ships aggregated reports to the monitor server.
  if (monitor_server.valid()) {
    monitor_client = create<MonitorClient>();
    trigger(make_event<MonitorClient::Init>(self, monitor_server, params),
            monitor_client.control());
    connect(monitor_client.required<net::Network>(), network_);
    connect(monitor_client.required<timing::Timer>(), timer_);
    for (const Component& c : {fd, cyclon, ring, router, abd}) {
      connect(c.provided<Status>(), monitor_client.required<Status>());
    }
  }

  // Join orchestration glue (§4.1): bootstrap -> seed sampling -> join ring
  // -> report BootstrapDone once the ring is ready.
  subscribe<Start>(control(), [this](const Start&) {
    trigger(make_event<BootstrapRequest>(self_), bootstrap_client.provided<Bootstrap>());
    // Liveness guard, always armed: (a) a stalled join (every sampled
    // contact died under churn) re-bootstraps for fresh contacts; (b) an
    // orphaned node (lost all neighbors to suspicion) re-bootstraps to find
    // the ring again; (c) a low-frequency refresh re-seeds gossip so
    // disjoint rings left by a healed partition merge.
    auto check = timing::schedule_periodic<JoinCheck>(4 * params_.stabilization_period_ms,
                                                      4 * params_.stabilization_period_ms);
    join_check_id_ = check->timeout_id();
    trigger(check, timer_);
  });

  subscribe<JoinCheck>(timer_, [this](const JoinCheck&) {
    const bool refresh_due =
        params_.bootstrap_refresh_ms > 0 && now() - last_refresh_ >= params_.bootstrap_refresh_ms;
    if (!ready_ || orphaned_ || refresh_due) {
      last_refresh_ = now();
      trigger(make_event<BootstrapRequest>(self_), bootstrap_client.provided<Bootstrap>());
    }
  });

  // Track orphaning: a ready node whose view lost every successor without
  // being a genuine sole member needs to find the ring again.
  subscribe<RingView>(ring.provided<Ring>(), [this](const RingView& view) {
    orphaned_ = ready_ && view.neighborhood.successors.empty() && !view.neighborhood.sole_member;
  });

  subscribe<BootstrapResponse>(bootstrap_client.provided<Bootstrap>(),
                               [this](const BootstrapResponse& resp) {
                                 contacts_ = resp.peers;
                                 if (ready_) {
                                   // Refresh / orphan recovery: re-seed gossip
                                   // with live peers; ring merge rides on the
                                   // resulting samples.
                                   trigger(make_event<SamplingSeed>(self_, contacts_),
                                           cyclon.provided<NodeSampling>());
                                   return;
                                 }
                                 std::vector<Address> contacts;
                                 contacts.reserve(resp.peers.size());
                                 for (const auto& p : resp.peers) contacts.push_back(p.addr);
                                 trigger(make_event<JoinRing>(std::move(contacts)),
                                         ring.provided<Ring>());
                               });

  subscribe<RingReady>(ring.provided<Ring>(), [this](const RingReady&) {
    ready_ = true;
    // Seed the sampling overlay only now: an unjoined node must never become
    // routable (its descriptor would poison one-hop tables, see router.cpp).
    trigger(make_event<SamplingSeed>(self_, contacts_), cyclon.provided<NodeSampling>());
    trigger(make_event<BootstrapDone>(), bootstrap_client.provided<Bootstrap>());
  });
}

}  // namespace kompics::cats
