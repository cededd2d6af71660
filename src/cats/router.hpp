#pragma once

// OneHopRouter (Fig. 11): resolves a ring key to its replication group in
// (expectedly) one forwarding hop. The router accumulates a full routing
// table from Cyclon node samples and ring views; a lookup is answered
// authoritatively by the responsible node itself (the only node that knows
// its predecessor, hence its exact responsibility interval), so group
// answers track ring agreement rather than possibly-stale tables.
//
// Forwarding rule (successor side): a node that is not responsible sends
// the lookup to the live node closest to the key from the successor side:
// the first table entry at or after the key, or its ring predecessor. With
// a complete table that node is the responsible one, so a lookup takes one
// hop. A hop is only taken to a node strictly closer to the key than this
// one, so distance shrinks on every hop and a lookup cannot loop; a hop
// that lands past the key moves back toward it (the predecessor always
// qualifies). Within the arc its successor list covers, a node routes by
// its ring view instead, which the failure detector keeps free of dead
// nodes. A node that knows no closer node, or receives a lookup whose hop
// budget is spent, answers the origin with an empty group instead of
// bouncing it. A `fresh` lookup (an operation's retry) leaves its origin
// through a random pick among the three closest live entries preceding the
// key, so a dead successor entry cannot black-hole every attempt. Entries
// carry a last-heard timestamp and expire, which evicts dead nodes under
// churn (samples keep refreshing live ones).
//
// Learned views: the origin of a relayed lookup keeps the versioned view the
// responsible node answered with (by the supersede rule of view_table.hpp,
// like the installed views) and answers later lookups for any key of that
// range locally for kEntryTtlMs, restarted when the view is answered again.
// Replicas ack only their exact installed, unfenced view version, so a stale
// entry costs the operation one failed attempt; the retry asks `fresh`.

#include <map>
#include <optional>

#include "cats/messages.hpp"
#include "cats/params.hpp"
#include "cats/ports.hpp"
#include "cats/view_table.hpp"
#include "kompics/component.hpp"
#include "kompics/kompics.hpp"
#include "kompics/protocol.hpp"
#include "net/network_port.hpp"
#include "timing/timer_port.hpp"

namespace kompics::cats {

class OneHopRouter : public ComponentDefinition {
 public:
  struct Init : kompics::Init {
    KOMPICS_EVENT(Init, kompics::Init);

    Init(NodeRef self, CatsParams params) : self(self), params(params) {}
    NodeRef self;
    CatsParams params;
  };

  /// Entries older than this many milliseconds are ignored/evicted. Live
  /// nodes are re-announced by every Cyclon sample (one per shuffle period),
  /// so a few periods of headroom suffice; a short TTL is what flushes
  /// descriptors of dead nodes out of the forwarding path.
  static constexpr DurationMs kEntryTtlMs = 6000;
  static constexpr std::uint32_t kMaxHops = 64;

  OneHopRouter();

  struct Counters {
    std::uint64_t lookups_served = 0;     ///< answered as the responsible node
    std::uint64_t lookups_forwarded = 0;  ///< RouteLookupMsg hops sent
    std::uint64_t lookups_relayed = 0;    ///< lookups this node originated and routed
    std::uint64_t lookups_unroutable = 0; ///< answered empty: no closer node, or hops spent
    std::uint64_t lookups_cached = 0;     ///< answered from a learned view
    std::uint64_t views_learned = 0;      ///< relayed answers stored as learned views
    std::uint64_t fresh_evictions = 0;    ///< learned views evicted by a fresh lookup
  };
  const Counters& counters() const { return counters_; }
  std::size_t table_size() const { return table_.size(); }
  std::size_t learned_size() const { return learned_.size(); }

  /// Campaign-harness invariants: the routing table is well formed, and the
  /// installed and the learned views are each pairwise disjoint. Empty on
  /// healthy runs.
  std::vector<std::string> invariant_violations() const;

 private:
  struct Seen {
    TimeMs since = 0;  // when the view was last installed or learned
  };
  using Views = ViewTable<Seen>;
  /// Stores `view` by the supersede rule, refreshing an identical one's
  /// timestamp. Returns whether the view is now held.
  bool store(Views& views, const GroupView& view) {
    const Supersede done = views.supersede(view, Seen{now()});
    if (done == Supersede::kSame) views.find(view.hi)->since = now();
    return done != Supersede::kRefused;
  }

  /// Forwards a lookup we are not responsible for, awaits the remote answer
  /// (correlated by op id), learns the group and relays it to the local
  /// client port. The frame garbage-collects itself after one op-timeout
  /// period: the origin's operation deadline owns the retry policy.
  protocol::Proto<void> relay_lookup(OpId op, RingKey key, bool fresh);
  void learn(const NodeRef& n);
  void handle_lookup_at_responsible(const NodeRef& origin, OpId op, RingKey key);
  /// The responsible node's answer: the installed view covering `key`, or
  /// the ring-successor group of its interval at version 0.
  GroupView authoritative_view(RingKey key);
  /// Sends a lookup result to its origin: over the network, or straight to
  /// the local client port when the origin is this node.
  void answer(const NodeRef& origin, OpId op, RingKey key, GroupView view);
  /// The next hop for `key` (see the forwarding rule above), if any.
  std::optional<NodeRef> next_hop(RingKey key, bool fresh);
  bool forward(const NodeRef& origin, OpId op, RingKey key, std::uint32_t ttl, bool fresh);
  void evict_stale();

  Negative<Router> router_ = provide<Router>();
  Negative<Status> status_ = provide<Status>();
  Positive<net::Network> network_ = require<net::Network>();
  Positive<NodeSampling> sampling_ = require<NodeSampling>();
  Positive<Ring> ring_ = require<Ring>();
  Positive<QuorumViews> quorum_views_ = require<QuorumViews>();
  Positive<timing::Timer> timer_ = require<timing::Timer>();

  NodeRef self_;
  CatsParams params_;
  struct Entry {
    NodeRef node;
    TimeMs last_heard = 0;
  };
  std::map<RingKey, Entry> table_;  // ordered by ring key for successor scans
  // Latest ring view (authoritative responsibility; its neighbours are
  // next hops even after their table entries expire). Until the first view
  // arrives it is responsible for nothing: a pre-join node must never answer
  // lookups as a lone ring.
  RingNeighborhood ring_view_;
  // Installed quorum views published by the local ABD's view manager. A
  // lookup this node is responsible for is answered from the covering view
  // (members + version) when one exists: those are the only groups replicas
  // will acknowledge phases for. Without one, the ring-successor group is
  // answered with version 0, which tells the coordinator that no view
  // backs the range yet: it must not run quorum phases under it, and
  // re-asks (abd.cpp).
  Views views_;
  // Versioned views learned from relayed lookup answers; expire after
  // kEntryTtlMs. Bypassed under the inject_stale_view_bug emulation.
  Views learned_;
  Counters counters_;
};

}  // namespace kompics::cats
