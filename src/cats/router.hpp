#pragma once

// OneHopRouter (Fig. 11): resolves a ring key to its replication group in
// (expectedly) one forwarding hop. The router accumulates a full routing
// table from Cyclon node samples and ring views; a lookup is answered
// authoritatively by the responsible node itself (the only node that knows
// its predecessor, hence its exact responsibility interval), so group
// answers track ring agreement rather than possibly-stale tables.
//
// Forwarding rule (Chord's closest-preceding-node over the full table):
// guarantees progress; the ring successor is the fallback next hop, so
// routing degenerates to correct O(n) ring traversal when tables are cold.
// Entries carry a last-heard timestamp and expire, which evicts dead nodes
// under churn (samples keep refreshing live ones).

#include <map>
#include <unordered_map>

#include "cats/messages.hpp"
#include "cats/params.hpp"
#include "cats/ports.hpp"
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

  std::size_t table_size() const { return table_.size(); }

  /// Campaign-harness invariants (ISSUE 7): cached installed views must be
  /// mutually disjoint. Empty on healthy runs.
  std::vector<std::string> invariant_violations() const;

 private:
  /// Forwards a lookup we are not responsible for, awaits the remote answer
  /// (correlated by op id), learns the group and relays it to the local
  /// client port. The frame garbage-collects itself after one op-timeout
  /// period: the origin's operation deadline owns the retry policy.
  protocol::Proto<void> relay_lookup(OpId op, RingKey key, std::size_t group_size);
  void learn(const NodeRef& n);
  void handle_lookup_at_responsible(const NodeRef& origin, OpId op, RingKey key,
                                    std::size_t group_size);
  bool responsible_for(RingKey key) const;
  const GroupView* covering_view(RingKey key) const;
  std::vector<NodeRef> build_group(RingKey key, std::size_t group_size) const;
  bool forward(const NodeRef& origin, OpId op, RingKey key, std::uint32_t group_size,
               std::uint32_t ttl);
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
  // Latest ring view (authoritative responsibility + fallback next hop).
  // Until the first view arrives the node has not joined the ring and must
  // never claim responsibility (a pre-join node would otherwise answer
  // lookups as a lone ring).
  bool view_received_ = false;
  bool sole_member_ = false;
  bool has_pred_ = false;
  NodeRef pred_{};
  std::vector<NodeRef> succs_;
  // Installed quorum views published by the local ABD's view manager. A
  // lookup this node is responsible for is answered from the covering view
  // (members + version) when one exists: those are the only groups replicas
  // will acknowledge phases for. Without one, the ring-successor group is
  // answered with view_version 0 — usable for ring joins, but coordinators
  // must not run quorum phases under it.
  std::map<RingKey, GroupView> views_;
  std::uint64_t lookups_served_ = 0;
  std::uint64_t lookups_forwarded_ = 0;
};

}  // namespace kompics::cats
