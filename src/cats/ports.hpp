#pragma once

// Service abstractions (port types + request/indication events) of the CATS
// architecture, one per "abstraction package" of paper §3 / Fig. 11:
//
//   PutGet              — the store's client API (linearizable get/put)
//   Ring                — ring membership / view maintenance (CATS Ring)
//   Router              — key -> replication group lookup (One-Hop Router)
//   NodeSampling        — random peer samples (Cyclon Overlay)
//   EventuallyPerfectFD — ping failure detector (Suspect / Restore)
//   Bootstrap           — node discovery at join time
//   Status              — per-component introspection for monitoring / web
//   QuorumViews         — installed consistent-quorum views (replica groups
//                         versioned per key range; CATS tech report [11])

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kompics/event.hpp"
#include "kompics/port_type.hpp"
#include "net/address.hpp"
#include "net/wire.hpp"
#include "cats/ring_key.hpp"

namespace kompics::cats {

using net::Address;
namespace wire = net::wire;
using Value = std::vector<std::uint8_t>;
using OpId = std::uint64_t;

// ---------------------------------------------------------------------------
// PutGet (§4.1: "a simple API to get and put key-value pairs, while
// guaranteeing linearizable consistency")
// ---------------------------------------------------------------------------

class PutRequest : public Event {
  KOMPICS_EVENT(PutRequest, Event);

 public:
  PutRequest(OpId id, RingKey key, Value value) : id(id), key(key), value(std::move(value)) {}
  OpId id;
  RingKey key;
  Value value;
};

class PutResponse : public Event {
  KOMPICS_EVENT(PutResponse, Event);

 public:
  PutResponse(OpId id, RingKey key, bool ok) : id(id), key(key), ok(ok) {}
  OpId id;
  RingKey key;
  bool ok;
};

class GetRequest : public Event {
  KOMPICS_EVENT(GetRequest, Event);

 public:
  GetRequest(OpId id, RingKey key) : id(id), key(key) {}
  OpId id;
  RingKey key;
};

class GetResponse : public Event {
  KOMPICS_EVENT(GetResponse, Event);

 public:
  GetResponse(OpId id, RingKey key, bool ok, bool found, Value value)
      : id(id), key(key), ok(ok), found(found), value(std::move(value)) {}
  OpId id;
  RingKey key;
  bool ok;     ///< false => operation failed/timed out
  bool found;  ///< key had a value
  Value value;
};

class PutGet : public PortType {
 public:
  PutGet() {
    set_name("PutGet");
    request<PutRequest>();
    request<GetRequest>();
    indication<PutResponse>();
    indication<GetResponse>();
  }
};

// ---------------------------------------------------------------------------
// Ring (CATS Ring: topology maintenance)
// ---------------------------------------------------------------------------

struct NodeRef {
  RingKey key = 0;
  Address addr{};
  static constexpr auto wire_fields() {
    return wire::fields(wire::fixed(&NodeRef::key), &NodeRef::addr);
  }
  bool operator==(const NodeRef& o) const { return key == o.key && addr == o.addr; }
  bool operator!=(const NodeRef& o) const { return !(*this == o); }
};

/// Instructs the ring to join via the given contact nodes (empty = found a
/// fresh ring).
class JoinRing : public Event {
  KOMPICS_EVENT(JoinRing, Event);

 public:
  explicit JoinRing(std::vector<Address> contacts) : contacts(std::move(contacts)) {}
  std::vector<Address> contacts;
};

/// A node's ring neighborhood as its ring component last published it, and
/// the one place that decides which keys the node is responsible for and
/// which replica group a node heads. Default-constructed (no RingView seen
/// yet, so not a ring member) it is responsible for nothing.
struct RingNeighborhood {
  NodeRef self;
  NodeRef predecessor;
  bool has_predecessor = false;
  std::vector<NodeRef> successors;  ///< nearest first; never contains self
  /// True only for a node that bootstrapped a fresh ring and has never had
  /// a peer. A node that LOST all its neighbors (suspected under a
  /// partition) is NOT a sole member.
  bool sole_member = false;

  bool responsible_for(RingKey key) const {
    if (has_predecessor) return in_interval_oc(predecessor.key, self.key, key);
    // Whole-ring authority belongs only to a genuine sole member. A node
    // that merely lost all neighbors (e.g. cut off by a partition) must
    // refuse it, or it would commit split-brain writes at quorum 1.
    return sole_member;
  }

  /// The replica group of `size` members headed by `head`: `head`, then
  /// this node, then its successors, without duplicates. With `head == self`
  /// it is the group of this node's own responsibility interval.
  std::vector<NodeRef> group_headed_by(const NodeRef& head, std::size_t size) const {
    std::vector<NodeRef> group{head};
    auto push = [&group, size](const NodeRef& n) {
      if (group.size() >= size) return;
      for (const auto& m : group) {
        if (m.addr == n.addr) return;
      }
      group.push_back(n);
    };
    push(self);
    for (const auto& s : successors) push(s);
    return group;
  }
};

/// Current ring neighborhood of this node. Emitted on every change.
class RingView : public Event {
  KOMPICS_EVENT(RingView, Event);

 public:
  RingView(NodeRef self, NodeRef predecessor, bool has_predecessor,
           std::vector<NodeRef> successors, bool sole_member, std::uint64_t epoch = 0)
      : neighborhood{self, predecessor, has_predecessor, std::move(successors), sole_member},
        epoch(epoch) {}
  RingNeighborhood neighborhood;
  /// Monotonic count of local view changes. Quorum-view reconfiguration
  /// ballots fold it in so proposal rounds advance with ring churn.
  std::uint64_t epoch;
};

/// Indication that this node has completed its join protocol.
class RingReady : public Event {
  KOMPICS_EVENT(RingReady, Event);

 public:
  explicit RingReady(NodeRef self) : self(self) {}
  NodeRef self;
};

class Ring : public PortType {
 public:
  Ring() {
    set_name("Ring");
    request<JoinRing>();
    indication<RingView>();
    indication<RingReady>();
  }
};

// ---------------------------------------------------------------------------
// Router (One-Hop Router: key -> replication group)
// ---------------------------------------------------------------------------

/// A versioned replica group for the ring range (lo, hi]. lo == hi means the
/// full ring (genesis view of a lone ring). members[0] is the primary (the
/// ring node responsible for the range).
struct GroupView {
  RingKey lo = 0;
  RingKey hi = 0;
  std::uint64_t version = 0;
  std::vector<NodeRef> members;
  static constexpr auto wire_fields() {
    return wire::fields(wire::fixed(&GroupView::lo), wire::fixed(&GroupView::hi),
                             &GroupView::version, &GroupView::members);
  }
  bool covers(RingKey k) const { return in_interval_oc(lo, hi, k); }
  /// Two ring arcs intersect exactly when one contains the other's end.
  bool overlaps(const GroupView& o) const { return covers(o.hi) || o.covers(hi); }
  bool has_member(const Address& a) const {
    for (const auto& m : members) {
      if (m.addr == a) return true;
    }
    return false;
  }
};

class LookupRequest : public Event {
  KOMPICS_EVENT(LookupRequest, Event);

 public:
  LookupRequest(OpId id, RingKey key, bool fresh = false) : id(id), key(key), fresh(fresh) {}
  OpId id;
  RingKey key;
  /// Bypass (and evict) the router's learned view for the key's range and
  /// route to the responsible node, leaving through a random entry that
  /// precedes the key. Retries set it: the cached view, or a dead successor
  /// entry, may be what made the previous attempt fail.
  bool fresh;
};

class LookupResponse : public Event {
  KOMPICS_EVENT(LookupResponse, Event);

 public:
  LookupResponse(OpId id, RingKey key, GroupView view)
      : id(id), key(key), view(std::move(view)) {}
  OpId id;
  RingKey key;
  /// The key's replica group: members are the responsible node first, then
  /// its successors. ABD operations stamp view.version on every phase
  /// message; replicas reject stale versions. Version 0 => no installed
  /// view backs this answer (empty members, or the ring successors).
  GroupView view;
};

class Router : public PortType {
 public:
  Router() {
    set_name("Router");
    request<LookupRequest>();
    indication<LookupResponse>();
  }
};

// ---------------------------------------------------------------------------
// QuorumViews (consistent quorums, CATS tech report [11]): versioned replica
// groups per key range. The ABD layer owns view installation (it runs the
// reconfiguration consensus) and publishes every installed view; the router
// answers lookups from the installed views so operations always carry the
// view version their replica group was read under.
// ---------------------------------------------------------------------------

/// Indication that a view was installed locally (new range, new version, or
/// a catch-up copy fetched from a peer).
class ViewUpdate : public Event {
  KOMPICS_EVENT(ViewUpdate, Event);

 public:
  explicit ViewUpdate(GroupView view) : view(std::move(view)) {}
  GroupView view;
};

class QuorumViews : public PortType {
 public:
  QuorumViews() {
    set_name("QuorumViews");
    indication<ViewUpdate>();
  }
};

// ---------------------------------------------------------------------------
// NodeSampling (Cyclon Overlay)
// ---------------------------------------------------------------------------

/// Periodic random sample of live nodes, with their ring keys.
class NodeSample : public Event {
  KOMPICS_EVENT(NodeSample, Event);

 public:
  explicit NodeSample(std::vector<NodeRef> nodes) : nodes(std::move(nodes)) {}
  std::vector<NodeRef> nodes;
};

/// Seeds the sampling overlay with initial contacts.
class SamplingSeed : public Event {
  KOMPICS_EVENT(SamplingSeed, Event);

 public:
  SamplingSeed(NodeRef self, std::vector<NodeRef> contacts)
      : self(self), contacts(std::move(contacts)) {}
  NodeRef self;
  std::vector<NodeRef> contacts;
};

class NodeSampling : public PortType {
 public:
  NodeSampling() {
    set_name("NodeSampling");
    request<SamplingSeed>();
    indication<NodeSample>();
  }
};

// ---------------------------------------------------------------------------
// EventuallyPerfectFD (Ping Failure Detector)
// ---------------------------------------------------------------------------

class MonitorNode : public Event {
  KOMPICS_EVENT(MonitorNode, Event);

 public:
  explicit MonitorNode(Address node) : node(node) {}
  Address node;
};

class UnmonitorNode : public Event {
  KOMPICS_EVENT(UnmonitorNode, Event);

 public:
  explicit UnmonitorNode(Address node) : node(node) {}
  Address node;
};

class Suspect : public Event {
  KOMPICS_EVENT(Suspect, Event);

 public:
  explicit Suspect(Address node) : node(node) {}
  Address node;
};

class Restore : public Event {
  KOMPICS_EVENT(Restore, Event);

 public:
  explicit Restore(Address node) : node(node) {}
  Address node;
};

class EventuallyPerfectFD : public PortType {
 public:
  EventuallyPerfectFD() {
    set_name("EventuallyPerfectFD");
    request<MonitorNode>();
    request<UnmonitorNode>();
    indication<Suspect>();
    indication<Restore>();
  }
};

// ---------------------------------------------------------------------------
// Bootstrap (§4.1)
// ---------------------------------------------------------------------------

class BootstrapRequest : public Event {
  KOMPICS_EVENT(BootstrapRequest, Event);

 public:
  explicit BootstrapRequest(NodeRef self) : self(self) {}
  NodeRef self;
};

class BootstrapResponse : public Event {
  KOMPICS_EVENT(BootstrapResponse, Event);

 public:
  explicit BootstrapResponse(std::vector<NodeRef> peers) : peers(std::move(peers)) {}
  std::vector<NodeRef> peers;
};

/// Sent by the node after it finished joining: the client starts sending
/// periodic keep-alives to the bootstrap server (§4.1).
class BootstrapDone : public Event {
  KOMPICS_EVENT(BootstrapDone, Event);

 public:
  BootstrapDone() = default;
};

class Bootstrap : public PortType {
 public:
  Bootstrap() {
    set_name("Bootstrap");
    request<BootstrapRequest>();
    request<BootstrapDone>();
    indication<BootstrapResponse>();
  }
};

// ---------------------------------------------------------------------------
// Status (monitoring / web introspection, §4.1)
// ---------------------------------------------------------------------------

class StatusRequest : public Event {
  KOMPICS_EVENT(StatusRequest, Event);

 public:
  explicit StatusRequest(OpId id) : id(id) {}
  OpId id;
};

class StatusResponse : public Event {
  KOMPICS_EVENT(StatusResponse, Event);

 public:
  StatusResponse(OpId id, std::string component, std::map<std::string, std::string> fields)
      : id(id), component(std::move(component)), fields(std::move(fields)) {}
  OpId id;
  std::string component;
  std::map<std::string, std::string> fields;
};

class Status : public PortType {
 public:
  Status() {
    set_name("Status");
    request<StatusRequest>();
    indication<StatusResponse>();
  }
};

}  // namespace kompics::cats
