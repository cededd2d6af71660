#pragma once

// Network messages of the CATS protocols (Fig. 11), all registered with the
// serialization registry so the same components run over TcpNetwork,
// LoopbackNetwork (codec-exercising mode), or the NetworkEmulator.
// Wire ids 100..149 are reserved for CATS.
//
// Each message states its wire format once, in `wire_fields()` (see
// net/wire.hpp). A field list must follow its constructor's parameter order
// after (src, dst): decoding reads the fields in list order and passes them
// to that constructor, so two same-typed fields listed in swapped order
// still compile but swap on the wire. The nested structs' lists follow
// their member order (aggregate initialization). tests/cats_wire_test.cpp
// pins every message's bytes.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cats/ports.hpp"
#include "net/network_port.hpp"
#include "net/wire.hpp"

namespace kompics::cats {

using net::Message;

/// Call once (idempotent, thread-safe) before using CATS over a serializing
/// network provider. Component constructors call it automatically.
void register_cats_serializers();

// ---- failure detector ------------------------------------------------------

class PingMsg : public Message {
  KOMPICS_EVENT(PingMsg, Message);

 public:
  PingMsg(Address s, Address d, std::uint64_t seq) : Message(s, d), seq(seq) {}
  static constexpr auto wire_fields() { return wire::fields(&PingMsg::seq); }
  std::uint64_t seq;
};

class PongMsg : public Message {
  KOMPICS_EVENT(PongMsg, Message);

 public:
  PongMsg(Address s, Address d, std::uint64_t seq) : Message(s, d), seq(seq) {}
  static constexpr auto wire_fields() { return wire::fields(&PongMsg::seq); }
  std::uint64_t seq;
};

// ---- Cyclon ------------------------------------------------------------------

struct CyclonEntry {
  NodeRef node;
  std::uint32_t age = 0;
  static constexpr auto wire_fields() {
    return wire::fields(&CyclonEntry::node, &CyclonEntry::age);
  }
};

class ShuffleRequestMsg : public Message {
  KOMPICS_EVENT(ShuffleRequestMsg, Message);

 public:
  ShuffleRequestMsg(Address s, Address d, std::vector<CyclonEntry> entries)
      : Message(s, d), entries(std::move(entries)) {}
  static constexpr auto wire_fields() { return wire::fields(&ShuffleRequestMsg::entries); }
  std::vector<CyclonEntry> entries;
};

class ShuffleResponseMsg : public Message {
  KOMPICS_EVENT(ShuffleResponseMsg, Message);

 public:
  ShuffleResponseMsg(Address s, Address d, std::vector<CyclonEntry> entries)
      : Message(s, d), entries(std::move(entries)) {}
  static constexpr auto wire_fields() { return wire::fields(&ShuffleResponseMsg::entries); }
  std::vector<CyclonEntry> entries;
};

// ---- ring maintenance --------------------------------------------------------

/// Iteratively routed join lookup: find the successor of `target`. The hop
/// budget bounds forwarding: successor lists disagree while a partition
/// heals, so the "monotonic progress" forwarding rule can cycle — and on a
/// duplicating link an unbounded cycle is an exponential message storm
/// (campaign finding, seeds 565/805/940/1915). An exhausted budget drops the
/// lookup; the joiner's retry timer issues a fresh one.
class FindSuccessorMsg : public Message {
  KOMPICS_EVENT(FindSuccessorMsg, Message);

 public:
  FindSuccessorMsg(Address s, Address d, NodeRef joiner, RingKey target, std::uint32_t hops_left)
      : Message(s, d), joiner(joiner), target(target), hops_left(hops_left) {}
  static constexpr auto wire_fields() {
    return wire::fields(&FindSuccessorMsg::joiner, wire::fixed(&FindSuccessorMsg::target),
                        wire::fixed(&FindSuccessorMsg::hops_left));
  }
  NodeRef joiner;
  RingKey target;
  std::uint32_t hops_left;
};

class FoundSuccessorMsg : public Message {
  KOMPICS_EVENT(FoundSuccessorMsg, Message);

 public:
  FoundSuccessorMsg(Address s, Address d, NodeRef successor, std::vector<NodeRef> successor_list)
      : Message(s, d), successor(successor), successor_list(std::move(successor_list)) {}
  static constexpr auto wire_fields() {
    return wire::fields(&FoundSuccessorMsg::successor, &FoundSuccessorMsg::successor_list);
  }
  NodeRef successor;
  std::vector<NodeRef> successor_list;
};

/// Periodic stabilization probe to our successor.
class GetRingStateMsg : public Message {
  KOMPICS_EVENT(GetRingStateMsg, Message);

 public:
  GetRingStateMsg(Address s, Address d, NodeRef from) : Message(s, d), from(from) {}
  static constexpr auto wire_fields() { return wire::fields(&GetRingStateMsg::from); }
  NodeRef from;
};

class RingStateMsg : public Message {
  KOMPICS_EVENT(RingStateMsg, Message);

 public:
  RingStateMsg(Address s, Address d, NodeRef self, bool has_pred, NodeRef pred,
               std::vector<NodeRef> succs)
      : Message(s, d), self(self), has_pred(has_pred), pred(pred), succs(std::move(succs)) {}
  static constexpr auto wire_fields() {
    return wire::fields(&RingStateMsg::self, &RingStateMsg::has_pred, &RingStateMsg::pred,
                        &RingStateMsg::succs);
  }
  NodeRef self;
  bool has_pred;
  NodeRef pred;
  std::vector<NodeRef> succs;
};

/// Chord-style notify: "I believe I am your predecessor".
class NotifyMsg : public Message {
  KOMPICS_EVENT(NotifyMsg, Message);

 public:
  NotifyMsg(Address s, Address d, NodeRef from) : Message(s, d), from(from) {}
  static constexpr auto wire_fields() { return wire::fields(&NotifyMsg::from); }
  NodeRef from;
};

// ---- ABD quorum replication ----------------------------------------------------

struct VersionTag {
  std::uint64_t counter = 0;
  std::uint64_t writer = 0;  // tie-break
  static constexpr auto wire_fields() {
    return wire::fields(&VersionTag::counter, wire::fixed(&VersionTag::writer));
  }
  bool operator<(const VersionTag& o) const {
    return counter != o.counter ? counter < o.counter : writer < o.writer;
  }
  bool operator==(const VersionTag& o) const {
    return counter == o.counter && writer == o.writer;
  }
};

/// Every ABD phase message carries the consistent-quorum view version the
/// coordinator resolved its replica group under (`view`); replicas reject
/// phase messages whose version does not match their installed view, which
/// is what makes two concurrent quorums for the same range impossible.
class AbdReadMsg : public Message {
  KOMPICS_EVENT(AbdReadMsg, Message);

 public:
  AbdReadMsg(Address s, Address d, OpId op, RingKey key, std::uint64_t view)
      : Message(s, d), op(op), key(key), view(view) {}
  static constexpr auto wire_fields() {
    return wire::fields(&AbdReadMsg::op, wire::fixed(&AbdReadMsg::key), &AbdReadMsg::view);
  }
  OpId op;
  RingKey key;
  std::uint64_t view;
};

class AbdReadAckMsg : public Message {
  KOMPICS_EVENT(AbdReadAckMsg, Message);

 public:
  AbdReadAckMsg(Address s, Address d, OpId op, RingKey key, std::uint64_t view, VersionTag tag,
                bool exists, Value value)
      : Message(s, d), op(op), key(key), view(view), tag(tag), exists(exists),
        value(std::move(value)) {}
  static constexpr auto wire_fields() {
    return wire::fields(&AbdReadAckMsg::op, wire::fixed(&AbdReadAckMsg::key), &AbdReadAckMsg::view,
                        &AbdReadAckMsg::tag, &AbdReadAckMsg::exists, &AbdReadAckMsg::value);
  }
  OpId op;
  RingKey key;
  std::uint64_t view;  ///< echo of the phase message's view version
  VersionTag tag;
  bool exists;
  Value value;
};

class AbdWriteMsg : public Message {
  KOMPICS_EVENT(AbdWriteMsg, Message);

 public:
  AbdWriteMsg(Address s, Address d, OpId op, RingKey key, std::uint64_t view, VersionTag tag,
              bool exists, Value value)
      : Message(s, d), op(op), key(key), view(view), tag(tag), exists(exists),
        value(std::move(value)) {}
  static constexpr auto wire_fields() {
    return wire::fields(&AbdWriteMsg::op, wire::fixed(&AbdWriteMsg::key), &AbdWriteMsg::view,
                        &AbdWriteMsg::tag, &AbdWriteMsg::exists, &AbdWriteMsg::value);
  }
  OpId op;
  RingKey key;
  std::uint64_t view;
  VersionTag tag;
  bool exists;  ///< false only for write-backs of "no value" (no-op impose)
  Value value;
};

class AbdWriteAckMsg : public Message {
  KOMPICS_EVENT(AbdWriteAckMsg, Message);

 public:
  AbdWriteAckMsg(Address s, Address d, OpId op, RingKey key, std::uint64_t view)
      : Message(s, d), op(op), key(key), view(view) {}
  static constexpr auto wire_fields() {
    return wire::fields(&AbdWriteAckMsg::op, wire::fixed(&AbdWriteAckMsg::key),
                        &AbdWriteAckMsg::view);
  }
  OpId op;
  RingKey key;
  std::uint64_t view;
};

/// Replica refusal of an ABD phase message sent under a stale (or not yet
/// installed) view. Lets the coordinator abandon an unreachable quorum
/// early and retry with a fresh lookup instead of waiting out the timeout.
class AbdNackMsg : public Message {
  KOMPICS_EVENT(AbdNackMsg, Message);

 public:
  AbdNackMsg(Address s, Address d, OpId op, RingKey key, std::uint64_t current_version)
      : Message(s, d), op(op), key(key), current_version(current_version) {}
  static constexpr auto wire_fields() {
    return wire::fields(&AbdNackMsg::op, wire::fixed(&AbdNackMsg::key),
                        &AbdNackMsg::current_version);
  }
  OpId op;
  RingKey key;
  std::uint64_t current_version;  ///< replica's installed version (0 = none)
};

// ---- one-hop routing ---------------------------------------------------------

/// Greedily forwarded lookup: find the replication group of `key` on behalf
/// of `origin`. The responsible node answers the origin directly with a
/// LookupResultMsg — one forwarding hop in the common (warm-table) case.
class RouteLookupMsg : public Message {
  KOMPICS_EVENT(RouteLookupMsg, Message);

 public:
  RouteLookupMsg(Address s, Address d, NodeRef origin, OpId op, RingKey key, std::uint32_t ttl)
      : Message(s, d), origin(origin), op(op), key(key), ttl(ttl) {}
  static constexpr auto wire_fields() {
    return wire::fields(&RouteLookupMsg::origin, &RouteLookupMsg::op,
                        wire::fixed(&RouteLookupMsg::key), &RouteLookupMsg::ttl);
  }
  NodeRef origin;
  OpId op;
  RingKey key;
  std::uint32_t ttl;
};

/// The responsible node's answer to a RouteLookupMsg: the installed view
/// covering the key — range (lo, hi], members and version — so the origin
/// can reuse it for other keys of the range. A version-0 view carries the
/// ring-successor group of the responsibility interval (no installed view).
class LookupResultMsg : public Message {
  KOMPICS_EVENT(LookupResultMsg, Message);

 public:
  LookupResultMsg(Address s, Address d, OpId op, RingKey key, GroupView view)
      : Message(s, d), op(op), key(key), view(std::move(view)) {}
  static constexpr auto wire_fields() {
    return wire::fields(&LookupResultMsg::op, wire::fixed(&LookupResultMsg::key),
                        &LookupResultMsg::view);
  }
  OpId op;
  RingKey key;
  GroupView view;
};

// ---- consistent-quorum view reconfiguration ---------------------------------
//
// A key range's replica group only changes through a single-decree consensus
// instance run over the members of the OLD view (the paper's consistent
// quorums [11]). Promising a proposal FENCES the old view at the acceptor:
// it stops acknowledging ABD phase messages for that version. A new view is
// installed only after a majority of the old view accepted it — i.e. only
// once the old view can no longer assemble an ABD quorum — so a partial
// partition can never commit divergent writes under two views of one range.

/// Proposal ballot: totally ordered, proposer key breaks ties.
struct Ballot {
  std::uint64_t round = 0;
  std::uint64_t proposer = 0;
  static constexpr auto wire_fields() {
    return wire::fields(&Ballot::round, wire::fixed(&Ballot::proposer));
  }
  bool operator<(const Ballot& o) const {
    return round != o.round ? round < o.round : proposer < o.proposer;
  }
  bool operator==(const Ballot& o) const { return round == o.round && proposer == o.proposer; }
  bool operator<=(const Ballot& o) const { return *this < o || *this == o; }
};

/// One stored key shipped during view installation / catch-up.
struct KeyState {
  RingKey key = 0;
  VersionTag tag{};
  Value value;
  static constexpr auto wire_fields() {
    return wire::fields(wire::fixed(&KeyState::key), &KeyState::tag, &KeyState::value);
  }
};

/// Phase 1a: fence the range (range_lo, range_hi] at version target-1 and
/// ask its members to promise ballot for the reconfiguration to `target`.
class ViewPrepareMsg : public Message {
  KOMPICS_EVENT(ViewPrepareMsg, Message);

 public:
  ViewPrepareMsg(Address s, Address d, RingKey range_lo, RingKey range_hi, std::uint64_t target,
                 Ballot ballot)
      : Message(s, d), range_lo(range_lo), range_hi(range_hi), target(target), ballot(ballot) {}
  static constexpr auto wire_fields() {
    return wire::fields(wire::fixed(&ViewPrepareMsg::range_lo),
                        wire::fixed(&ViewPrepareMsg::range_hi), &ViewPrepareMsg::target,
                        &ViewPrepareMsg::ballot);
  }
  RingKey range_lo;
  RingKey range_hi;
  std::uint64_t target;
  Ballot ballot;
};

/// Phase 1b. ok=true carries any previously accepted proposal (Paxos adopt
/// rule) plus the acceptor's replica state for the range (the state-transfer
/// source). ok=false with a non-empty `catchup` view tells a stale proposer
/// which newer view is already installed.
class ViewPromiseMsg : public Message {
  KOMPICS_EVENT(ViewPromiseMsg, Message);

 public:
  ViewPromiseMsg(Address s, Address d, RingKey range_hi, std::uint64_t target, Ballot ballot,
                 bool ok, Ballot promised, bool has_accepted, Ballot accepted_ballot,
                 std::vector<GroupView> accepted_children, std::vector<GroupView> catchup,
                 std::vector<KeyState> state)
      : Message(s, d), range_hi(range_hi), target(target), ballot(ballot), ok(ok),
        promised(promised), has_accepted(has_accepted), accepted_ballot(accepted_ballot),
        accepted_children(std::move(accepted_children)), catchup(std::move(catchup)),
        state(std::move(state)) {}
  static constexpr auto wire_fields() {
    return wire::fields(wire::fixed(&ViewPromiseMsg::range_hi), &ViewPromiseMsg::target,
                        &ViewPromiseMsg::ballot, &ViewPromiseMsg::ok, &ViewPromiseMsg::promised,
                        &ViewPromiseMsg::has_accepted, &ViewPromiseMsg::accepted_ballot,
                        &ViewPromiseMsg::accepted_children, &ViewPromiseMsg::catchup,
                        &ViewPromiseMsg::state);
  }
  RingKey range_hi;
  std::uint64_t target;
  Ballot ballot;  ///< the prepare's ballot, echoed for matching
  bool ok;
  Ballot promised;
  bool has_accepted;
  Ballot accepted_ballot;
  std::vector<GroupView> accepted_children;
  std::vector<GroupView> catchup;  ///< 0 or 1 newer installed views (ok=false)
  std::vector<KeyState> state;
};

/// Phase 2a: the children views (1 = member change, 2 = range split) that
/// replace the parent range at `target`.
class ViewAcceptMsg : public Message {
  KOMPICS_EVENT(ViewAcceptMsg, Message);

 public:
  ViewAcceptMsg(Address s, Address d, RingKey range_lo, RingKey range_hi, std::uint64_t target,
                Ballot ballot, std::vector<GroupView> children)
      : Message(s, d), range_lo(range_lo), range_hi(range_hi), target(target), ballot(ballot),
        children(std::move(children)) {}
  static constexpr auto wire_fields() {
    return wire::fields(wire::fixed(&ViewAcceptMsg::range_lo),
                        wire::fixed(&ViewAcceptMsg::range_hi), &ViewAcceptMsg::target,
                        &ViewAcceptMsg::ballot, &ViewAcceptMsg::children);
  }
  RingKey range_lo;
  RingKey range_hi;
  std::uint64_t target;
  Ballot ballot;
  std::vector<GroupView> children;
};

/// Phase 2b.
class ViewAcceptedMsg : public Message {
  KOMPICS_EVENT(ViewAcceptedMsg, Message);

 public:
  ViewAcceptedMsg(Address s, Address d, RingKey range_hi, std::uint64_t target, Ballot ballot,
                  bool ok)
      : Message(s, d), range_hi(range_hi), target(target), ballot(ballot), ok(ok) {}
  static constexpr auto wire_fields() {
    return wire::fields(wire::fixed(&ViewAcceptedMsg::range_hi), &ViewAcceptedMsg::target,
                        &ViewAcceptedMsg::ballot, &ViewAcceptedMsg::ok);
  }
  RingKey range_hi;
  std::uint64_t target;
  Ballot ballot;
  bool ok;
};

/// Decision + state transfer: install one child view (sent to every member
/// of the child; also answers a ViewFetchMsg for catch-up). The receiver
/// merges `state` by max tag, drops any overlapping older range, and
/// publishes the view to its router.
class ViewInstallMsg : public Message {
  KOMPICS_EVENT(ViewInstallMsg, Message);

 public:
  ViewInstallMsg(Address s, Address d, RingKey parent_hi, GroupView child,
                 std::vector<KeyState> state)
      : Message(s, d), parent_hi(parent_hi), child(std::move(child)), state(std::move(state)) {}
  static constexpr auto wire_fields() {
    return wire::fields(wire::fixed(&ViewInstallMsg::parent_hi), &ViewInstallMsg::child,
                        &ViewInstallMsg::state);
  }
  RingKey parent_hi;
  GroupView child;
  std::vector<KeyState> state;
};

class ViewInstallAckMsg : public Message {
  KOMPICS_EVENT(ViewInstallAckMsg, Message);

 public:
  ViewInstallAckMsg(Address s, Address d, RingKey parent_hi, RingKey child_hi,
                    std::uint64_t version)
      : Message(s, d), parent_hi(parent_hi), child_hi(child_hi), version(version) {}
  static constexpr auto wire_fields() {
    return wire::fields(wire::fixed(&ViewInstallAckMsg::parent_hi),
                        wire::fixed(&ViewInstallAckMsg::child_hi), &ViewInstallAckMsg::version);
  }
  RingKey parent_hi;
  RingKey child_hi;
  std::uint64_t version;
};

/// Catch-up pull: "send me the views covering (lo, hi]". A node that is
/// ring-responsible for an interval no installed view covers (e.g. a healed
/// boundary node that was evicted from its old group) asks a successor —
/// replicas of its ranges — for copies, then proposes a member change to
/// re-enter the group. Answered with ViewInstallMsg per overlapping view.
class ViewFetchMsg : public Message {
  KOMPICS_EVENT(ViewFetchMsg, Message);

 public:
  ViewFetchMsg(Address s, Address d, RingKey lo, RingKey hi)
      : Message(s, d), lo(lo), hi(hi) {}
  static constexpr auto wire_fields() {
    return wire::fields(wire::fixed(&ViewFetchMsg::lo), wire::fixed(&ViewFetchMsg::hi));
  }
  RingKey lo;
  RingKey hi;
};

// ---- bootstrap ------------------------------------------------------------------

class BootstrapRequestMsg : public Message {
  KOMPICS_EVENT(BootstrapRequestMsg, Message);

 public:
  BootstrapRequestMsg(Address s, Address d, NodeRef self) : Message(s, d), self(self) {}
  static constexpr auto wire_fields() { return wire::fields(&BootstrapRequestMsg::self); }
  NodeRef self;
};

class BootstrapResponseMsg : public Message {
  KOMPICS_EVENT(BootstrapResponseMsg, Message);

 public:
  BootstrapResponseMsg(Address s, Address d, std::vector<NodeRef> peers)
      : Message(s, d), peers(std::move(peers)) {}
  static constexpr auto wire_fields() { return wire::fields(&BootstrapResponseMsg::peers); }
  std::vector<NodeRef> peers;
};

class KeepAliveMsg : public Message {
  KOMPICS_EVENT(KeepAliveMsg, Message);

 public:
  KeepAliveMsg(Address s, Address d, NodeRef self) : Message(s, d), self(self) {}
  static constexpr auto wire_fields() { return wire::fields(&KeepAliveMsg::self); }
  NodeRef self;
};

// ---- monitoring ------------------------------------------------------------------

class StatusReportMsg : public Message {
  KOMPICS_EVENT(StatusReportMsg, Message);

 public:
  StatusReportMsg(Address s, Address d, NodeRef node,
                  std::map<std::string, std::string> fields)
      : Message(s, d), node(node), fields(std::move(fields)) {}
  static constexpr auto wire_fields() {
    return wire::fields(&StatusReportMsg::node, &StatusReportMsg::fields);
  }
  NodeRef node;
  std::map<std::string, std::string> fields;
};

}  // namespace kompics::cats
