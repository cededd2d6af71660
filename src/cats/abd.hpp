#pragma once

// ConsistentABD (Fig. 11): quorum-based linearizable reads and writes — a
// multi-writer multi-reader atomic register per key (Attiya-Bar-Noy-Dolev),
// layered over the One-Hop Router (to discover the replication group of a
// key) and the Network (for the quorum phases).
//
// Put(k, v):  phase 1 queries a majority of the group for version tags and
//             picks max; phase 2 writes (max.counter + 1, self) to a
//             majority.
// Get(k):     phase 1 reads (tag, value) from a majority. If every counted
//             ack carried the same (tag, exists), that majority already holds
//             the maximum and the get answers after one round trip (the ABD
//             fast read; counted as fast_reads). Otherwise phase 2 imposes
//             the maximum back onto a majority before responding (the ABD
//             write-back, which is what makes concurrent reads linearizable).
//             The paper's Fig. 11 always imposes; skipping an impose that
//             would rewrite what a majority holds keeps the same guarantee
//             (argument at the fast-read return in run_op).
//
// Consistent quorums (CATS tech report [11]): every replica group is a
// versioned view over a key range. Phase messages carry the view version
// the coordinator looked the group up under; replicas acknowledge only if
// the version matches their installed, unfenced view and they are members.
// View changes run as a single-decree consensus per (range, version) over
// the OLD view's members, and promising a proposal fences the old view —
// so by the time a new view activates, the old one can no longer assemble
// an ABD quorum, and a partial partition cannot commit divergent writes.
// That needs a replica's installed views to be pairwise disjoint, which the
// supersede rule of their ViewTable (view_table.hpp) keeps them.
//
// Replicas are otherwise passive: they answer reads with their stored
// (tag, value) and apply writes only when the incoming tag is newer.
// Operations time out and retry with a fresh group lookup (bounded; it
// bypasses the router's learned-view cache), then fail — CATS targets
// "partially synchronous, lossy, partitionable and dynamic networks" (§4).

#include <functional>
#include <map>
#include <optional>
#include <unordered_map>

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

class ConsistentABD : public ComponentDefinition {
 public:
  struct Init : kompics::Init {
    KOMPICS_EVENT(Init, kompics::Init);

    Init(NodeRef self, CatsParams params) : self(self), params(params) {}
    NodeRef self;
    CatsParams params;
  };

  ConsistentABD();

  struct Counters {
    std::uint64_t puts_ok = 0;
    std::uint64_t gets_ok = 0;
    std::uint64_t fast_reads = 0;  ///< gets answered after one round trip (no write-back)
    std::uint64_t ops_failed = 0;
    std::uint64_t retries = 0;
    // Phase the op was in when it finally gave up (diagnosis of failures).
    std::uint64_t failed_in_lookup = 0;
    std::uint64_t failed_in_read = 0;
    std::uint64_t failed_in_write = 0;
    // Consistent-quorum views.
    std::uint64_t views_installed = 0;       ///< views (re)installed locally
    std::uint64_t view_fences = 0;           ///< ranges fenced by a promise
    std::uint64_t view_fetches = 0;          ///< catch-up pulls sent
    std::uint64_t reconfigs_proposed = 0;    ///< prepare rounds started
    std::uint64_t reconfigs_decided = 0;     ///< proposals that reached accept quorum
    std::uint64_t stale_view_nacks = 0;      ///< replica: phase msgs rejected
    std::uint64_t fast_retries = 0;          ///< coordinator: nack-driven retries
    std::uint64_t lookup_reasks = 0;         ///< coordinator: lookups re-sent after an
                                             ///< unversioned or empty answer
    // Coordinator-side divergence guard: acks whose view version did not
    // match the operation's view. Replicas echo the phase version, so this
    // MUST stay 0 — the partition tests assert it (no op may count an ack,
    // let alone commit, under a stale view).
    std::uint64_t stale_view_acks_dropped = 0;
  };
  const Counters& counters() const { return counters_; }
  std::size_t store_size() const { return store_.size(); }
  /// Installed view covering `key`, if any (tests / introspection).
  std::optional<GroupView> view_covering(RingKey key) const {
    const RangeState* r = ranges_.covering(key);
    return r == nullptr ? std::nullopt : std::optional<GroupView>(r->view);
  }

  /// Protocol invariants for the campaign harness: recorded violations (an
  /// op counting acks under a view other than the one it was coordinated
  /// under) plus on-demand checks of the current state (no two installed
  /// views may overlap, nested ones included; no in-flight op may hold more
  /// acks than group members). Empty on every healthy run; the campaign
  /// runner polls this per node.
  std::vector<std::string> invariant_violations() const;

 private:
  /// A stored key. Presence in `store_` (or a merged state map) is what
  /// makes the key exist: entries are only ever created by a write.
  struct Replica {
    VersionTag tag{};
    Value value;
  };

  enum class OpType { kPut, kGet };
  enum class Phase { kLookup, kRead, kWrite };

  struct Op {
    OpType type;
    Phase phase = Phase::kLookup;
    OpId client_id = 0;  // id from the PutGet request
    RingKey key = 0;
    Value put_value;
    GroupView view;  ///< the replica group the op was resolved under, with its version
    std::size_t quorum = 0;
    // Ack/nack sources for the current phase of the current attempt:
    // duplicated deliveries must not double-count toward the quorum.
    std::vector<Address> acked;
    std::vector<Address> nacked;
    VersionTag max_tag{};
    bool max_exists = false;
    Value max_value;
    /// Every ack counted in this attempt's read phase carried the same
    /// (tag, exists): a get then answers without the write-back.
    bool read_agreed = true;
    int retries_left = 0;
    int fast_retries = 0;  ///< nack-driven retries so far; each doubles the next backoff
    std::uint8_t attempt = 0;  ///< retry epoch, embedded in wire op ids
    // A put chooses its version tag exactly once. Retries retransmit the
    // SAME (tag, value): re-choosing a fresh (higher) tag would let one put
    // take effect at two different linearization points (its value could be
    // observed, overwritten, and then resurrect — a checker-found bug).
    bool tag_chosen = false;
    VersionTag chosen_tag{};
  };

  struct ReconfigTick : timing::Timeout {
    KOMPICS_EVENT(ReconfigTick, timing::Timeout);

    using Timeout::Timeout;
  };

  // ---- consistent-quorum view state ------------------------------------

  /// A range this node holds (as member or catch-up copy). Fenced ranges no
  /// longer acknowledge ABD phase messages: a majority of fenced members is
  /// what de-activates an old view.
  struct Fence {
    bool fenced = false;
    TimeMs fenced_at = 0;  ///< when the fence dropped (recovery re-proposal timer)
  };
  using RangeState = ViewTable<Fence>::Entry;

  /// Single-decree acceptor slot for one (range_hi, target version).
  struct Slot {
    Ballot promised{};
    bool has_accepted = false;
    Ballot accepted_ballot{};
    std::vector<GroupView> accepted_children;
  };

  /// Proposer state for reconfiguring the range with hi == key of map.
  struct Reconfig {
    enum class Stage { kPrepare, kAccept, kInstall };
    Stage stage = Stage::kPrepare;
    std::uint64_t target = 0;
    Ballot ballot{};
    GroupView parent;                  // old view (acceptors = parent.members)
    std::vector<GroupView> proposed;   // what we want
    std::vector<GroupView> children;   // what got decided (after adoption)
    std::vector<Address> promises;
    std::vector<Address> accepts;
    bool adopted = false;
    Ballot max_accepted{};
    std::uint64_t highest_rejection = 0;  ///< highest promised.round seen in nacks
    std::map<RingKey, Replica> merged_state;  // max-tag merge of promise dumps
    std::map<RingKey, std::vector<Address>> install_acks;  // child hi -> ackers
    TimeMs last_driven = 0;  ///< pace retransmits/ballot bumps to the tick period
  };

  // Wire op ids embed the retry attempt so acknowledgements from a
  // timed-out attempt can never count toward a later attempt's quorum (an
  // attempt's correlation predicates match the exact wire id).
  static OpId wire_id(OpId internal, std::uint8_t attempt) { return internal * 16 + attempt; }

  // ---- coordinator: one coroutine frame per client operation -------------
  //
  // run_op drives the whole retry loop; each attempt arms one deadline that
  // spans the lookup/read/write rounds. A round co_returns true on quorum,
  // false when the deadline (or the nack-infeasibility fast-retry backoff)
  // fires first. The ops_ entry is erased by RAII when the frame ends —
  // including when the component is destroyed mid-operation.
  protocol::Proto<void> run_op(OpId internal);
  protocol::Proto<bool> lookup_round(OpId internal, protocol::ArmedTimer& deadline);
  protocol::Proto<bool> read_round(OpId internal, protocol::ArmedTimer& deadline);
  protocol::Proto<bool> write_round(OpId internal, protocol::ArmedTimer& deadline);
  /// The shared ack/nack quorum loop of the read and write phases: sends the
  /// phase messages, counts view-gated deduplicated acks (folding each newly
  /// counted one through `fold`), and arms the fast-retry backoff when nacks
  /// make this view's quorum infeasible.
  template <class AckMsg>
  protocol::Proto<bool> quorum_round(OpId internal, protocol::ArmedTimer& deadline,
                                     Phase phase, std::function<void(OpId wid)> send_phase,
                                     std::function<void(const AckMsg&)> fold);
  /// View-gates and dedups a phase ack; true if it newly counts toward the
  /// quorum. (Shared by the read and write rounds: the view gate, the
  /// mixed-view violation recorder, and the source dedup are identical.)
  bool count_ack(OpId internal, Op& op, const Address& source, std::uint64_t ack_view);
  /// Counts a deduplicated nack; true when so many members rejected this
  /// view that a quorum can never form (callers then arm the fast retry).
  bool count_nack(Op& op, const Address& source);
  /// Replies to the client and bumps the outcome counters (the ops_ entry
  /// itself is owned by run_op's RAII guard).
  void complete_op(Op& op, bool ok);
  OpId fresh_id() { return next_op_++; }
  /// Dedup-insert `a` into `v`; true if newly inserted.
  static bool note_address(std::vector<Address>& v, const Address& a);
  /// Records the mixed-view-quorum invariant violation (only reachable with
  /// params_.inject_stale_view_bug — the healthy coordinator drops the ack).
  void note_mixed_view_ack(OpId internal, const Op& op, std::uint64_t ack_view);

  // ---- view manager (abd_views.cpp) ------------------------------------

  /// Wires up the consistent-quorum view protocol: the single-decree
  /// consensus (prepare/promise/accept/accepted), installs, and catch-up
  /// fetches. Lives in abd_views.cpp with the rest of the view manager.
  void subscribe_view_protocol();
  std::vector<KeyState> dump_range(const GroupView& range) const;
  /// The max-tag merge every state transfer uses: `(tag, value)` replaces
  /// the entry for `key` in `into` unless that entry already holds a newer
  /// or equal tag.
  template <class Map>
  static void merge_newer(Map& into, RingKey key, const VersionTag& tag, const Value& value) {
    auto [it, inserted] = into.try_emplace(key);
    if (inserted || it->second.tag < tag) it->second = Replica{tag, value};
  }
  static bool same_member_set(const std::vector<NodeRef>& a, const std::vector<NodeRef>& b);
  std::uint64_t next_ballot_round(const Reconfig* prev) const;
  void install_view(const GroupView& view, const std::vector<KeyState>& state);
  void evaluate_reconfigurations();
  void drive_reconfig(Reconfig& rec);
  void send_installs(Reconfig& rec);
  /// Who must ack a child's install: the child's members plus the parent's —
  /// evicted members learn the view that superseded (and unfences) theirs.
  std::vector<NodeRef> install_recipients(const Reconfig& rec, const GroupView& child) const;
  void merge_promise_state(Reconfig& rec, const std::vector<KeyState>& state);
  void replica_nack(const Address& to, OpId op, RingKey key);

  Negative<PutGet> putget_ = provide<PutGet>();
  Negative<Status> status_ = provide<Status>();
  Negative<QuorumViews> views_ = provide<QuorumViews>();
  Positive<Router> router_ = require<Router>();
  Positive<Ring> ring_ = require<Ring>();
  Positive<net::Network> network_ = require<net::Network>();
  Positive<timing::Timer> timer_ = require<timing::Timer>();

  NodeRef self_;
  CatsParams params_;
  std::unordered_map<RingKey, Replica> store_;
  std::unordered_map<OpId, Op> ops_;  // keyed by internal op id
  OpId next_op_ = 1;
  Counters counters_;
  std::vector<std::string> recorded_violations_;

  // Cached ring neighborhood (drives reconfiguration proposals).
  RingNeighborhood ring_view_;
  std::uint64_t ring_epoch_ = 0;
  std::uint64_t fetch_attempts_ = 0;

  ViewTable<Fence> ranges_;                                   // installed views
  std::map<std::pair<RingKey, std::uint64_t>, Slot> slots_;   // (hi, target)
  std::map<RingKey, Reconfig> reconfigs_;                     // keyed by parent.hi
};

}  // namespace kompics::cats
