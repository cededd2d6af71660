// White-box tests of the ConsistentABD protocol machine: quorum counting,
// the read-impose write-back, replica tag ordering, retry semantics (same
// tag retransmission — the checker-found invariant), stale-attempt
// filtering, and the consistent-quorum plumbing (view-stamped phases, the
// replica view gate, per-replica ack dedup, nack-driven fast retry, and the
// find()-based read path that keeps the store from growing under read
// storms of absent keys). A scripted harness plays router + network + timer
// so every message is injected deterministically.

#include <gtest/gtest.h>

#include <deque>

#include "cats/abd.hpp"
#include "sim/sim_timer.hpp"
#include "sim/simulation.hpp"

namespace kompics::cats::test {
namespace {

using sim::SimTimer;
using sim::Simulation;

/// Plays the world around one ConsistentABD instance: answers (or ignores)
/// its lookups, records its network sends, and lets tests inject replies.
class Harness : public ComponentDefinition {
 public:
  Harness() {
    subscribe<LookupRequest>(router_, [this](const LookupRequest& req) {
      lookups.push_back(req);
      if (auto_answer_lookups) {
        trigger(make_event<LookupResponse>(req.id, req.key, group, view_version), router_);
      }
    });
    subscribe<AbdReadMsg>(network_, [this](const AbdReadMsg& m) { reads.push_back(m); });
    subscribe<AbdWriteMsg>(network_, [this](const AbdWriteMsg& m) { writes.push_back(m); });
    // Replica-side acknowledgements sent by the ABD (when WE inject
    // reads/writes at it as if we were a remote coordinator).
    subscribe<AbdReadAckMsg>(network_, [this](const AbdReadAckMsg& m) {
      replica_read_acks.push_back(m);
    });
    subscribe<AbdWriteAckMsg>(network_, [this](const AbdWriteAckMsg& m) {
      replica_write_acks.push_back(m);
    });
    subscribe<AbdNackMsg>(network_, [this](const AbdNackMsg& m) { replica_nacks.push_back(m); });
    subscribe<ViewPromiseMsg>(network_, [this](const ViewPromiseMsg& m) {
      promises.push_back(m);
    });
    // Client-side responses come back on the ABD's PutGet port; the harness
    // subscribes there via the parent below.
  }

  // Inject replies as if they came from replicas (echoing the phase view,
  // as a correct replica does).
  void read_ack(const AbdReadMsg& to, VersionTag tag, bool exists, Value v,
                Address from_replica) {
    trigger(make_event<AbdReadAckMsg>(from_replica, to.source(), to.op, to.key, to.view, tag,
                                      exists, std::move(v)),
            network_);
  }
  void write_ack(const AbdWriteMsg& to, Address from_replica) {
    trigger(make_event<AbdWriteAckMsg>(from_replica, to.source(), to.op, to.key, to.view),
            network_);
  }
  /// A *wrong* ack: view version different from the phase message's.
  void read_ack_with_view(const AbdReadMsg& to, std::uint64_t view, Address from_replica) {
    trigger(make_event<AbdReadAckMsg>(from_replica, to.source(), to.op, to.key, view,
                                      VersionTag{}, false, Value{}),
            network_);
  }
  void nack(const AbdReadMsg& to, std::uint64_t current_version, Address from_replica) {
    trigger(make_event<AbdNackMsg>(from_replica, to.source(), to.op, to.key, current_version),
            network_);
  }

  // Drive the ABD's *replica* role, as a remote coordinator would.
  void inject_replica_write(Address from, Address to, OpId op, RingKey key, std::uint64_t view,
                            VersionTag tag, Value v) {
    trigger(make_event<AbdWriteMsg>(from, to, op, key, view, tag, true, std::move(v)),
            network_);
  }
  void inject_replica_read(Address from, Address to, OpId op, RingKey key, std::uint64_t view) {
    trigger(make_event<AbdReadMsg>(from, to, op, key, view), network_);
  }
  /// Hand the ABD an installed view, as a decided reconfiguration would.
  void install_view(Address to, GroupView view, std::vector<KeyState> state = {}) {
    trigger(make_event<ViewInstallMsg>(Address::node(200), to, /*parent_hi=*/view.hi,
                                       std::move(view), std::move(state)),
            network_);
  }
  /// Fence a range at the ABD, as a competing reconfiguration's Prepare would.
  void prepare(Address to, RingKey lo, RingKey hi, std::uint64_t target, Ballot ballot) {
    trigger(make_event<ViewPrepareMsg>(Address::node(200), to, lo, hi, target, ballot),
            network_);
  }

  Negative<Router> router_ = provide<Router>();
  Negative<Ring> ring_ = provide<Ring>();
  Negative<net::Network> network_ = provide<net::Network>();

  bool auto_answer_lookups = true;
  std::uint64_t view_version = 1;  ///< stamped on auto-answered lookups
  std::vector<NodeRef> group;
  std::vector<LookupRequest> lookups;
  std::vector<AbdReadMsg> reads;
  std::vector<AbdWriteMsg> writes;
  std::vector<AbdReadAckMsg> replica_read_acks;
  std::vector<AbdWriteAckMsg> replica_write_acks;
  std::vector<AbdNackMsg> replica_nacks;
  std::vector<ViewPromiseMsg> promises;
};

class World : public ComponentDefinition {
 public:
  explicit World(sim::SimulatorCore* core) {
    CatsParams params;
    params.op_timeout_ms = 1000;
    params.op_max_retries = 2;
    self = NodeRef{100, Address::node(1)};
    abd = create<ConsistentABD>();
    abd.control()->trigger(make_event<ConsistentABD::Init>(self, params));
    harness = create<Harness>();
    timer = create<SimTimer>();
    timer.control()->trigger(make_event<SimTimer::Init>(core));

    connect(abd.required<Router>(), harness.provided<Router>());
    connect(abd.required<Ring>(), harness.provided<Ring>());
    connect(abd.required<net::Network>(), harness.provided<net::Network>());
    connect(abd.required<timing::Timer>(), timer.provided<timing::Timer>());

    subscribe<PutResponse>(abd.provided<PutGet>(),
                           [this](const PutResponse& r) { put_responses.push_back(r); });
    subscribe<GetResponse>(abd.provided<PutGet>(),
                           [this](const GetResponse& r) { get_responses.push_back(r); });
    subscribe<StatusResponse>(abd.provided<Status>(),
                              [this](const StatusResponse& r) { statuses.push_back(r); });
  }

  void put(OpId id, RingKey key, Value v) {
    trigger(make_event<PutRequest>(id, key, std::move(v)), abd.provided<PutGet>());
  }
  void get(OpId id, RingKey key) {
    trigger(make_event<GetRequest>(id, key), abd.provided<PutGet>());
  }
  void request_status(std::uint64_t id) {
    trigger(make_event<StatusRequest>(id), abd.provided<Status>());
  }

  Harness& h() { return harness.definition_as<Harness>(); }
  ConsistentABD& abd_def() { return abd.definition_as<ConsistentABD>(); }

  NodeRef self;
  Component abd, harness, timer;
  std::vector<PutResponse> put_responses;
  std::vector<GetResponse> get_responses;
  std::vector<StatusResponse> statuses;
};

struct AbdFixture : ::testing::Test {
  AbdFixture() : sim(Config{}, 9) {
    main = sim.bootstrap<World>(&sim.core());
    sim.run_until(1);
    world = &main.definition_as<World>();
    // Default group of 3 replicas (the coordinator is NOT a member here —
    // the protocol must not care).
    world->h().group = {NodeRef{10, Address::node(10)}, NodeRef{20, Address::node(20)},
                        NodeRef{30, Address::node(30)}};
  }
  void step() { sim.run_until(sim.now() + 1); }

  Simulation sim;
  Component main;
  World* world = nullptr;
};

// The happy-path quorum tests (PutRunsReadThenWritePhaseAndAcksAtQuorum,
// GetImposesMaxValueBeforeResponding, DuplicatedAcksFromOneReplicaDoNot-
// CompleteQuorum) and the reconfiguration-gate tests (ReplicaGateNacksWrong-
// ViewsAndFencedRanges, NackMajorityTriggersFastRetryAfterBackoff) moved to
// the TestKit event-stream DSL: tests/testkit_abd_test.cpp and
// tests/testkit_reconfig_test.cpp. What stays here are the white-box cases
// that poke protocol internals the DSL deliberately doesn't expose.

TEST_F(AbdFixture, PutCounterDominatesMaxReadTag) {
  world->put(2, 7, Value{9});
  step();
  world->h().read_ack(world->h().reads[0], VersionTag{41, 77}, true, Value{1},
                      Address::node(10));
  world->h().read_ack(world->h().reads[1], VersionTag{5, 99}, true, Value{2},
                      Address::node(20));
  step();
  ASSERT_EQ(world->h().writes.size(), 3u);
  EXPECT_EQ(world->h().writes[0].tag.counter, 42u) << "max counter 41 + 1";
}

TEST_F(AbdFixture, GetOfAbsentKeySkipsImpose) {
  world->get(4, 8);
  step();
  world->h().read_ack(world->h().reads[0], VersionTag{}, false, {}, Address::node(10));
  world->h().read_ack(world->h().reads[1], VersionTag{}, false, {}, Address::node(20));
  step();
  EXPECT_TRUE(world->h().writes.empty()) << "nothing to impose";
  ASSERT_EQ(world->get_responses.size(), 1u);
  EXPECT_TRUE(world->get_responses[0].ok);
  EXPECT_FALSE(world->get_responses[0].found);
  world->request_status(1);
  step();
  ASSERT_EQ(world->statuses.size(), 1u);
  EXPECT_EQ(world->statuses[0].fields.at("fast_reads"), "1")
      << "a not-found answer is a fast read too";
}

TEST_F(AbdFixture, RetriedPutRetransmitsTheSameTag) {
  world->put(5, 9, Value{7});
  step();
  world->h().read_ack(world->h().reads[0], VersionTag{}, false, {}, Address::node(10));
  world->h().read_ack(world->h().reads[1], VersionTag{}, false, {}, Address::node(20));
  step();
  ASSERT_EQ(world->h().writes.size(), 3u);
  const VersionTag first_tag = world->h().writes[0].tag;

  // Withhold write acks: the op times out and retries (fresh lookup).
  const auto lookups_before = world->h().lookups.size();
  sim.run_until(sim.now() + 1500);
  EXPECT_GT(world->h().lookups.size(), lookups_before) << "retry re-resolves the group";
  ASSERT_GE(world->h().writes.size(), 6u) << "retry retransmits the write phase";
  EXPECT_EQ(world->h().writes[3].tag, first_tag)
      << "a put's tag is chosen once; retries must not re-tag (linearizability)";
  EXPECT_EQ(world->h().writes[3].value, Value{7});

  world->h().write_ack(world->h().writes[3], Address::node(10));
  world->h().write_ack(world->h().writes[4], Address::node(20));
  step();
  ASSERT_EQ(world->put_responses.size(), 1u);
  EXPECT_TRUE(world->put_responses[0].ok);
}

TEST_F(AbdFixture, StaleAttemptAcksDoNotCountTowardRetryQuorum) {
  world->put(6, 11, Value{3});
  step();
  const auto attempt0_reads = world->h().reads;
  // Let the whole attempt time out (no acks at all), forcing a retry.
  sim.run_until(sim.now() + 1500);
  ASSERT_GE(world->h().reads.size(), 6u);

  // Now deliver TWO stale read acks from attempt 0: they must be ignored.
  world->h().read_ack(attempt0_reads[0], VersionTag{}, false, {}, Address::node(10));
  world->h().read_ack(attempt0_reads[1], VersionTag{}, false, {}, Address::node(20));
  step();
  EXPECT_TRUE(world->h().writes.empty())
      << "stale-attempt acks must not complete the fresh attempt's read phase";

  // Fresh acks complete it.
  world->h().read_ack(world->h().reads[3], VersionTag{}, false, {}, Address::node(10));
  world->h().read_ack(world->h().reads[4], VersionTag{}, false, {}, Address::node(20));
  step();
  EXPECT_EQ(world->h().writes.size(), 3u);
}

TEST_F(AbdFixture, ExhaustedRetriesFailTheOperation) {
  world->h().auto_answer_lookups = false;  // the router never answers
  world->put(7, 12, Value{1});
  // 1 initial + 2 retries, 1000 ms each.
  sim.run_until(sim.now() + 5000);
  ASSERT_EQ(world->put_responses.size(), 1u);
  EXPECT_FALSE(world->put_responses[0].ok);
  EXPECT_EQ(world->h().lookups.size(), 3u);
}

TEST_F(AbdFixture, UnversionedLookupAnswersNeverStartQuorumPhases) {
  // A group resolved without an installed view (view_version 0) is exactly
  // the split-brain window: the coordinator must wait and retry, not run
  // ABD phases against it.
  world->h().view_version = 0;
  world->put(8, 13, Value{2});
  sim.run_until(sim.now() + 5000);
  EXPECT_TRUE(world->h().reads.empty());
  EXPECT_TRUE(world->h().writes.empty());
  ASSERT_EQ(world->put_responses.size(), 1u);
  EXPECT_FALSE(world->put_responses[0].ok);
}

TEST_F(AbdFixture, ReplicaAppliesOnlyNewerTags) {
  auto& h = world->h();
  const Address peer = Address::node(99);
  const Address self = world->self.addr;
  const OpId foreign_op = 0xABC0000;  // never collides with local internal ids

  // The replica serves phases only under an installed view it is a member of.
  h.install_view(self, GroupView{0, 0, 1, {world->self}});
  step();

  // A remote coordinator writes (tag 5) then a stale (tag 3): the replica
  // must keep the newer value, and must ack both writes regardless.
  h.inject_replica_write(peer, self, foreign_op + 1, 77, 1, VersionTag{5, 1}, Value{0x55});
  step();
  h.inject_replica_read(peer, self, foreign_op + 2, 77, 1);
  step();
  h.inject_replica_write(peer, self, foreign_op + 3, 77, 1, VersionTag{3, 9}, Value{0x33});
  step();
  h.inject_replica_read(peer, self, foreign_op + 4, 77, 1);
  step();

  ASSERT_EQ(h.replica_write_acks.size(), 2u) << "replicas ack every write";
  ASSERT_EQ(h.replica_read_acks.size(), 2u);
  EXPECT_EQ(h.replica_read_acks[0].tag, (VersionTag{5, 1}));
  EXPECT_EQ(h.replica_read_acks[0].value, Value{0x55});
  EXPECT_EQ(h.replica_read_acks[1].tag, (VersionTag{5, 1})) << "stale write must be ignored";
  EXPECT_EQ(h.replica_read_acks[1].value, Value{0x55});

  // And a newer tag does overwrite.
  h.inject_replica_write(peer, self, foreign_op + 5, 77, 1, VersionTag{8, 2}, Value{0x88});
  step();
  h.inject_replica_read(peer, self, foreign_op + 6, 77, 1);
  step();
  ASSERT_EQ(h.replica_read_acks.size(), 3u);
  EXPECT_EQ(h.replica_read_acks[2].tag, (VersionTag{8, 2}));
  EXPECT_EQ(h.replica_read_acks[2].value, Value{0x88});
}

// ---- satellite regressions -------------------------------------------------

TEST_F(AbdFixture, MissingKeyReadStormDoesNotGrowStore) {
  // Pre-fix, the replica read path did store_[key] and default-inserted an
  // empty replica per miss: a storm of reads for absent keys grew the store
  // without bound. Reads must answer exists=false without inserting.
  auto& h = world->h();
  const Address peer = Address::node(99);
  const Address self = world->self.addr;
  h.install_view(self, GroupView{0, 0, 1, {world->self}});
  step();

  for (OpId i = 0; i < 64; ++i) {
    h.inject_replica_read(peer, self, 0xBEE0000 + i, /*key=*/5000 + i, /*view=*/1);
  }
  step();
  ASSERT_EQ(h.replica_read_acks.size(), 64u) << "every read is answered";
  for (const auto& ack : h.replica_read_acks) EXPECT_FALSE(ack.exists);

  EXPECT_EQ(world->abd_def().store_size(), 0u) << "reads must not insert";
  world->request_status(1);
  step();
  ASSERT_EQ(world->statuses.size(), 1u);
  EXPECT_EQ(world->statuses[0].fields.at("store_size"), "0")
      << "store growth is observable via the Status surface";
}

TEST_F(AbdFixture, AcksUnderMismatchedViewAreDroppedAndCounted) {
  world->put(10, 22, Value{5});
  step();
  ASSERT_EQ(world->h().reads.size(), 3u);

  // Acks stamped with a different view version than the op's: dropped.
  world->h().read_ack_with_view(world->h().reads[0], /*view=*/2, Address::node(10));
  world->h().read_ack_with_view(world->h().reads[1], /*view=*/2, Address::node(20));
  step();
  EXPECT_TRUE(world->h().writes.empty());
  EXPECT_EQ(world->abd_def().counters().stale_view_acks_dropped, 2u);

  // Matching acks complete the phase as usual.
  world->h().read_ack(world->h().reads[0], VersionTag{}, false, {}, Address::node(10));
  world->h().read_ack(world->h().reads[1], VersionTag{}, false, {}, Address::node(20));
  step();
  EXPECT_EQ(world->h().writes.size(), 3u);
}

}  // namespace
}  // namespace kompics::cats::test
