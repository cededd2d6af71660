// White-box tests of the OneHopRouter: responsibility gating on ring views,
// group construction from successor lists, table learning from samples,
// TTL-based eviction of stale entries, successor-side forwarding (one hop
// with a full table, back toward the key from past it, empty answers when
// no node is closer or the hop budget is spent), the random first hop of
// fresh lookups, and the learned-view cache. A harness plays ring +
// sampling + network.

#include <gtest/gtest.h>

#include <set>

#include "cats/router.hpp"
#include "sim/sim_timer.hpp"
#include "sim/simulation.hpp"

namespace kompics::cats::test {
namespace {

using sim::Simulation;

class Harness : public ComponentDefinition {
 public:
  Harness() {
    subscribe<LookupResponse>(router_, [this](const LookupResponse& r) {
      responses.push_back(r);
    });
    subscribe<RouteLookupMsg>(network_, [this](const RouteLookupMsg& m) {
      forwarded.push_back(m);
    });
    subscribe<LookupResultMsg>(network_, [this](const LookupResultMsg& m) {
      results.push_back(m);
    });
  }

  void view(NodeRef self, bool has_pred, NodeRef pred, std::vector<NodeRef> succs,
            bool sole_member = false) {
    trigger(make_event<RingView>(self, pred, has_pred, std::move(succs), sole_member), ring_);
  }
  void sample(std::vector<NodeRef> nodes) {
    trigger(make_event<NodeSample>(std::move(nodes)), sampling_);
  }
  void lookup(OpId id, RingKey key, bool fresh = false) {
    trigger(make_event<LookupRequest>(id, key, fresh), router_);
  }
  void remote_lookup(Address from, Address to, NodeRef origin, OpId op, RingKey key,
                     std::uint32_t ttl) {
    trigger(make_event<RouteLookupMsg>(from, to, origin, op, key, ttl), network_);
  }
  void inject_result(Address from, Address to, OpId op, RingKey key, GroupView view) {
    trigger(make_event<LookupResultMsg>(from, to, op, key, std::move(view)), network_);
  }
  /// Publish an installed quorum view, as the local ABD's view manager does.
  void publish_view(GroupView view) {
    trigger(make_event<ViewUpdate>(std::move(view)), views_);
  }

  Positive<Router> router_ = require<Router>();
  Negative<Ring> ring_ = provide<Ring>();
  Negative<NodeSampling> sampling_ = provide<NodeSampling>();
  Negative<net::Network> network_ = provide<net::Network>();
  Negative<QuorumViews> views_ = provide<QuorumViews>();

  std::vector<LookupResponse> responses;
  std::vector<RouteLookupMsg> forwarded;
  std::vector<LookupResultMsg> results;
};

NodeRef node(std::uint64_t id) { return NodeRef{id << 48, Address::node(static_cast<std::uint32_t>(id))}; }

class World : public ComponentDefinition {
 public:
  World(sim::SimulatorCore* core, CatsParams params) {
    self = node(50);
    router = create<OneHopRouter>();
    router.control()->trigger(make_event<OneHopRouter::Init>(self, params));
    harness = create<Harness>();
    timer = create<sim::SimTimer>();
    timer.control()->trigger(make_event<sim::SimTimer::Init>(core));
    connect(router.provided<Router>(), harness.required<Router>());
    connect(router.required<Ring>(), harness.provided<Ring>());
    connect(router.required<NodeSampling>(), harness.provided<NodeSampling>());
    connect(router.required<net::Network>(), harness.provided<net::Network>());
    connect(router.required<QuorumViews>(), harness.provided<QuorumViews>());
    connect(router.required<timing::Timer>(), timer.provided<timing::Timer>());
  }
  Harness& h() { return harness.definition_as<Harness>(); }
  OneHopRouter& r() { return router.definition_as<OneHopRouter>(); }
  NodeRef self;
  Component router, harness, timer;
};

struct RouterFixture : ::testing::Test {
  explicit RouterFixture(CatsParams params = CatsParams{}) : sim(Config{}, 3) {
    main = sim.bootstrap<World>(&sim.core(), params);
    sim.run_until(1);
    world = &main.definition_as<World>();
  }
  void step() { sim.run_until(sim.now() + 1); }
  Simulation sim;
  Component main;
  World* world = nullptr;
};

TEST_F(RouterFixture, NotResponsibleBeforeFirstRingView) {
  // Pre-join lookups must never be answered authoritatively: with no table
  // and no successors, the router reports an empty group (caller retries).
  world->h().lookup(1, 123);
  step();
  ASSERT_EQ(world->h().responses.size(), 1u);
  EXPECT_TRUE(world->h().responses[0].group.empty());
}

TEST_F(RouterFixture, AuthoritativeAnswerUsesRingSuccessorList) {
  // Ring view: pred=40, self=50, succs=60,70,80. Keys in (40,50] are ours.
  world->h().view(world->self, true, node(40), {node(60), node(70), node(80)});
  step();
  world->h().lookup(2, (45ull << 48));
  step();
  ASSERT_EQ(world->h().responses.size(), 1u);
  const auto& g = world->h().responses[0].group;
  ASSERT_EQ(g.size(), 3u);
  EXPECT_EQ(g[0].key, world->self.key) << "responsible node heads the group";
  EXPECT_EQ(g[1].key, node(60).key);
  EXPECT_EQ(g[2].key, node(70).key);
  EXPECT_EQ(world->h().responses[0].view_version, 0u)
      << "a ring-successor fallback answer carries no view version";
}

TEST_F(RouterFixture, AuthoritativeAnswerPrefersInstalledView) {
  world->h().view(world->self, true, node(40), {node(60), node(70), node(80)});
  world->h().publish_view(GroupView{node(40).key, node(50).key, 7,
                                    {world->self, node(60), node(70)}});
  step();
  world->h().lookup(2, (45ull << 48));
  step();
  ASSERT_EQ(world->h().responses.size(), 1u);
  EXPECT_EQ(world->h().responses[0].view_version, 7u)
      << "answers are stamped with the installed view's version";
  ASSERT_EQ(world->h().responses[0].group.size(), 3u);
  EXPECT_EQ(world->h().responses[0].group[0].key, world->self.key);
}

TEST_F(RouterFixture, NewerViewSupersedesCachedOlderOne) {
  world->h().view(world->self, true, node(40), {node(60), node(70)});
  world->h().publish_view(GroupView{node(40).key, node(50).key, 7,
                                    {world->self, node(60), node(70)}});
  // A member change to version 8 drops node(70) for node(80).
  world->h().publish_view(GroupView{node(40).key, node(50).key, 8,
                                    {world->self, node(60), node(80)}});
  step();
  world->h().lookup(3, (45ull << 48));
  step();
  ASSERT_EQ(world->h().responses.size(), 1u);
  EXPECT_EQ(world->h().responses[0].view_version, 8u);
  ASSERT_EQ(world->h().responses[0].group.size(), 3u);
  EXPECT_EQ(world->h().responses[0].group[2].key, node(80).key);
}

TEST_F(RouterFixture, LoneRingIsResponsibleForEverything) {
  world->h().view(world->self, false, NodeRef{}, {}, /*sole_member=*/true);
  step();
  world->h().lookup(3, (7ull << 48));
  step();
  ASSERT_EQ(world->h().responses.size(), 1u);
  ASSERT_EQ(world->h().responses[0].group.size(), 1u);
  EXPECT_EQ(world->h().responses[0].group[0].key, world->self.key);
}

TEST_F(RouterFixture, FullTableSendsTheLookupStraightToTheKeysSuccessor) {
  world->h().view(world->self, true, node(40), {node(60)});
  world->h().sample({node(10), node(20), node(30), node(60), node(70)});
  step();
  // Key 25<<48 is not ours. Its successor, node 30, is responsible for it
  // whenever the table is complete: one hop, not a walk through 10 and 20.
  world->h().lookup(4, (25ull << 48));
  step();
  ASSERT_EQ(world->h().forwarded.size(), 1u);
  EXPECT_EQ(world->h().forwarded[0].destination(), node(30).addr);
  EXPECT_EQ(world->h().forwarded[0].op, 4u);
  EXPECT_EQ(world->h().forwarded[0].origin.addr, world->self.addr);
  EXPECT_EQ(world->h().forwarded[0].ttl, OneHopRouter::kMaxHops);
  EXPECT_EQ(world->r().counters().lookups_relayed, 1u);
  EXPECT_EQ(world->r().counters().lookups_forwarded, 1u);

  // A key that is exactly a table entry's goes to that entry.
  world->h().lookup(5, node(20).key);
  step();
  ASSERT_EQ(world->h().forwarded.size(), 2u);
  EXPECT_EQ(world->h().forwarded[1].destination(), node(20).addr);
}

TEST_F(RouterFixture, RingNeighboursStayHopsAfterTheirEntriesExpire) {
  world->h().view(world->self, true, node(40), {node(60), node(70)});
  step();
  // Key 65<<48 is past us; its successor in our ring view is node 70.
  world->h().lookup(5, (65ull << 48));
  step();
  ASSERT_EQ(world->h().forwarded.size(), 1u);
  EXPECT_EQ(world->h().forwarded[0].destination(), node(70).addr);
  // Once the table entries the view filled have expired (and been evicted),
  // the view's successors are still candidates.
  sim.run_until(sim.now() + OneHopRouter::kEntryTtlMs + 1000);
  world->h().lookup(6, (65ull << 48));
  step();
  EXPECT_EQ(world->r().table_size(), 0u);
  ASSERT_EQ(world->h().forwarded.size(), 2u);
  EXPECT_EQ(world->h().forwarded[1].destination(), node(70).addr);
}

TEST_F(RouterFixture, ExpiredEntriesAreNeverHops) {
  world->h().view(world->self, true, node(40), {node(60)});
  world->h().sample({node(20)});
  step();
  EXPECT_GE(world->r().table_size(), 1u);
  // Let every entry pass its TTL in virtual time, then hear from node 10.
  sim.run_until(sim.now() + OneHopRouter::kEntryTtlMs + 1000);
  world->h().sample({node(10)});
  step();
  // An intermediate hop (no eviction pass runs on this path) skips the
  // expired node 20, the key's successor, and takes the next live
  // candidate closer than itself: its ring predecessor, node 40.
  world->h().remote_lookup(node(30).addr, world->self.addr, node(5), 7, (15ull << 48), 8);
  step();
  ASSERT_EQ(world->h().forwarded.size(), 1u);
  EXPECT_EQ(world->h().forwarded[0].destination(), node(40).addr)
      << "expired entries must not be used as hops";
  // A fresh origin lookup's random pick ignores them too: of the entries
  // preceding key 25, only node 10 is live.
  world->h().lookup(8, (25ull << 48), /*fresh=*/true);
  step();
  ASSERT_EQ(world->h().forwarded.size(), 2u);
  EXPECT_EQ(world->h().forwarded[1].destination(), node(10).addr);
}

TEST_F(RouterFixture, RemoteLookupAnsweredDirectlyToOrigin) {
  world->h().view(world->self, true, node(40), {node(60), node(70)});
  step();
  const NodeRef origin = node(5);
  world->h().remote_lookup(node(20).addr, world->self.addr, origin, 77, (45ull << 48), 8);
  step();
  ASSERT_EQ(world->h().results.size(), 1u);
  EXPECT_EQ(world->h().results[0].destination(), origin.addr);
  EXPECT_EQ(world->h().results[0].op, 77u);
  const GroupView& answered = world->h().results[0].view;
  ASSERT_FALSE(answered.members.empty());
  EXPECT_EQ(answered.members[0].key, world->self.key);
  EXPECT_EQ(answered.version, 0u) << "no installed view: ring-successor group";
  EXPECT_EQ(answered.lo, node(40).key) << "the answer spans the responsibility interval";
  EXPECT_EQ(answered.hi, world->self.key);
}

TEST_F(RouterFixture, OrphanedNodeRefusesWholeRingAuthority) {
  // A node that HAD neighbors and lost them all (partition) must not claim
  // the whole ring — that would be split-brain (quorum-of-one writes).
  world->h().view(world->self, true, node(40), {node(60)});
  step();
  world->h().view(world->self, false, NodeRef{}, {}, /*sole_member=*/false);
  step();
  world->h().lookup(42, (45ull << 48));
  step();
  // It may forward to last-known peers (fine) or answer with an empty
  // group; what it must NEVER do is answer authoritatively with itself.
  for (const auto& r : world->h().responses) {
    ASSERT_TRUE(r.group.empty() || r.group[0].addr != world->self.addr)
        << "orphaned node claimed whole-ring authority (split-brain)";
  }
}

TEST_F(RouterFixture, SpentTtlAnswersTheOriginEmpty) {
  world->h().view(world->self, true, node(40), {node(60)});
  step();
  world->h().remote_lookup(node(20).addr, world->self.addr, node(5), 88, (65ull << 48), 0);
  step();
  EXPECT_TRUE(world->h().forwarded.empty()) << "ttl=0 must not be forwarded";
  ASSERT_EQ(world->h().results.size(), 1u) << "the origin is told at once";
  EXPECT_EQ(world->h().results[0].destination(), node(5).addr);
  EXPECT_EQ(world->h().results[0].op, 88u);
  EXPECT_TRUE(world->h().results[0].view.members.empty());
  EXPECT_EQ(world->h().results[0].view.version, 0u);
  EXPECT_EQ(world->r().counters().lookups_unroutable, 1u);
}

TEST_F(RouterFixture, ANodePastTheKeyForwardsBackTowardIt) {
  // We own (40, 50]. Keys 35 and 15 lie behind our predecessor: the next
  // hop must be strictly closer to the key than we are, going clockwise from
  // it, so it moves back toward the key and never on to 60 or 70.
  world->h().view(world->self, true, node(40), {node(60), node(70)});
  world->h().sample({node(10), node(20), node(60), node(70)});
  step();
  world->h().remote_lookup(node(5).addr, world->self.addr, node(5), 1, (35ull << 48), 8);
  world->h().remote_lookup(node(5).addr, world->self.addr, node(5), 2, (15ull << 48), 8);
  step();
  ASSERT_EQ(world->h().forwarded.size(), 2u);
  EXPECT_EQ(world->h().forwarded[0].destination(), node(40).addr);
  EXPECT_EQ(world->h().forwarded[0].ttl, 7u);
  EXPECT_EQ(world->h().forwarded[1].destination(), node(20).addr);
  for (const auto& m : world->h().forwarded) {
    const NodeRef hop = m.destination() == node(40).addr ? node(40) : node(20);
    EXPECT_LT(ring_distance(m.key, hop.key), ring_distance(m.key, world->self.key));
  }
  EXPECT_TRUE(world->h().results.empty());
}

TEST_F(RouterFixture, NoPredecessorAndNothingCloserAnswersTheOriginEmpty) {
  // The last joiner: it has successors but has not yet been told its
  // predecessor, so it is responsible for nothing. Key 45 is closer to it
  // than to any node it knows, so it answers instead of bouncing the lookup
  // between itself and its successors until the TTL runs out.
  world->h().view(world->self, false, NodeRef{}, {node(60), node(70)});
  step();
  world->h().remote_lookup(node(30).addr, world->self.addr, node(5), 9, (45ull << 48), 8);
  step();
  EXPECT_TRUE(world->h().forwarded.empty());
  ASSERT_EQ(world->h().results.size(), 1u);
  EXPECT_EQ(world->h().results[0].destination(), node(5).addr);
  EXPECT_TRUE(world->h().results[0].view.members.empty());
  // As the origin, it answers its own client port empty.
  world->h().lookup(10, (45ull << 48));
  step();
  EXPECT_TRUE(world->h().forwarded.empty());
  ASSERT_EQ(world->h().responses.size(), 1u);
  EXPECT_TRUE(world->h().responses[0].group.empty());
  EXPECT_EQ(world->r().counters().lookups_unroutable, 2u);
}

TEST_F(RouterFixture, FreshOriginLookupPicksAmongTheThreeClosestPrecedingEntries) {
  world->h().view(world->self, true, node(40), {node(60)});
  world->h().sample({node(10), node(15), node(20), node(30), node(35)});
  step();
  // Key 25: the successor-side hop is node 30; a fresh (retry) lookup
  // instead leaves through one of 20, 15 and 10 at random.
  world->h().lookup(1, (25ull << 48));
  step();
  ASSERT_EQ(world->h().forwarded.size(), 1u);
  EXPECT_EQ(world->h().forwarded[0].destination(), node(30).addr);
  std::set<std::uint32_t> picked;
  for (OpId op = 2; op < 62; ++op) {
    world->h().lookup(op, (25ull << 48), /*fresh=*/true);
    step();
    ASSERT_EQ(world->h().forwarded.size(), static_cast<std::size_t>(op));
    const Address dest = world->h().forwarded.back().destination();
    ASSERT_TRUE(dest == node(20).addr || dest == node(15).addr || dest == node(10).addr)
        << "a fresh hop is one of the three closest entries preceding the key";
    picked.insert(dest.host);
  }
  EXPECT_EQ(picked.size(), 3u) << "60 fresh lookups spread over all three";
}

TEST_F(RouterFixture, LookupResultFeedsTableAndAnswersPort) {
  world->h().view(world->self, true, node(40), {node(60)});
  step();
  // Start a relayed lookup: the relay frame parks awaiting the correlated
  // LookupResultMsg (op 99), having forwarded along the ring.
  world->h().lookup(99, (25ull << 48));
  step();
  ASSERT_EQ(world->h().forwarded.size(), 1u);
  const std::size_t before = world->r().table_size();
  world->h().inject_result(node(30).addr, world->self.addr, 99, (25ull << 48),
                           GroupView{node(20).key, node(30).key, 0, {node(30), node(35)}});
  step();
  ASSERT_EQ(world->h().responses.size(), 1u);
  EXPECT_EQ(world->h().responses[0].id, 99u);
  EXPECT_GT(world->r().table_size(), before) << "group members are learned";
}

TEST_F(RouterFixture, UnsolicitedLookupResultIsIgnored) {
  // A result with no matching in-flight relay (e.g. a duplicate delivered
  // after the relay frame timed out and unwound) must not reach the client
  // port or poison the table.
  world->h().view(world->self, true, node(40), {node(60)});
  step();
  const std::size_t before = world->r().table_size();
  world->h().inject_result(node(30).addr, world->self.addr, 123, (25ull << 48),
                           GroupView{node(20).key, node(30).key, 4, {node(30), node(35)}});
  step();
  EXPECT_TRUE(world->h().responses.empty());
  EXPECT_EQ(world->r().table_size(), before);
  EXPECT_EQ(world->r().learned_size(), 0u) << "nor fill the view cache";
}

// ---- learned-view cache ----------------------------------------------------

// Keys (in units of 1<<48): this node is 50 and owns (40, 50]. The remote
// range used below is (20, 30], headed by node 30.
constexpr RingKey kInRange = 25ull << 48;
constexpr RingKey kAlsoInRange = 22ull << 48;
constexpr RingKey kOutOfRange = 35ull << 48;

GroupView remote_view(std::uint64_t version) {
  return GroupView{node(20).key, node(30).key, version, {node(30), node(35), node(38)}};
}

/// Resolves `key` through one relayed lookup, answered with `view`.
void relay_one(RouterFixture& f, OpId op, RingKey key, GroupView view) {
  auto& h = f.world->h();
  const std::size_t forwarded = h.forwarded.size();
  h.lookup(op, key);
  f.step();
  ASSERT_EQ(h.forwarded.size(), forwarded + 1) << "a cache miss is routed";
  const Address head = view.members.front().addr;
  h.inject_result(head, f.world->self.addr, op, key, std::move(view));
  f.step();
}

struct ViewCacheFixture : RouterFixture {
  ViewCacheFixture() {
    world->h().view(world->self, true, node(40), {node(60), node(70)});
    step();
  }
};

TEST_F(ViewCacheFixture, RelayedVersionedAnswerFillsTheCache) {
  relay_one(*this, 1, kInRange, remote_view(5));
  auto& h = world->h();
  ASSERT_EQ(h.responses.size(), 1u);
  EXPECT_EQ(h.responses[0].view_version, 5u);
  ASSERT_EQ(h.responses[0].group.size(), 3u);
  EXPECT_EQ(h.responses[0].group[0].key, node(30).key);
  EXPECT_EQ(world->r().learned_size(), 1u);
  EXPECT_TRUE(world->r().invariant_violations().empty());
}

TEST_F(ViewCacheFixture, SameRangeIsAnsweredLocallyOtherRangesAreRouted) {
  relay_one(*this, 1, kInRange, remote_view(5));
  auto& h = world->h();
  const std::size_t forwarded = h.forwarded.size();
  h.lookup(2, kAlsoInRange);
  step();
  EXPECT_EQ(h.forwarded.size(), forwarded) << "a cached range needs no RouteLookupMsg";
  ASSERT_EQ(h.responses.size(), 2u);
  EXPECT_EQ(h.responses[1].id, 2u);
  EXPECT_EQ(h.responses[1].key, kAlsoInRange);
  EXPECT_EQ(h.responses[1].view_version, 5u);
  EXPECT_EQ(h.responses[1].group[0].key, node(30).key);

  h.lookup(3, kOutOfRange);
  step();
  EXPECT_EQ(h.forwarded.size(), forwarded + 1) << "a key outside the range is still routed";
  EXPECT_EQ(h.responses.size(), 2u);
}

TEST_F(ViewCacheFixture, FreshLookupEvictsTheEntryAndRoutes) {
  relay_one(*this, 1, kInRange, remote_view(5));
  auto& h = world->h();
  const std::size_t forwarded = h.forwarded.size();
  h.lookup(2, kAlsoInRange, /*fresh=*/true);
  step();
  EXPECT_EQ(h.forwarded.size(), forwarded + 1) << "fresh bypasses the cache";
  EXPECT_EQ(h.responses.size(), 1u) << "not answered from the cache";
  EXPECT_EQ(world->r().learned_size(), 0u) << "fresh evicts the covering entry";
  // The fresh answer refills the entry with the newer view.
  h.inject_result(node(30).addr, world->self.addr, 2, kAlsoInRange, remote_view(6));
  step();
  ASSERT_EQ(h.responses.size(), 2u);
  EXPECT_EQ(h.responses[1].view_version, 6u);
  h.lookup(3, kInRange);
  step();
  ASSERT_EQ(h.responses.size(), 3u);
  EXPECT_EQ(h.responses[2].view_version, 6u);
}

TEST_F(ViewCacheFixture, LowerVersionNeverReplacesAnOverlappingHigherOne) {
  relay_one(*this, 1, kInRange, remote_view(5));
  // A delayed answer for a key outside the cached range carries an older
  // parent view that overlaps it: relayed to its op, but not cached.
  const GroupView parent{node(10).key, node(35).key, 3, {node(35), node(38), node(40)}};
  relay_one(*this, 2, kOutOfRange, parent);
  auto& h = world->h();
  ASSERT_EQ(h.responses.size(), 2u);
  EXPECT_EQ(h.responses[1].view_version, 3u);
  EXPECT_EQ(world->r().learned_size(), 1u);
  h.lookup(3, kAlsoInRange);
  step();
  ASSERT_EQ(h.responses.size(), 3u);
  EXPECT_EQ(h.responses[2].view_version, 5u) << "the higher version still answers";
  EXPECT_TRUE(world->r().invariant_violations().empty());

  // The other way round, a newer overlapping view replaces the entry.
  const GroupView merged{node(10).key, node(35).key, 9, {node(35), node(38), node(40)}};
  relay_one(*this, 4, kOutOfRange, merged);
  EXPECT_EQ(world->r().learned_size(), 1u);
  h.lookup(5, kAlsoInRange);
  step();
  ASSERT_EQ(h.responses.size(), 5u);
  EXPECT_EQ(h.responses[4].view_version, 9u);
  EXPECT_TRUE(world->r().invariant_violations().empty());
}

TEST_F(ViewCacheFixture, EntriesExpireAfterTheTtl) {
  relay_one(*this, 1, kInRange, remote_view(5));
  sim.run_until(sim.now() + OneHopRouter::kEntryTtlMs + 1000);
  auto& h = world->h();
  const std::size_t forwarded = h.forwarded.size();
  h.lookup(2, kAlsoInRange);
  step();
  EXPECT_EQ(h.forwarded.size(), forwarded + 1) << "an expired entry is not used";
  EXPECT_EQ(h.responses.size(), 1u);
  EXPECT_EQ(world->r().learned_size(), 0u);
}

TEST_F(ViewCacheFixture, UnversionedAnswersAreNotCached) {
  relay_one(*this, 1, kInRange, remote_view(0));
  auto& h = world->h();
  ASSERT_EQ(h.responses.size(), 1u) << "still relayed to the asking op";
  EXPECT_EQ(h.responses[0].view_version, 0u);
  EXPECT_EQ(world->r().learned_size(), 0u);
  const std::size_t forwarded = h.forwarded.size();
  h.lookup(2, kAlsoInRange);
  step();
  EXPECT_EQ(h.forwarded.size(), forwarded + 1);
}

struct StaleViewBugFixture : RouterFixture {
  static CatsParams buggy() {
    CatsParams p;
    p.inject_stale_view_bug = true;
    return p;
  }
  StaleViewBugFixture() : RouterFixture(buggy()) {
    world->h().view(world->self, true, node(40), {node(60), node(70)});
    step();
  }
};

TEST_F(StaleViewBugFixture, BugEmulationBypassesTheCache) {
  relay_one(*this, 1, kInRange, remote_view(5));
  auto& h = world->h();
  ASSERT_EQ(h.responses.size(), 1u);
  EXPECT_EQ(world->r().learned_size(), 0u);
  const std::size_t forwarded = h.forwarded.size();
  h.lookup(2, kAlsoInRange);
  step();
  EXPECT_EQ(h.forwarded.size(), forwarded + 1) << "every lookup is routed";
}

}  // namespace
}  // namespace kompics::cats::test
