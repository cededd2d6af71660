// Failure injection: network partitions (the "partitionable" part of §4's
// environment). CATS must fail cleanly — not hang and not lie — while
// partitioned, and recover after healing, with the overall history still
// linearizable.

#include <gtest/gtest.h>

#include "cats/abd.hpp"
#include "cats/cats_simulator.hpp"
#include "cats/linearizability.hpp"
#include "cats/router.hpp"
#include "sim/simulation.hpp"

namespace kompics::cats::test {
namespace {

using sim::LinkModel;
using sim::SimNetworkHub;
using sim::SimNetworkHubPtr;
using sim::Simulation;

class SimMain : public ComponentDefinition {
 public:
  SimMain(sim::SimulatorCore* core, SimNetworkHubPtr hub, CatsParams params) {
    simulator = create<CatsSimulator>(core, hub, params);
  }
  Component simulator;
};

struct PartitionWorld {
  PartitionWorld() : simulation(Config{}, 99) {
    hub = std::make_shared<SimNetworkHub>(&simulation.core(), 4, LinkModel{1, 5, 0.0, false});
    CatsParams params;
    params.op_timeout_ms = 600;
    params.op_max_retries = 2;
    params.bootstrap_refresh_ms = 2000;  // fast partition healing for the test
    main = simulation.bootstrap<SimMain>(&simulation.core(), hub, params);
    simulation.run_until(1);
    cats = &main.definition_as<SimMain>().simulator.definition_as<CatsSimulator>();
    for (std::uint64_t id : {10, 20, 30, 40, 50}) {
      cats->join(id);
      simulation.run_until(simulation.now() + 300);
    }
    simulation.run_until(simulation.now() + 8000);
  }
  void settle(DurationMs t) { simulation.run_until(simulation.now() + t); }
  // Hosts as the hub sees them: node id + 2 (CatsSimulator's addressing),
  // host 1 is the bootstrap server.
  static std::uint32_t host(std::uint64_t id) { return static_cast<std::uint32_t>(id) + 2; }

  Simulation simulation;
  SimNetworkHubPtr hub;
  Component main;
  CatsSimulator* cats = nullptr;
};

TEST(CatsPartition, IsolatedCoordinatorFailsCleanlyAndRecovers) {
  PartitionWorld w;
  ASSERT_EQ(w.cats->ready_count(), 5u);
  const RingKey k = hash_to_ring("pk");
  w.cats->put(10, k, Value{1});
  w.settle(2000);
  ASSERT_TRUE(w.cats->history()[0].ok);

  // Cut node 30 off from everyone (including the bootstrap server).
  w.hub->partition({{PartitionWorld::host(30)},
                    {1, PartitionWorld::host(10), PartitionWorld::host(20),
                     PartitionWorld::host(40), PartitionWorld::host(50)}});
  w.cats->put(30, k, Value{2});  // coordinated by the isolated node
  w.settle(5000);                // > timeout * (retries + 1)
  const auto& h = w.cats->history();
  ASSERT_EQ(h.size(), 2u);
  EXPECT_GE(h[1].responded, 0) << "the op must terminate, not hang";
  EXPECT_FALSE(h[1].ok) << "an isolated coordinator cannot reach a quorum";

  // Majority side keeps serving meanwhile.
  w.cats->get(10, k);
  w.settle(2000);
  ASSERT_EQ(w.cats->history().size(), 3u);
  EXPECT_TRUE(w.cats->history()[2].ok);
  EXPECT_EQ(w.cats->history()[2].got_value, Value{1})
      << "the partitioned put must not be visible (it never reached quorum)";

  // Heal; the isolated node re-bootstraps, re-seeds gossip, and merges back.
  w.hub->heal();
  w.settle(15000);
  w.cats->put(30, k, Value{3});
  w.settle(3000);
  w.cats->get(20, k);
  w.settle(2000);
  const auto& h2 = w.cats->history();
  ASSERT_EQ(h2.size(), 5u);
  EXPECT_TRUE(h2[3].ok) << "after healing, the node serves again";
  ASSERT_TRUE(h2[4].ok);
  EXPECT_EQ(h2[4].got_value, Value{3});

  const auto lin = check_history(h2);
  EXPECT_TRUE(lin.linearizable) << lin.explanation;
}

TEST(CatsPartition, PartialPartitionCannotCommitOnBothSides) {
  // The consistent-quorum regression test. Pre-fix, ABD quorums were drawn
  // from whatever successor list each side's ring converged to, so a partial
  // partition let BOTH sides assemble a "quorum" for the same key and commit
  // divergent writes. With versioned views, the key's replica group {10,20,30}
  // splits so that only the {10,20} side retains a majority of the installed
  // view; the {30,40,50} side can never fence that view's majority, so every
  // write it coordinates must fail — there is one view lineage, never two.
  PartitionWorld w;
  const RingKey k = hash_to_ring("qq");
  int vc = 0;
  w.cats->put(10, k, Value{static_cast<std::uint8_t>(++vc)});
  w.settle(2000);
  ASSERT_TRUE(w.cats->history()[0].ok);

  // Partition 2 vs 3 nodes. Let each side's ring converge on itself first —
  // only then does the minority side answer lookups from its own successor
  // list, which is the divergence window the view gate must close.
  w.hub->partition({{PartitionWorld::host(10), PartitionWorld::host(20)},
                    {1, PartitionWorld::host(30), PartitionWorld::host(40),
                     PartitionWorld::host(50)}});
  w.settle(6000);
  w.cats->put(10, k, Value{static_cast<std::uint8_t>(++vc)});
  w.cats->put(40, k, Value{static_cast<std::uint8_t>(++vc)});
  w.cats->get(20, k);
  w.cats->get(50, k);
  w.settle(6000);
  w.hub->heal();
  w.settle(20000);  // re-bootstrap refresh + gossip + stabilization merge
  w.cats->put(30, k, Value{static_cast<std::uint8_t>(++vc)});
  w.settle(3000);
  w.cats->get(10, k);
  w.cats->get(50, k);
  w.settle(5000);

  const auto& h = w.cats->history();
  for (const auto& rec : h) {
    EXPECT_GE(rec.responded, 0) << "operations must terminate";
  }
  // h[1] = put@10 (view-majority side), h[2] = put@40 (minority side). The
  // minority side holds only one member of the installed view, cannot fence
  // its majority, and therefore must NOT commit. Pre-fix this put succeeded
  // against the minority ring's own successor list — the divergent commit.
  EXPECT_FALSE(h[2].ok)
      << "a side without a majority of the installed view committed a write";
  // Post-merge: the healed ring serves again and agrees on one value.
  const auto& read_a = h[h.size() - 2];
  const auto& read_b = h[h.size() - 1];
  ASSERT_TRUE(read_a.ok && read_b.ok) << "post-merge reads must succeed";
  EXPECT_EQ(read_a.got_value, read_b.got_value)
      << "post-merge reads from different coordinators must agree";
  EXPECT_EQ(read_a.got_value, Value{static_cast<std::uint8_t>(vc)})
      << "the post-merge write is the visible value";

  // Zero commits under stale views: the per-node commit counters must match
  // the history exactly. An ack accepted under a mismatched view or counted
  // twice from one replica would commit an operation the (linearizable)
  // history can't account for and break this tally.
  std::uint64_t puts_ok = 0, gets_ok = 0;
  for (std::uint64_t id : {10, 20, 30, 40, 50}) {
    const auto& c = w.cats->node(id).abd.definition_as<ConsistentABD>().counters();
    puts_ok += c.puts_ok;
    gets_ok += c.gets_ok;
  }
  std::uint64_t hist_puts_ok = 0, hist_gets_ok = 0;
  for (const auto& rec : h) {
    if (!rec.ok) continue;
    (rec.kind == OpRecord::Kind::kPut ? hist_puts_ok : hist_gets_ok) += 1;
  }
  EXPECT_EQ(puts_ok, hist_puts_ok);
  EXPECT_EQ(gets_ok, hist_gets_ok);
  const auto lin = check_history(h);
  EXPECT_TRUE(lin.linearizable) << lin.explanation;
}

TEST(CatsPartition, WarmViewCachesRetryFreshAcrossAMemberReplacement) {
  // Coordinators outside the key's replica group answer its lookups from
  // their learned-view caches. One member of the group is killed and then
  // replaced (a view change) while they keep issuing puts and gets. Cached
  // views go stale; replicas nack them, and the retry re-routes fresh.
  PartitionWorld w;
  const RingKey k = hash_to_ring("cached");
  const std::vector<std::uint64_t> ids{10, 20, 30, 40, 50};
  GroupView before;
  for (std::uint64_t id : ids) {
    const auto v = w.cats->node(id).abd.definition_as<ConsistentABD>().view_covering(k);
    if (v && v->version > before.version) before = *v;
  }
  ASSERT_EQ(before.members.size(), 3u);
  auto id_of = [](const NodeRef& n) { return n.key >> 48; };  // node_ring_key inverse
  std::vector<std::uint64_t> coordinators;
  for (std::uint64_t id : ids) {
    if (!before.has_member(w.cats->node(id).self().addr)) coordinators.push_back(id);
  }
  ASSERT_EQ(coordinators.size(), 2u);
  const std::uint64_t victim = id_of(before.members.back());

  std::uint16_t vc = 0;
  auto issue = [&](int rounds) {
    for (int r = 0; r < rounds; ++r) {
      for (std::uint64_t c : coordinators) {
        if (r % 4 == 0) {
          ++vc;
          w.cats->put(c, k,
                      Value{static_cast<std::uint8_t>(vc), static_cast<std::uint8_t>(vc >> 8)});
        } else {
          w.cats->get(c, k);
        }
      }
      w.settle(150);
    }
  };
  issue(16);  // warm the caches
  std::uint64_t cached_before = 0;
  for (std::uint64_t c : coordinators) {
    const auto& rc = w.cats->node(c).router.definition_as<OneHopRouter>().counters();
    cached_before += rc.lookups_cached;
  }
  EXPECT_GT(cached_before, 0u) << "warm coordinators answer lookups from their caches";

  w.cats->fail(victim);
  issue(100);  // ~15 s: failure detection, view change, stale cached views
  w.settle(3000);
  const std::size_t settled = w.cats->history().size();
  issue(4);
  w.settle(3000);

  GroupView after;
  for (std::uint64_t id : ids) {
    if (!w.cats->is_alive(id)) continue;
    const auto v = w.cats->node(id).abd.definition_as<ConsistentABD>().view_covering(k);
    if (v && v->version > after.version) after = *v;
  }
  EXPECT_GT(after.version, before.version) << "the view changed";
  for (const auto& m : after.members) EXPECT_NE(id_of(m), victim) << "the victim was replaced";

  std::uint64_t cached = 0, evicted = 0, stale_acks = 0;
  for (std::uint64_t id : ids) {
    if (!w.cats->is_alive(id)) continue;
    const auto& rc = w.cats->node(id).router.definition_as<OneHopRouter>().counters();
    const auto& ac = w.cats->node(id).abd.definition_as<ConsistentABD>().counters();
    cached += rc.lookups_cached;
    evicted += rc.fresh_evictions;
    stale_acks += ac.stale_view_acks_dropped;
  }
  EXPECT_GT(cached, cached_before) << "the caches keep answering after the change";
  EXPECT_GT(evicted, 0u) << "a retry bypassed a stale cached view";
  EXPECT_EQ(stale_acks, 0u);
  EXPECT_TRUE(w.cats->invariant_violations().empty());

  const auto& h = w.cats->history();
  for (std::size_t i = 0; i < h.size(); ++i) {
    EXPECT_GE(h[i].responded, 0) << "operations must terminate";
    if (i >= settled) {
      EXPECT_TRUE(h[i].ok) << "ops after the view change succeed";
    }
  }
  const auto lin = check_history(h);
  EXPECT_TRUE(lin.linearizable) << lin.explanation;
}

TEST(CatsPartition, ColdCoordinatorsReachTheGroupInOneHopAndRetryFreshPastAFailure) {
  // A converged 32-node ring: every router's table is (nearly) complete, so
  // a coordinator with a cold view cache sends its lookup straight to the
  // key's successor. Then a member fails; lookups that still route to it
  // are lost, and the operations' fresh retries carry them past it.
  Simulation simulation(Config{}, 7);
  auto hub = std::make_shared<SimNetworkHub>(&simulation.core(), 5, LinkModel{1, 5, 0.0, false});
  CatsParams params;
  // 13 attempts of 3 s outlast failure detection and the view change.
  params.op_max_retries = 12;
  Component main = simulation.bootstrap<SimMain>(&simulation.core(), hub, params);
  simulation.run_until(1);
  auto* cats = &main.definition_as<SimMain>().simulator.definition_as<CatsSimulator>();
  auto settle = [&](DurationMs t) { simulation.run_until(simulation.now() + t); };
  std::vector<std::uint64_t> ids;
  for (std::uint64_t i = 1; i <= 32; ++i) ids.push_back(i * 1000);
  for (std::uint64_t id : ids) {
    cats->join(id);
    settle(200);
  }
  settle(20000);
  ASSERT_EQ(cats->ready_count(), ids.size());

  struct Totals {
    std::uint64_t forwarded = 0, relayed = 0, cached = 0, retries = 0;
  };
  auto totals = [&] {
    Totals t;
    for (std::uint64_t id : ids) {
      if (!cats->is_alive(id)) continue;
      const auto& rc = cats->node(id).router.definition_as<OneHopRouter>().counters();
      t.forwarded += rc.lookups_forwarded;
      t.relayed += rc.lookups_relayed;
      t.cached += rc.lookups_cached;
      t.retries += cats->node(id).abd.definition_as<ConsistentABD>().counters().retries;
    }
    return t;
  };

  // Cold caches: no coordinator has issued an operation yet. Each of 64 keys
  // spread over the ring is written by one coordinator and read by another.
  const Totals cold0 = totals();
  EXPECT_EQ(cold0.relayed, 0u);
  std::vector<RingKey> keys;
  for (int i = 0; i < 64; ++i) keys.push_back(hash_to_ring("cold" + std::to_string(i)));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    cats->put(ids[i % ids.size()], keys[i], Value{static_cast<std::uint8_t>(i)});
    settle(20);
  }
  settle(2000);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    cats->get(ids[(i + 7) % ids.size()], keys[i]);
    settle(20);
  }
  settle(2000);
  const Totals cold1 = totals();
  const std::uint64_t relayed = cold1.relayed - cold0.relayed;
  const std::uint64_t forwarded = cold1.forwarded - cold0.forwarded;
  ASSERT_GT(relayed, 64u) << "most operations of a cold coordinator are routed";
  EXPECT_LE(static_cast<double>(forwarded), 1.2 * static_cast<double>(relayed))
      << forwarded << " forwards for " << relayed << " relayed lookups";
  const std::size_t cold_ops = cats->history().size();
  for (const auto& rec : cats->history()) EXPECT_TRUE(rec.ok) << "a healthy ring serves every op";

  // Fail the node responsible for (15000, 16000] and keep operating on keys
  // it held, from every other node, warm caches and cold ones alike.
  const std::uint64_t victim = 16000;
  cats->fail(victim);
  std::vector<std::uint64_t> coordinators;
  for (std::uint64_t id : ids) {
    if (id != victim) coordinators.push_back(id);
  }
  for (int round = 0; round < 20; ++round) {
    for (std::size_t j = 0; j < 4; ++j) {
      const std::uint64_t c = coordinators[(round * 4 + j) % coordinators.size()];
      const RingKey k = CatsSimulator::node_ring_key(15000 + 200 * (j + 1));
      if (round % 3 == 0) {
        cats->put(c, k, Value{static_cast<std::uint8_t>(round), static_cast<std::uint8_t>(j)});
      } else {
        cats->get(c, k);
      }
    }
    settle(500);
  }
  settle(45000);  // > 13 attempts of 3 s
  const Totals after = totals();
  EXPECT_GT(after.retries, cold1.retries) << "lookups to the failed node had to retry";

  const auto& h = cats->history();
  ASSERT_EQ(h.size(), cold_ops + 80);
  for (std::size_t i = cold_ops; i < h.size(); ++i) {
    EXPECT_TRUE(h[i].ok) << "op " << i << " on node " << h[i].node_id
                         << " failed after the member failure";
  }
  std::uint64_t stale_acks = 0;
  for (std::uint64_t id : coordinators) {
    stale_acks +=
        cats->node(id).abd.definition_as<ConsistentABD>().counters().stale_view_acks_dropped;
  }
  EXPECT_EQ(stale_acks, 0u);
  EXPECT_TRUE(cats->invariant_violations().empty());
  const auto lin = check_history(h);
  EXPECT_TRUE(lin.linearizable) << lin.explanation;
}

}  // namespace
}  // namespace kompics::cats::test
