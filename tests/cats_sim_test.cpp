// Whole-system CATS tests in deterministic simulation (paper §4.2): ring
// convergence, linearizable put/get under message jitter and loss, behavior
// under churn and partitions, and deterministic replay. These are the
// "integration tests implemented as unit tests running the tested subsystem
// in simulation mode" of paper §3.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <set>

#include "cats/abd.hpp"
#include "cats/cats_simulator.hpp"
#include "cats/linearizability.hpp"
#include "sim/scenario.hpp"
#include "sim/simulation.hpp"

namespace kompics::cats::test {
namespace {

using sim::Dist;
using sim::LinkModel;
using sim::Scenario;
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

struct World {
  explicit World(std::uint64_t seed = 1, LinkModel model = LinkModel{1, 5, 0.0, false},
                 CatsParams params = CatsParams{})
      : simulation(Config{}, seed) {
    hub = std::make_shared<SimNetworkHub>(&simulation.core(), seed ^ 0xc0ffee, model);
    main = simulation.bootstrap<SimMain>(&simulation.core(), hub, params);
    // run_until, not run(): periodic timers keep the event queue non-empty
    // forever, so whole-system simulations are driven by virtual deadlines.
    simulation.run_until(1);
    cats = &main.definition_as<SimMain>().simulator.definition_as<CatsSimulator>();
  }

  /// Joins nodes one at a time, giving each a slice of virtual time.
  void boot(const std::vector<std::uint64_t>& ids, DurationMs spacing = 300) {
    for (auto id : ids) {
      cats->join(id);
      simulation.run_until(simulation.now() + spacing);
    }
  }

  void settle(DurationMs t) { simulation.run_until(simulation.now() + t); }

  Simulation simulation;
  SimNetworkHubPtr hub;
  Component main;
  CatsSimulator* cats = nullptr;
};

Value val(const std::string& s) { return Value(s.begin(), s.end()); }

// ---- ring convergence --------------------------------------------------------

TEST(CatsRingSim, NodesJoinAndConverge) {
  World w;
  w.boot({10, 20, 30, 40, 50});
  w.settle(8000);
  EXPECT_EQ(w.cats->alive_count(), 5u);
  EXPECT_EQ(w.cats->ready_count(), 5u);

  // Every node's first successor must be the next node clockwise.
  std::vector<std::uint64_t> ids = w.cats->alive_ids();
  std::sort(ids.begin(), ids.end());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto& ring = w.cats->node(ids[i]).ring.definition_as<CatsRing>();
    ASSERT_FALSE(ring.successors().empty()) << "node " << ids[i];
    const RingKey expect = CatsSimulator::node_ring_key(ids[(i + 1) % ids.size()]);
    EXPECT_EQ(ring.successors()[0].key, expect) << "node " << ids[i];
    ASSERT_TRUE(ring.has_predecessor()) << "node " << ids[i];
    const RingKey expect_pred =
        CatsSimulator::node_ring_key(ids[(i + ids.size() - 1) % ids.size()]);
    EXPECT_EQ(ring.predecessor().key, expect_pred) << "node " << ids[i];
  }
}

TEST(CatsRingSim, LateJoinerIsAdopted) {
  World w;
  w.boot({100, 200, 300});
  w.settle(6000);
  EXPECT_EQ(w.cats->ready_count(), 3u);

  w.cats->join(250);  // lands between 200 and 300
  w.settle(8000);
  EXPECT_EQ(w.cats->ready_count(), 4u);
  const auto& ring200 = w.cats->node(200).ring.definition_as<CatsRing>();
  EXPECT_EQ(ring200.successors()[0].key, CatsSimulator::node_ring_key(250));
  const auto& ring250 = w.cats->node(250).ring.definition_as<CatsRing>();
  EXPECT_EQ(ring250.successors()[0].key, CatsSimulator::node_ring_key(300));
}

TEST(CatsRingSim, LateJoinerIsReadyBeforeItsFirstJoinRetry) {
  // A join's first attempt completes: the FindSuccessor the joiner sends its
  // first bootstrap contact is answered before the JoinRetry timer would
  // send a second one (stabilization_period_ms / 2 + 1 ms after JoinRing,
  // which itself waits for the bootstrap server's answer).
  World w;
  w.boot({100, 200, 300});
  w.settle(6000);
  ASSERT_EQ(w.cats->ready_count(), 3u);

  w.cats->join(250);
  w.settle(CatsParams{}.stabilization_period_ms / 2 + 1);
  EXPECT_TRUE(w.cats->node(250).ring.definition_as<CatsRing>().ready());
  EXPECT_EQ(w.cats->ready_count(), 4u);
}

TEST(CatsRingSim, FailureIsDetectedAndRingHeals) {
  World w;
  w.boot({1, 2, 3, 4, 5});
  w.settle(8000);
  ASSERT_EQ(w.cats->ready_count(), 5u);

  w.cats->fail(3);
  w.settle(15000);  // FD timeout + stabilization
  EXPECT_EQ(w.cats->alive_count(), 4u);
  const auto& ring2 = w.cats->node(2).ring.definition_as<CatsRing>();
  EXPECT_EQ(ring2.successors()[0].key, CatsSimulator::node_ring_key(4))
      << "node 2 should route around the failed node 3";
}

// ---- put / get ------------------------------------------------------------------

TEST(CatsStoreSim, PutThenGetFromAnotherNode) {
  World w;
  w.boot({10, 20, 30, 40, 50});
  w.settle(8000);

  w.cats->put(10, hash_to_ring("alpha"), val("v1"));
  w.settle(2000);
  w.cats->get(40, hash_to_ring("alpha"));
  w.settle(2000);

  const auto& h = w.cats->history();
  ASSERT_EQ(h.size(), 2u);
  EXPECT_TRUE(h[0].ok) << "put should complete";
  ASSERT_TRUE(h[1].ok) << "get should complete";
  EXPECT_TRUE(h[1].found);
  EXPECT_EQ(h[1].got_value, val("v1"));
}

TEST(CatsStoreSim, GetOfMissingKeyReturnsNotFound) {
  World w;
  w.boot({10, 20, 30});
  w.settle(8000);
  w.cats->get(20, hash_to_ring("never-written"));
  w.settle(2000);
  const auto& h = w.cats->history();
  ASSERT_EQ(h.size(), 1u);
  EXPECT_TRUE(h[0].ok);
  EXPECT_FALSE(h[0].found);
}

TEST(CatsStoreSim, OverwriteReturnsLatestValue) {
  World w;
  w.boot({10, 20, 30, 40, 50});
  w.settle(8000);
  const RingKey k = hash_to_ring("counter");
  for (int i = 1; i <= 5; ++i) {
    w.cats->put(10 * (1 + (i % 5)), k, val("v" + std::to_string(i)));
    w.settle(1500);
  }
  w.cats->get(30, k);
  w.settle(2000);
  const auto& h = w.cats->history();
  ASSERT_EQ(h.size(), 6u);
  ASSERT_TRUE(h[5].ok);
  EXPECT_EQ(h[5].got_value, val("v5"));
}

// ---- linearizability ---------------------------------------------------------------

TEST(CatsLinearizability, ConcurrentMixedWorkloadIsLinearizable) {
  // Heavy jitter makes message interleavings adversarial; loss forces
  // retries. 5 nodes, replication degree 3, many concurrent ops on few keys.
  // A short op timeout keeps retried operations' windows narrow (and the
  // linearizability search tractable).
  CatsParams params;
  params.op_timeout_ms = 800;
  World w(/*seed=*/77, LinkModel{1, 40, 0.02, false}, params);
  w.boot({11, 22, 33, 44, 55});
  w.settle(10000);
  ASSERT_EQ(w.cats->ready_count(), 5u);

  const std::vector<std::uint64_t> nodes{11, 22, 33, 44, 55};
  const std::vector<RingKey> keys{hash_to_ring("x"), hash_to_ring("y")};
  std::mt19937_64 rng(42);
  int value_counter = 0;
  for (int round = 0; round < 60; ++round) {
    // Launch a small burst of concurrent operations, then let some finish.
    for (int j = 0; j < 3; ++j) {
      const auto node = nodes[rng() % nodes.size()];
      const auto key = keys[rng() % keys.size()];
      if (rng() % 2 == 0) {
        w.cats->put(node, key, val("w" + std::to_string(++value_counter)));
      } else {
        w.cats->get(node, key);
      }
    }
    w.settle(static_cast<DurationMs>(rng() % 120));
  }
  w.settle(20000);  // drain

  const auto& h = w.cats->history();
  std::size_t completed = 0;
  for (const auto& rec : h) completed += rec.responded >= 0 ? 1 : 0;
  EXPECT_GT(completed, h.size() * 3 / 4) << "most operations should complete";

  const auto result = check_history(h);
  EXPECT_TRUE(result.linearizable) << result.explanation;
}

TEST(CatsLinearizability, LinearizableUnderChurn) {
  CatsParams params;
  params.op_timeout_ms = 800;
  World w(/*seed=*/5, LinkModel{1, 10, 0.0, false}, params);
  w.boot({10, 20, 30, 40, 50, 60, 70});
  w.settle(10000);

  const RingKey k = hash_to_ring("churn-key");
  std::mt19937_64 rng(9);
  int vc = 0;
  w.cats->put(10, k, val("v0"));
  w.settle(3000);

  // Interleave ops with a node failure and a fresh join.
  w.cats->put(20, k, val("v" + std::to_string(++vc)));
  w.settle(500);
  w.cats->fail(40);
  w.cats->get(50, k);
  w.settle(2000);
  w.cats->join(45);
  w.cats->put(60, k, val("v" + std::to_string(++vc)));
  w.settle(1000);
  w.cats->get(70, k);
  w.settle(30000);  // let everything (including retries) finish

  const auto result = check_history(w.cats->history());
  EXPECT_TRUE(result.linearizable) << result.explanation;
}

TEST(CatsLinearizability, FastAndImposedReadsOverAPartialWriteStayLinearizable) {
  // Each put's write phase reaches only one replica of three, leaving the
  // new value on a minority. A get whose read quorum includes that replica
  // sees disagreeing tags and must impose the value before answering; a get
  // whose quorum agrees answers after one round trip. Gets from two
  // coordinators interleave over the key, so the history mixes both kinds,
  // and a fast read that skipped a needed write-back shows up as a read of
  // the new value followed by a read of the old one.
  CatsParams params;
  params.op_timeout_ms = 800;
  World w(/*seed=*/21, LinkModel{1, 20, 0.0, false}, params);
  const std::vector<std::uint64_t> ids{10, 20, 30, 40, 50};
  w.boot(ids);
  w.settle(10000);
  ASSERT_EQ(w.cats->ready_count(), ids.size());

  const RingKey k = hash_to_ring("fast-read");
  std::optional<GroupView> view;
  for (auto id : ids) {
    view = w.cats->node(id).abd.definition_as<ConsistentABD>().view_covering(k);
    if (view) break;
  }
  ASSERT_TRUE(view.has_value());
  ASSERT_EQ(view->members.size(), 3u);
  const Address lone_replica = view->members[0].addr;

  // The putter and the two get coordinators are distinct nodes.
  const std::uint64_t putter = 10, reader_a = 30, reader_b = 50;
  const Address putter_addr = w.cats->node(putter).self().addr;

  w.cats->put(20, k, val("v0"));
  w.settle(2000);

  std::uint64_t dropped = 0;
  w.hub->set_drop_filter([&](const net::Message& m) {
    const bool drop = m.source() == putter_addr && m.destination() != lone_replica &&
                      event_is<AbdWriteMsg>(m);
    dropped += drop ? 1 : 0;
    return drop;
  });
  std::mt19937_64 rng(3);
  constexpr int kRounds = 6, kGetsPerRound = 8;
  for (int round = 1; round <= kRounds; ++round) {
    w.cats->put(putter, k, val("v" + std::to_string(round)));
    for (int i = 0; i < kGetsPerRound; ++i) {
      w.cats->get(i % 2 == 0 ? reader_a : reader_b, k);
      w.settle(static_cast<DurationMs>(rng() % 40));
    }
    w.settle(200);
  }
  w.settle(10000);  // the puts exhaust their retries; every get completes

  std::uint64_t gets_ok = 0, fast_reads = 0;
  for (auto id : ids) {
    const auto& c = w.cats->node(id).abd.definition_as<ConsistentABD>().counters();
    gets_ok += c.gets_ok;
    fast_reads += c.fast_reads;
  }
  EXPECT_GT(dropped, 0u) << "the puts' writes to two replicas were dropped";
  EXPECT_EQ(gets_ok, static_cast<std::uint64_t>(kRounds * kGetsPerRound));
  EXPECT_GT(fast_reads, 0u) << "some read quorum agreed";
  EXPECT_LT(fast_reads, gets_ok) << "some read quorum saw a lone new value";

  const auto result = check_history(w.cats->history());
  EXPECT_TRUE(result.linearizable) << result.explanation;
}

// ---- determinism ---------------------------------------------------------------------

std::vector<std::pair<TimeMs, bool>> run_replay(std::uint64_t seed) {
  CatsParams params;
  params.op_timeout_ms = 800;
  World w(seed, LinkModel{1, 30, 0.1, false}, params);
  w.boot({1, 2, 3, 4, 5, 6});
  w.settle(9000);
  std::mt19937_64 rng(seed);
  for (int i = 0; i < 40; ++i) {
    const auto ids = w.cats->alive_ids();
    const auto node = ids[rng() % ids.size()];
    if (rng() % 2 == 0) {
      w.cats->put(node, hash_to_ring("k" + std::to_string(rng() % 4)), val("v"));
    } else {
      w.cats->get(node, hash_to_ring("k" + std::to_string(rng() % 4)));
    }
    w.settle(static_cast<DurationMs>(rng() % 200));
  }
  w.settle(15000);
  std::vector<std::pair<TimeMs, bool>> trace;
  for (const auto& rec : w.cats->history()) trace.push_back({rec.responded, rec.ok});
  return trace;
}

TEST(CatsDeterminism, IdenticalSeedsReplayIdentically) {
  EXPECT_EQ(run_replay(1234), run_replay(1234));
}

// ---- scenario DSL end-to-end (the paper's §4.4 experiment, scaled down) -------------

TEST(CatsScenario, BootChurnLookupScenarioRuns) {
  World w(/*seed=*/21);
  CatsSimulator* cats = w.cats;
  Simulation& simulation = w.simulation;

  Scenario scenario(21);
  auto boot = scenario.process("boot");
  boot->inter_arrival(Dist::exponential(400))
      .raise(30, [cats](std::uint64_t id) { cats->join(id); }, Dist::uniform_bits(16));
  auto churn = scenario.process("churn");
  churn->inter_arrival(Dist::exponential(500))
      .raise(5, [cats](std::uint64_t id) { cats->join(id); }, Dist::uniform_bits(16))
      .raise(5, [cats](std::uint64_t id) {
        // Fail a *random alive* node: uniform ids rarely hit live ones.
        (void)id;
        if (auto victim = cats->random_alive()) cats->fail(*victim);
      }, Dist::uniform_bits(16));
  auto lookups = scenario.process("lookups");
  lookups->inter_arrival(Dist::normal(50, 10))
      .raise(200,
             [cats](std::uint64_t node, std::uint64_t key) {
               if (auto n = cats->random_alive()) {
                 (void)node;
                 cats->lookup(*n, CatsSimulator::node_ring_key(key % (1 << 14)));
               }
             },
             Dist::uniform_bits(16), Dist::uniform_bits(14));

  scenario.start(boot);
  scenario.start_after_termination_of(2000, boot, churn);
  scenario.start_after_start_of(3000, churn, lookups);
  scenario.terminate_after_termination_of(30000, lookups);
  scenario.run(simulation);

  EXPECT_TRUE(scenario.terminated());
  EXPECT_GE(cats->alive_count(), 20u);
  EXPECT_EQ(cats->ready_count(), cats->alive_count());
  // The lookups (mapped to gets) mostly completed.
  std::size_t done = 0;
  for (const auto& rec : cats->history()) done += rec.responded >= 0 ? 1 : 0;
  EXPECT_GT(done, cats->history().size() * 8 / 10);
}

}  // namespace
}  // namespace kompics::cats::test

namespace kompics::cats::test {
namespace {

// ---- the CatsExperiment port (paper's experiment-command abstraction) --------

TEST(CatsExperimentPort, CommandsDriveTheSimulatorLikeMethodCalls) {
  World w;
  // Drive joins/puts/gets purely through the port, as the paper's
  // NetworkEmulator/ExperimentDriver does.
  auto exp = w.main.definition_as<SimMain>().simulator.provided<CatsExperiment>();
  for (std::uint64_t id : {100, 200, 300}) {
    exp.core->trigger(make_event<ExpJoin>(id));
    w.settle(400);
  }
  w.settle(8000);
  EXPECT_EQ(w.cats->ready_count(), 3u);

  exp.core->trigger(make_event<ExpPut>(100, hash_to_ring("via-port"), val("pv")));
  w.settle(2000);
  exp.core->trigger(make_event<ExpGet>(300, hash_to_ring("via-port")));
  w.settle(2000);
  exp.core->trigger(make_event<ExpFail>(200));
  w.settle(500);
  EXPECT_EQ(w.cats->alive_count(), 2u);

  const auto& h = w.cats->history();
  ASSERT_EQ(h.size(), 2u);
  EXPECT_TRUE(h[0].ok);
  ASSERT_TRUE(h[1].ok);
  EXPECT_EQ(h[1].got_value, val("pv"));
}

}  // namespace
}  // namespace kompics::cats::test
