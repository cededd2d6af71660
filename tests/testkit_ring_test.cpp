// CatsRing's join on the TestKit event-stream DSL: the joiner's Network and
// Ring ports are probed, so the script pins which messages a join sends and
// which answers it needs before it reports RingReady.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cats/ring.hpp"
#include "testkit/event_stream.hpp"

namespace kompics::cats::test {
namespace {

using testkit::PortHandle;
using testkit::Result;
using testkit::TestContext;
using testkit::TestProbe;

struct RingDslTest : ::testing::Test {
  RingDslTest() {
    ctx = std::make_unique<TestContext>(11, [this](TestProbe& p, sim::SimulatorCore&) {
      Component cut = p.make<CatsRing>();
      cut.control()->trigger(make_event<CatsRing::Init>(self, params));
      return cut;
    });
    ring = ctx->monitor_provided<Ring>();
    net = ctx->monitor_required<net::Network>();
    ctx->attach_sim_timer();
  }

  CatsRing& cats_ring() { return ctx->cut().definition_as<CatsRing>(); }

  CatsParams params;
  NodeRef self{250, Address::node(25)};
  NodeRef pred{200, Address::node(20)};
  Address contact = Address::node(10);
  std::unique_ptr<TestContext> ctx;
  PortHandle ring, net;
};

TEST_F(RingDslTest, JoinerWovenInByANotifyBecomesReadyWithoutAFoundSuccessor) {
  // A ready node can adopt a joiner from a gossip sample and notify it
  // before the joiner's FindSuccessor is answered. Lookups for the joiner's
  // key then end at the joiner, which drops them while it is not ready, so
  // no FoundSuccessorMsg ever arrives: the join completes from the Notify,
  // at the first JoinRetry and without sending a second lookup.
  TimeMs joined_at = 0;
  ctx->exec([&] { joined_at = ctx->now(); })
      .trigger(ring, make_event<JoinRing>(std::vector<Address>{contact}))
      .expect<FindSuccessorMsg>(net,
                                [&](const FindSuccessorMsg& m) {
                                  return m.destination() == contact && m.target == self.key;
                                })
      .trigger(net, make_event<NotifyMsg>(pred.addr, self.addr, pred))
      .expect<RingView>(ring,
                        [&](const RingView& v) {
                          return v.neighborhood.has_predecessor &&
                                 v.neighborhood.predecessor == pred;
                        })
      .exec([&] { EXPECT_FALSE(cats_ring().ready()); })
      .expect<RingView>(ring)
      .expect<RingReady>(ring, [&](const RingReady& r) { return r.self == self; })
      .exec([&] {
        EXPECT_TRUE(cats_ring().ready());
        EXPECT_LE(ctx->now(), joined_at + params.stabilization_period_ms / 2 + 1);
        EXPECT_EQ(cats_ring().predecessor(), pred);
        ASSERT_FALSE(cats_ring().successors().empty());
        EXPECT_EQ(cats_ring().successors()[0], pred);
      });

  const Result result = ctx->check();
  EXPECT_TRUE(result.ok) << result.message;
}

TEST_F(RingDslTest, PlacedJoinerIsHandedToTheOldPredecessorAtOnce) {
  // This node founds a ring and learns `pred` from its Notify. It then
  // answers a joiner's FindSuccessor, and the joiner announces itself with
  // Notify. The old predecessor gets the new ring state right away, naming
  // the joiner as this node's predecessor, instead of at its next
  // stabilization probe.
  const NodeRef joiner{225, Address::node(22)};
  ctx->allow<RingView>(ring);
  ctx->trigger(ring, make_event<JoinRing>(std::vector<Address>{}))
      .expect<RingReady>(ring)
      .trigger(net, make_event<NotifyMsg>(pred.addr, self.addr, pred))
      .trigger(net, make_event<FindSuccessorMsg>(contact, self.addr, joiner, joiner.key, 8))
      .expect<FoundSuccessorMsg>(net,
                                 [&](const FoundSuccessorMsg& m) {
                                   return m.destination() == joiner.addr && m.successor == self;
                                 })
      .trigger(net, make_event<NotifyMsg>(joiner.addr, self.addr, joiner))
      .expect<RingStateMsg>(net,
                            [&](const RingStateMsg& m) {
                              return m.destination() == pred.addr && m.self == self &&
                                     m.has_pred && m.pred == joiner;
                            })
      .exec([&] { EXPECT_EQ(cats_ring().predecessor(), joiner); });

  const Result result = ctx->check();
  EXPECT_TRUE(result.ok) << result.message;
}

}  // namespace
}  // namespace kompics::cats::test
