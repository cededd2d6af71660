// The consistent-quorum reconfiguration gates, rewritten on the TestKit
// event-stream DSL (ISSUE 7 satellite; originals lived in
// abd_protocol_test.cpp). Replica side: the view gate must nack unversioned
// phases, wrong view versions, and fenced ranges — in exactly that order on
// the wire. Coordinator side: a nack majority must trigger the fast retry
// only after the backoff, which doubles with each further fast retry. The
// DSL versions pin the full message order and measure the backoff in
// virtual time, which the hand-rolled originals could only approximate
// with coarse run_until windows.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cats/abd.hpp"
#include "testkit/event_stream.hpp"

namespace kompics::cats::test {
namespace {

using testkit::PortHandle;
using testkit::Result;
using testkit::TestContext;
using testkit::TestProbe;

struct ReconfigDslTest : ::testing::Test {
  ReconfigDslTest() {
    CatsParams params;
    params.op_timeout_ms = 1000;
    params.op_max_retries = 2;
    ctx = std::make_unique<TestContext>(9, [this, params](TestProbe& p, sim::SimulatorCore&) {
      Component abd = p.make<ConsistentABD>();
      abd.control()->trigger(make_event<ConsistentABD::Init>(self, params));
      return abd;
    });
    router = ctx->monitor_required<Router>();
    net = ctx->monitor_required<net::Network>();
    putget = ctx->monitor_provided<PutGet>();
    ctx->attach_sim_timer();
  }

  EventPtr replica_read(OpId op, RingKey key, std::uint64_t view) {
    return make_event<AbdReadMsg>(peer, self.addr, op, key, view);
  }

  ConsistentABD& abd() { return ctx->cut().definition_as<ConsistentABD>(); }

  NodeRef self{100, Address::node(1)};
  Address peer = Address::node(99);
  Address reconfigurer = Address::node(200);
  std::vector<NodeRef> group{NodeRef{10, Address::node(10)}, NodeRef{20, Address::node(20)},
                             NodeRef{30, Address::node(30)}};
  std::unique_ptr<TestContext> ctx;
  PortHandle router, net, putget;
};

TEST_F(ReconfigDslTest, ReplicaGateNacksWrongViewsAndFencedRanges) {
  // Installing a view answers the parent with an ack — protocol noise for
  // this test's expectations.
  ctx->allow<ViewInstallAckMsg>(net);

  ctx
      // No installed view at all: nack names current_version 0.
      ->trigger(net, replica_read(0xCAF0001, 77, 1))
      .expect<AbdNackMsg>(net, [](const AbdNackMsg& m) { return m.current_version == 0; })
      // Hand the replica an installed view (version 3), as a decided
      // reconfiguration would.
      .trigger(net, make_event<ViewInstallMsg>(reconfigurer, self.addr, /*parent_hi=*/0,
                                               GroupView{0, 0, 3, {self}},
                                               std::vector<KeyState>{}))
      // Wrong view version: the nack names the installed version.
      .trigger(net, replica_read(0xCAF0002, 77, 2))
      .expect<AbdNackMsg>(net, [](const AbdNackMsg& m) { return m.current_version == 3; })
      // Matching version: served.
      .trigger(net, replica_read(0xCAF0003, 77, 3))
      .expect<AbdReadAckMsg>(net, [](const AbdReadAckMsg& m) { return !m.exists; })
      // A Prepare for the next version fences the range: even correctly
      // versioned phases are refused from then on (this is what guarantees
      // a majority-promised old view can never assemble another quorum).
      .trigger(net,
               make_event<ViewPrepareMsg>(reconfigurer, self.addr, 0, 0, /*target=*/4,
                                          Ballot{7, 42}))
      .expect<ViewPromiseMsg>(net, [](const ViewPromiseMsg& m) { return m.ok; })
      .trigger(net, replica_read(0xCAF0004, 77, 3))
      .expect<AbdNackMsg>(net)
      .exec([&] { EXPECT_EQ(abd().counters().view_fences, 1u); });

  const Result result = ctx->check();
  EXPECT_TRUE(result.ok) << result.message;
}

TEST_F(ReconfigDslTest, NackMajorityTriggersFastRetryAfterBackoff) {
  LookupRequest lookup{0, 0};
  LookupRequest retry_lookup{0, 0};
  std::vector<AbdReadMsg> reads;
  TimeMs nacked_at = 0;

  ctx->trigger(putget, make_event<PutRequest>(11, 23, Value{6}))
      .expect<LookupRequest>(router, [&](const LookupRequest& r) { lookup = r; })
      .trigger(router,
               [&] { return make_event<LookupResponse>(lookup.id, lookup.key,
                                                   GroupView{.version = 1, .members = group}); })
      .repeat(3)
      .expect<AbdReadMsg>(net, [&](const AbdReadMsg& m) { reads.push_back(m); })
      .end_repeat()
      // Two of three replicas refuse the view: a quorum can never form under
      // it, so the coordinator schedules the fast retry.
      .trigger(net, [&] {
        return make_event<AbdNackMsg>(Address::node(10), reads[0].source(), reads[0].op,
                                      reads[0].key, /*current_version=*/9);
      })
      .trigger(net, [&] {
        return make_event<AbdNackMsg>(Address::node(20), reads[1].source(), reads[1].op,
                                      reads[1].key, /*current_version=*/9);
      })
      .settle(0)  // drain the nack deliveries before inspecting counters
      .exec([&] {
        EXPECT_EQ(abd().counters().fast_retries, 1u);
        nacked_at = ctx->now();
      })
      // The retry re-resolves the group — but only after the 50 ms backoff
      // (an instant retry would exhaust every attempt inside the fence
      // window of a single in-flight view change), and far before the
      // 1000 ms op timeout.
      .expect<LookupRequest>(router, [&](const LookupRequest& r) { retry_lookup = r; })
      .exec([&] {
        EXPECT_GE(ctx->now(), nacked_at + 50) << "retry must wait out the backoff";
        EXPECT_LT(ctx->now(), nacked_at + 1000) << "fast retry beats the op timeout";
      })
      .trigger(router,
               [&] {
                 return make_event<LookupResponse>(retry_lookup.id, retry_lookup.key,
                                                   GroupView{.version = 9, .members = group});
               })
      // A fresh read phase goes out under the new view.
      .repeat(3)
      .expect<AbdReadMsg>(net, [](const AbdReadMsg& m) { return m.view == 9; })
      .end_repeat();

  const Result result = ctx->check();
  EXPECT_TRUE(result.ok) << result.message;
}

TEST_F(ReconfigDslTest, RepeatedNackMajoritiesDoubleTheBackoff) {
  // A responsible node can keep answering with a superseded view until its
  // own catch-up lands. Each further fast retry of the op waits twice as
  // long, so the op's retries outlast that window instead of burning out in
  // a few fixed 50 ms steps.
  LookupRequest lookup{0, 0};
  std::vector<AbdReadMsg> reads;
  std::vector<TimeMs> nacked_at, asked_at;
  auto nack_majority = [&](testkit::TestContext& c) -> testkit::TestContext& {
    return c
        .trigger(router,
                 [&] { return make_event<LookupResponse>(lookup.id, lookup.key,
                                                   GroupView{.version = 1, .members = group}); })
        .repeat(3)
        .expect<AbdReadMsg>(net, [&](const AbdReadMsg& m) { reads.push_back(m); })
        .end_repeat()
        .trigger(net, [&] {
          const AbdReadMsg& r = reads[reads.size() - 3];
          return make_event<AbdNackMsg>(Address::node(10), r.source(), r.op, r.key, 9);
        })
        .trigger(net, [&] {
          const AbdReadMsg& r = reads[reads.size() - 2];
          return make_event<AbdNackMsg>(Address::node(20), r.source(), r.op, r.key, 9);
        })
        .settle(0)
        .exec([&] { nacked_at.push_back(ctx->now()); })
        .expect<LookupRequest>(router, [&](const LookupRequest& r) {
          lookup = r;
          asked_at.push_back(ctx->now());
        });
  };

  ctx->trigger(putget, make_event<PutRequest>(12, 23, Value{7}))
      .expect<LookupRequest>(router, [&](const LookupRequest& r) { lookup = r; });
  nack_majority(*ctx);
  nack_majority(*ctx);
  ctx->exec([&] {
    ASSERT_EQ(asked_at.size(), 2u);
    EXPECT_GE(asked_at[0] - nacked_at[0], 50);
    EXPECT_LT(asked_at[0] - nacked_at[0], 100);
    EXPECT_GE(asked_at[1] - nacked_at[1], 100) << "the second fast retry waits twice as long";
    EXPECT_LT(asked_at[1] - nacked_at[1], 200);
    EXPECT_EQ(abd().counters().fast_retries, 2u);
  });

  const Result result = ctx->check();
  EXPECT_TRUE(result.ok) << result.message;
}

TEST_F(ReconfigDslTest, ProposalOvertakenByAnotherInstallIsNotResumed) {
  // This node proposes version 12 for its range and loses the accept phase
  // to another proposer, whose decision installs the same membership at
  // version 12. The ring then agrees with the installed view, so nothing is
  // left to propose. Resuming the lost proposal at version 13 would fence
  // the range and then install its version-12 children, which changes
  // nothing, so the range would stay fenced for good.
  const CatsParams params;
  const NodeRef pred{50, Address::node(50)};
  const NodeRef a{200, Address::node(2)}, b{300, Address::node(3)};
  const NodeRef x{400, Address::node(4)}, y{500, Address::node(5)};
  const PortHandle ring = ctx->monitor_required<Ring>();
  ctx->allow<ViewInstallAckMsg>(net);
  std::vector<ViewPrepareMsg> prepares;
  auto promise = [&](const NodeRef& from) {
    return [&, from] {
      const Ballot ballot = prepares.front().ballot;
      return make_event<ViewPromiseMsg>(from.addr, self.addr, 100, 12, ballot, true, ballot,
                                        false, Ballot{}, std::vector<GroupView>{},
                                        std::vector<GroupView>{}, std::vector<KeyState>{});
    };
  };
  auto rejected = [&](const NodeRef& from) {
    return [&, from] {
      return make_event<ViewAcceptedMsg>(from.addr, self.addr, 100, 12,
                                         prepares.front().ballot, false);
    };
  };

  ctx->trigger(net, make_event<ViewInstallMsg>(reconfigurer, self.addr, 100,
                                               GroupView{50, 100, 11, {self, x, y}},
                                               std::vector<KeyState>{}))
      // The ring makes this node responsible for (50, 100] with successors
      // a and b: the installed members x and y must be replaced.
      .trigger(ring, make_event<RingView>(self, pred, true, std::vector<NodeRef>{a, b}, false, 1))
      .repeat(3)
      .expect<ViewPrepareMsg>(net, [&](const ViewPrepareMsg& m) {
        if (m.target != 12) return false;
        prepares.push_back(m);
        return true;
      })
      .end_repeat()
      .trigger(net, promise(x))
      .trigger(net, promise(y))
      .repeat(3)
      .expect<ViewAcceptMsg>(net)
      .end_repeat()
      .trigger(net, rejected(x))
      .trigger(net, rejected(y))
      .trigger(net, make_event<ViewInstallMsg>(x.addr, self.addr, 100,
                                               GroupView{50, 100, 12, {self, a, b}},
                                               std::vector<KeyState>{}))
      // The next ring view re-evaluates the range: it matches the ring.
      .trigger(ring, make_event<RingView>(self, pred, true, std::vector<NodeRef>{a, b}, false, 2))
      .expect_silence(params.view_reconfig_period_ms)
      .exec([&] {
        const auto v = abd().view_covering(100);
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(v->version, 12u);
        EXPECT_EQ(abd().counters().view_fences, 0u);
      });

  const Result result = ctx->check();
  EXPECT_TRUE(result.ok) << result.message;
}

}  // namespace
}  // namespace kompics::cats::test
