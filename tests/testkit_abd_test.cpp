// The ConsistentABD coordinator path, rewritten on the TestKit event-stream
// DSL (ISSUE 7 satellite; originals lived in abd_protocol_test.cpp as
// hand-rolled harness tests). The DSL versions assert strictly *more* than
// the originals: the exact emission order of every protocol message enters
// the expectation stream, and the "must not respond yet" checks are real
// timed silence windows instead of point-in-time empty-vector probes.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cats/abd.hpp"
#include "cats/bootstrap.hpp"
#include "testkit/event_stream.hpp"

namespace kompics::cats::test {
namespace {

using testkit::PortHandle;
using testkit::Result;
using testkit::TestContext;
using testkit::TestProbe;

struct AbdDslTest : ::testing::Test {
  AbdDslTest() {
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

  // Replica replies, echoing the phase view as a correct replica does.
  EventPtr read_ack(const AbdReadMsg& to, VersionTag tag, bool exists, Value v, Address from) {
    return make_event<AbdReadAckMsg>(from, to.source(), to.op, to.key, to.view, tag, exists,
                                     std::move(v));
  }
  EventPtr write_ack(const AbdWriteMsg& to, Address from) {
    return make_event<AbdWriteAckMsg>(from, to.source(), to.op, to.key, to.view);
  }
  EventPtr lookup_answer(const LookupRequest& req, std::uint64_t view_version) {
    return make_event<LookupResponse>(req.id, req.key,
                                      GroupView{.version = view_version, .members = group});
  }

  ConsistentABD& abd() { return ctx->cut().definition_as<ConsistentABD>(); }

  NodeRef self{100, Address::node(1)};
  // The coordinator is NOT a group member here — the protocol must not care.
  std::vector<NodeRef> group{NodeRef{10, Address::node(10)}, NodeRef{20, Address::node(20)},
                             NodeRef{30, Address::node(30)}};
  std::unique_ptr<TestContext> ctx;
  PortHandle router, net, putget;
};

TEST_F(AbdDslTest, PutRunsReadThenWritePhaseAndAcksAtQuorum) {
  LookupRequest lookup{0, 0};
  std::vector<AbdReadMsg> reads;
  std::vector<AbdWriteMsg> writes;

  ctx->trigger(putget, make_event<PutRequest>(1, 555, Value{1}))
      .expect<LookupRequest>(router, [&](const LookupRequest& r) { lookup = r; })
      .trigger(router, [&] { return lookup_answer(lookup, 1); })
      // Read phase queries the whole group — exactly three reads, no more.
      .repeat(3)
      .expect<AbdReadMsg>(net, [&](const AbdReadMsg& m) { reads.push_back(m); })
      .end_repeat()
      .exec([&] {
        ASSERT_EQ(reads.size(), 3u);
        EXPECT_EQ(reads[0].view, 1u) << "phases carry the lookup's view version";
      })
      // Two read acks (= quorum of 3) with empty replicas start the write
      // phase; until then the coordinator must emit nothing further.
      .trigger(net, [&] { return read_ack(reads[0], VersionTag{}, false, {}, Address::node(10)); })
      .trigger(net, [&] { return read_ack(reads[1], VersionTag{}, false, {}, Address::node(20)); })
      .repeat(3)
      .expect<AbdWriteMsg>(net, [&](const AbdWriteMsg& m) { writes.push_back(m); })
      .end_repeat()
      .exec([&] {
        ASSERT_EQ(writes.size(), 3u);
        EXPECT_EQ(writes[0].tag.counter, 1u) << "fresh key: counter 0+1";
        EXPECT_TRUE(writes[0].exists);
      })
      .trigger(net, [&] { return write_ack(writes[0], Address::node(10)); })
      .expect_silence(200)  // 1 of 3 is not a quorum: no response may appear
      .trigger(net, [&] { return write_ack(writes[1], Address::node(20)); })
      .expect<PutResponse>(putget, [](const PutResponse& r) { return r.ok && r.id == 1; });

  const Result result = ctx->check();
  EXPECT_TRUE(result.ok) << result.message;
}

TEST_F(AbdDslTest, GetImposesMaxValueBeforeResponding) {
  LookupRequest lookup{0, 0};
  std::vector<AbdReadMsg> reads;
  std::vector<AbdWriteMsg> writes;

  ctx->trigger(putget, make_event<GetRequest>(3, 7))
      .expect<LookupRequest>(router, [&](const LookupRequest& r) { lookup = r; })
      .trigger(router, [&] { return lookup_answer(lookup, 1); })
      .repeat(3)
      .expect<AbdReadMsg>(net, [&](const AbdReadMsg& m) { reads.push_back(m); })
      .end_repeat()
      // Replicas disagree: {3,50}->0xA vs {5,60}->0xB. The get must impose
      // (write back) the max tag/value before answering.
      .trigger(net, [&] {
        return read_ack(reads[0], VersionTag{3, 50}, true, Value{0xA}, Address::node(10));
      })
      .trigger(net, [&] {
        return read_ack(reads[1], VersionTag{5, 60}, true, Value{0xB}, Address::node(20));
      })
      .repeat(3)
      .expect<AbdWriteMsg>(net, [&](const AbdWriteMsg& m) { writes.push_back(m); })
      .end_repeat()
      .exec([&] {
        ASSERT_EQ(writes.size(), 3u);
        EXPECT_EQ(writes[0].tag, (VersionTag{5, 60})) << "impose retransmits the max tag";
        EXPECT_EQ(writes[0].value, Value{0xB});
      })
      .expect_silence(200)  // must not respond before the impose quorum
      .trigger(net, [&] { return write_ack(writes[0], Address::node(10)); })
      .trigger(net, [&] { return write_ack(writes[1], Address::node(20)); })
      .expect<GetResponse>(putget, [](const GetResponse& r) {
        return r.ok && r.found && r.value == Value{0xB};
      });

  const Result result = ctx->check();
  EXPECT_TRUE(result.ok) << result.message;
}

TEST_F(AbdDslTest, GetWithAgreeingQuorumAnswersWithoutWriteBack) {
  LookupRequest lookup{0, 0};
  std::vector<AbdReadMsg> reads;

  ctx->trigger(putget, make_event<GetRequest>(4, 7))
      .expect<LookupRequest>(router, [&](const LookupRequest& r) { lookup = r; })
      .trigger(router, [&] { return lookup_answer(lookup, 1); })
      .repeat(3)
      .expect<AbdReadMsg>(net, [&](const AbdReadMsg& m) { reads.push_back(m); })
      .end_repeat()
      // Both counted acks hold {4,40}->0xC: a majority already has the max,
      // so the answer comes right after the read phase.
      .trigger(net, [&] {
        return read_ack(reads[0], VersionTag{4, 40}, true, Value{0xC}, Address::node(10));
      })
      .trigger(net, [&] {
        return read_ack(reads[1], VersionTag{4, 40}, true, Value{0xC}, Address::node(20));
      })
      .expect<GetResponse>(putget, [](const GetResponse& r) {
        return r.ok && r.id == 4 && r.found && r.value == Value{0xC};
      })
      .expect_silence(300)  // no AbdWriteMsg, before or after the answer
      .exec([&] {
        EXPECT_EQ(abd().counters().fast_reads, 1u);
        EXPECT_EQ(abd().counters().gets_ok, 1u);
      });

  const Result result = ctx->check();
  EXPECT_TRUE(result.ok) << result.message;
}

TEST_F(AbdDslTest, GetWithOneMissingReplicaStillImposes) {
  LookupRequest lookup{0, 0};
  std::vector<AbdReadMsg> reads;
  std::vector<AbdWriteMsg> writes;

  ctx->trigger(putget, make_event<GetRequest>(5, 7))
      .expect<LookupRequest>(router, [&](const LookupRequest& r) { lookup = r; })
      .trigger(router, [&] { return lookup_answer(lookup, 1); })
      .repeat(3)
      .expect<AbdReadMsg>(net, [&](const AbdReadMsg& m) { reads.push_back(m); })
      .end_repeat()
      // One replica has never seen the key, the other holds {2,20}->0xD:
      // the value is on only one replica of the quorum, so it must be
      // written back before the answer.
      .trigger(net, [&] { return read_ack(reads[0], VersionTag{}, false, {}, Address::node(10)); })
      .trigger(net, [&] {
        return read_ack(reads[1], VersionTag{2, 20}, true, Value{0xD}, Address::node(20));
      })
      .repeat(3)
      .expect<AbdWriteMsg>(net, [&](const AbdWriteMsg& m) { writes.push_back(m); })
      .end_repeat()
      .exec([&] {
        ASSERT_EQ(writes.size(), 3u);
        EXPECT_EQ(writes[0].tag, (VersionTag{2, 20}));
        EXPECT_TRUE(writes[0].exists);
      })
      .trigger(net, [&] { return write_ack(writes[0], Address::node(10)); })
      .trigger(net, [&] { return write_ack(writes[1], Address::node(20)); })
      .expect<GetResponse>(putget, [](const GetResponse& r) {
        return r.ok && r.found && r.value == Value{0xD};
      })
      .exec([&] { EXPECT_EQ(abd().counters().fast_reads, 0u); });

  const Result result = ctx->check();
  EXPECT_TRUE(result.ok) << result.message;
}

TEST_F(AbdDslTest, ReadAgreementIsDecidedPerAttempt) {
  // Five replicas (quorum 3), so attempt 0 can count two disagreeing acks
  // without reaching its quorum. Its deadline then retries; attempt 1's
  // acks all agree and must decide on their own.
  group.push_back(NodeRef{40, Address::node(40)});
  group.push_back(NodeRef{50, Address::node(50)});
  LookupRequest lookup{0, 0};
  std::vector<AbdReadMsg> reads0, reads1;

  ctx->trigger(putget, make_event<GetRequest>(6, 7))
      .expect<LookupRequest>(router, [&](const LookupRequest& r) { lookup = r; })
      .trigger(router, [&] { return lookup_answer(lookup, 1); })
      .repeat(5)
      .expect<AbdReadMsg>(net, [&](const AbdReadMsg& m) { reads0.push_back(m); })
      .end_repeat()
      .trigger(net, [&] {
        return read_ack(reads0[0], VersionTag{3, 30}, true, Value{0xA}, Address::node(10));
      })
      .trigger(net, [&] {
        return read_ack(reads0[1], VersionTag{4, 40}, true, Value{0xB}, Address::node(20));
      })
      // Attempt 0's deadline (op_timeout_ms = 1000) fires: fresh lookup.
      .expect<LookupRequest>(router, [&](const LookupRequest& r) { lookup = r; })
      .trigger(router, [&] { return lookup_answer(lookup, 1); })
      .repeat(5)
      .expect<AbdReadMsg>(net, [&](const AbdReadMsg& m) { reads1.push_back(m); })
      .end_repeat()
      .exec([&] { EXPECT_NE(reads1[0].op, reads0[0].op) << "a retry uses a fresh wire id"; })
      // A late attempt-0 ack with yet another tag must not count at all.
      .trigger(net, [&] {
        return read_ack(reads0[2], VersionTag{9, 90}, true, Value{0xE}, Address::node(30));
      })
      .trigger(net, [&] {
        return read_ack(reads1[0], VersionTag{4, 40}, true, Value{0xB}, Address::node(10));
      })
      .trigger(net, [&] {
        return read_ack(reads1[1], VersionTag{4, 40}, true, Value{0xB}, Address::node(20));
      })
      .trigger(net, [&] {
        return read_ack(reads1[2], VersionTag{4, 40}, true, Value{0xB}, Address::node(30));
      })
      .expect<GetResponse>(putget, [](const GetResponse& r) {
        return r.ok && r.found && r.value == Value{0xB};
      })
      .expect_silence(300)
      .exec([&] {
        EXPECT_EQ(abd().counters().fast_reads, 1u);
        EXPECT_EQ(abd().counters().retries, 1u);
      });

  const Result result = ctx->check();
  EXPECT_TRUE(result.ok) << result.message;
}

TEST_F(AbdDslTest, UnversionedLookupAnswerIsReaskedWithinTheAttempt) {
  // A range with no installed view yet answers at version 0. The coordinator
  // re-sends the same request after the fast-retry backoff instead of
  // sitting out the attempt deadline (op_timeout_ms = 1000), and spends no
  // retry doing so.
  LookupRequest first{0, 0};
  LookupRequest again{0, 0};
  std::vector<AbdReadMsg> reads;
  TimeMs start = 0;
  TimeMs reasked = 0;
  TimeMs answered = 0;

  ctx->exec([&] { start = ctx->now(); })
      .trigger(putget, make_event<GetRequest>(8, 7))
      .expect<LookupRequest>(router, [&](const LookupRequest& r) { first = r; })
      .trigger(router, [&] { return lookup_answer(first, 0); })
      .expect<LookupRequest>(router, [&](const LookupRequest& r) {
        again = r;
        reasked = ctx->now();
      })
      .exec([&] {
        EXPECT_EQ(again.id, first.id) << "a re-ask keeps the attempt's wire id";
        EXPECT_FALSE(again.fresh) << "attempt 0 never asks fresh";
      })
      .trigger(router, [&] { return lookup_answer(again, 1); })
      .repeat(3)
      .expect<AbdReadMsg>(net, [&](const AbdReadMsg& m) { reads.push_back(m); })
      .end_repeat()
      .exec([&] { EXPECT_EQ(reads[0].view, 1u) << "phases run under the versioned answer"; })
      .trigger(net, [&] { return read_ack(reads[0], VersionTag{}, false, {}, Address::node(10)); })
      .trigger(net, [&] { return read_ack(reads[1], VersionTag{}, false, {}, Address::node(20)); })
      .expect<GetResponse>(putget, [&](const GetResponse& r) {
        answered = ctx->now();
        return r.ok && !r.found && r.id == 8;
      })
      .exec([&] {
        EXPECT_GE(reasked - start, 50) << "the re-ask waits out fast_retry_backoff_ms";
        EXPECT_LT(answered - start, 250) << "finished well before the 1000 ms attempt deadline";
        EXPECT_EQ(abd().counters().retries, 0u);
        EXPECT_EQ(abd().counters().lookup_reasks, 1u);
      });

  const Result result = ctx->check();
  EXPECT_TRUE(result.ok) << result.message;
}

TEST_F(AbdDslTest, DuplicatedAcksFromOneReplicaDoNotCompleteQuorum) {
  // Pre-fix, quorum progress was a raw counter (++acks): duplicated
  // deliveries of one replica's ack (retransmitting transports do that)
  // could "complete" a 2-of-3 quorum with a single replica's answer.
  LookupRequest lookup{0, 0};
  std::vector<AbdReadMsg> reads;
  std::vector<AbdWriteMsg> writes;

  ctx->trigger(putget, make_event<PutRequest>(9, 21, Value{4}))
      .expect<LookupRequest>(router, [&](const LookupRequest& r) { lookup = r; })
      .trigger(router, [&] { return lookup_answer(lookup, 1); })
      .repeat(3)
      .expect<AbdReadMsg>(net, [&](const AbdReadMsg& m) { reads.push_back(m); })
      .end_repeat()
      // Three copies of ONE replica's read ack: not a quorum, so the write
      // phase must not start inside the silence window.
      .trigger(net, [&] { return read_ack(reads[0], VersionTag{}, false, {}, Address::node(10)); })
      .trigger(net, [&] { return read_ack(reads[0], VersionTag{}, false, {}, Address::node(10)); })
      .trigger(net, [&] { return read_ack(reads[0], VersionTag{}, false, {}, Address::node(10)); })
      .expect_silence(150)
      .trigger(net, [&] { return read_ack(reads[1], VersionTag{}, false, {}, Address::node(20)); })
      .repeat(3)
      .expect<AbdWriteMsg>(net, [&](const AbdWriteMsg& m) { writes.push_back(m); })
      .end_repeat()
      // Same for the write phase: duplicated write acks from one replica.
      .trigger(net, [&] { return write_ack(writes[0], Address::node(10)); })
      .trigger(net, [&] { return write_ack(writes[0], Address::node(10)); })
      .expect_silence(150)
      .trigger(net, [&] { return write_ack(writes[1], Address::node(20)); })
      .expect<PutResponse>(putget, [](const PutResponse& r) { return r.ok && r.id == 9; });

  const Result result = ctx->check();
  EXPECT_TRUE(result.ok) << result.message;
}

// ---- a coroutine protocol end-to-end under the DSL -----------------------
//
// The BootstrapClient handshake is a pure protocol.hpp coroutine (open the
// response stream, retransmit every keep-alive period, relay the answer).
// This drives it through the event-stream DSL: the retransmission loop, the
// relay of the first response, idempotence of a second handshake request,
// and the periodic keep-alive frame started by BootstrapDone — each a
// co_await suspension resumed by an injected event or the virtual clock.

TEST(BootstrapDsl, CoroutineHandshakeRetransmitsRelaysAndHeartbeats) {
  CatsParams params;
  params.keepalive_period_ms = 400;
  const NodeRef self{100, Address::node(1)};
  const Address server = Address::node(9);
  TestContext ctx(11, [&](TestProbe& p, sim::SimulatorCore&) {
    Component c = p.make<BootstrapClient>();
    c.control()->trigger(make_event<BootstrapClient::Init>(self, server, params));
    return c;
  });
  const PortHandle net = ctx.monitor_required<net::Network>();
  const PortHandle bootstrap = ctx.monitor_provided<Bootstrap>();
  ctx.attach_sim_timer();

  const std::vector<NodeRef> peers{NodeRef{10, Address::node(10)},
                                   NodeRef{20, Address::node(20)}};
  ctx.trigger(bootstrap, make_event<BootstrapRequest>(self))
      .expect<BootstrapRequestMsg>(net,
                                   [&](const BootstrapRequestMsg& m) {
                                     return m.destination() == server && m.self.key == self.key;
                                   })
      // The server stays silent for one period: the parked frame's timer
      // fires and the loop retransmits.
      .expect<BootstrapRequestMsg>(net)
      // A second BootstrapRequest while the handshake frame is in flight
      // must NOT spawn a second retransmission loop.
      .trigger(bootstrap, make_event<BootstrapRequest>(self))
      .trigger(net, [&] { return make_event<BootstrapResponseMsg>(server, self.addr, peers); })
      .expect<BootstrapResponse>(bootstrap,
                                 [&](const BootstrapResponse& r) { return r.peers.size() == 2; })
      // The frame finished: no stray retransmission (and no duplicate
      // response from the second trigger) inside two full periods.
      .expect_silence(2 * params.keepalive_period_ms)
      // BootstrapDone starts the keep-alive heartbeat coroutine: one beat
      // immediately, then one per period.
      .trigger(bootstrap, make_event<BootstrapDone>())
      .expect<KeepAliveMsg>(net, [&](const KeepAliveMsg& m) { return m.destination() == server; })
      .expect<KeepAliveMsg>(net)
      .expect<KeepAliveMsg>(net);
  const Result result = ctx.check();
  EXPECT_TRUE(result.ok) << result.message;
}

}  // namespace
}  // namespace kompics::cats::test
