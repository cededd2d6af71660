// Self-tests of the TestKit event-stream DSL (ISSUE 7 satellite): ordering
// of expect/trigger resolution, either-branch selection, unordered sets,
// virtual-time timeout expiry, and — the negative test — that a mismatch
// fails with a readable diff-style message naming both the expectation and
// the observed event. The CUT is a tiny echo component so every test is
// about the DSL itself, not a protocol.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "testkit/event_stream.hpp"
#include "timing/timer_port.hpp"

namespace kompics::testkit::test {
namespace {

class TkPing : public Event {
  KOMPICS_EVENT(TkPing, Event);

 public:
  explicit TkPing(int n, int fanout = 1, DurationMs delay_ms = 0)
      : n(n), fanout(fanout), delay_ms(delay_ms) {}
  int n;
  int fanout;          ///< emit pongs n, n+1, ..., n+fanout-1
  DurationMs delay_ms; ///< > 0: emit via a one-shot timer instead
};

class TkPong : public Event {
  KOMPICS_EVENT(TkPong, Event);

 public:
  explicit TkPong(int n) : n(n) {}
  int n;
};

class EchoPort : public PortType {
 public:
  EchoPort() {
    set_name("TkEcho");
    request<TkPing>();
    indication<TkPong>();
  }
};

/// Answers every TkPing with TkPong(s), immediately or after a timer delay.
class Echo : public ComponentDefinition {
 public:
  Echo() {
    subscribe<TkPing>(echo_, [this](const TkPing& p) {
      if (p.delay_ms > 0) {
        trigger(timing::schedule<DelayedPong>(p.delay_ms, p.n), timer_);
        return;
      }
      for (int i = 0; i < p.fanout; ++i) trigger(make_event<TkPong>(p.n + i), echo_);
    });
    subscribe<DelayedPong>(timer_, [this](const DelayedPong& t) {
      trigger(make_event<TkPong>(t.n), echo_);
    });
  }

 private:
  struct DelayedPong : timing::Timeout {
    KOMPICS_EVENT(DelayedPong, timing::Timeout);

    DelayedPong(timing::TimeoutId id, int n) : Timeout(id), n(n) {}
    int n;
  };

  Negative<EchoPort> echo_ = provide<EchoPort>();
  Positive<timing::Timer> timer_ = require<timing::Timer>();
};

TestProbe::Build build_echo() {
  return [](TestProbe& p, sim::SimulatorCore&) { return p.make<Echo>(); };
}

TEST(TestKitDsl, ExpectsResolveInTriggerOrder) {
  TestContext ctx(1, build_echo());
  auto echo = ctx.monitor_provided<EchoPort>();

  std::vector<int> got;
  ctx.trigger(echo, make_event<TkPing>(1))
      .trigger(echo, make_event<TkPing>(2))
      .expect<TkPong>(echo, [&](const TkPong& p) { got.push_back(p.n); })
      .expect<TkPong>(echo, [&](const TkPong& p) { return p.n == 2; });
  const Result r = ctx.check();
  EXPECT_TRUE(r.ok) << r.message;
  EXPECT_EQ(got, (std::vector<int>{1}));
  EXPECT_EQ(ctx.buffered(), 0u) << "both pongs were consumed";
}

TEST(TestKitDsl, RepeatExpandsItsBody) {
  TestContext ctx(2, build_echo());
  auto echo = ctx.monitor_provided<EchoPort>();

  std::vector<int> got;
  ctx.trigger(echo, make_event<TkPing>(10, /*fanout=*/3))
      .repeat(3)
      .expect<TkPong>(echo, [&](const TkPong& p) { got.push_back(p.n); })
      .end_repeat();
  const Result r = ctx.check();
  EXPECT_TRUE(r.ok) << r.message;
  EXPECT_EQ(got, (std::vector<int>{10, 11, 12}));
}

TEST(TestKitDsl, EitherRunsTheBranchWhoseHeadMatches) {
  TestContext ctx(3, build_echo());
  auto echo = ctx.monitor_provided<EchoPort>();

  bool took_nine = false, took_seven = false;
  ctx.trigger(echo, make_event<TkPing>(7))
      .either()
      .expect<TkPong>(echo, [](const TkPong& p) { return p.n == 9; })
      .exec([&] { took_nine = true; })
      .or_else()
      .expect<TkPong>(echo, [](const TkPong& p) { return p.n == 7; })
      .exec([&] { took_seven = true; })
      .end_either();
  const Result r = ctx.check();
  EXPECT_TRUE(r.ok) << r.message;
  EXPECT_TRUE(took_seven);
  EXPECT_FALSE(took_nine);
}

TEST(TestKitDsl, UnorderedResolvesRegardlessOfArrivalOrder) {
  TestContext ctx(4, build_echo());
  auto echo = ctx.monitor_provided<EchoPort>();

  // Pongs arrive 1, 2, 3; the set is declared 3, 1, 2.
  std::vector<int> resolved;
  ctx.trigger(echo, make_event<TkPing>(1, /*fanout=*/3))
      .unordered()
      .expect<TkPong>(echo, [&](const TkPong& p) { return p.n == 3 && (resolved.push_back(3), true); })
      .expect<TkPong>(echo, [&](const TkPong& p) { return p.n == 1 && (resolved.push_back(1), true); })
      .expect<TkPong>(echo, [&](const TkPong& p) { return p.n == 2 && (resolved.push_back(2), true); })
      .end_unordered();
  const Result r = ctx.check();
  EXPECT_TRUE(r.ok) << r.message;
  EXPECT_EQ(resolved, (std::vector<int>{1, 2, 3})) << "resolution follows arrival order";
}

TEST(TestKitDsl, ExpectTimesOutInVirtualTime) {
  TestContext ctx(5, build_echo());
  auto echo = ctx.monitor_provided<EchoPort>();
  ctx.attach_sim_timer();

  // The pong is scheduled for t=+2000ms; a 100ms expect must expire first —
  // in virtual time, so the test itself is instant.
  ctx.trigger(echo, make_event<TkPing>(5, 1, /*delay_ms=*/2000))
      .expect_within<TkPong>(100, echo);
  const Result r = ctx.check();
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.message.find("timeout after 100ms"), std::string::npos) << r.message;
  EXPECT_NE(r.message.find("TkPong"), std::string::npos) << r.message;

  // The context stays usable: the delayed pong is still coming.
  const Result r2 = ctx.expect<TkPong>(echo, [](const TkPong& p) { return p.n == 5; }).check();
  EXPECT_TRUE(r2.ok) << r2.message;
  EXPECT_GE(ctx.now(), 2000) << "resolution advanced the virtual clock to the pong";
}

TEST(TestKitDsl, MismatchFailsWithDiffStyleMessage) {
  TestContext ctx(6, build_echo());
  auto echo = ctx.monitor_provided<EchoPort>();

  ctx.trigger(echo, make_event<TkPing>(7))
      .expect<TkPong>(echo, [](const TkPong& p) { return p.n == 8; });
  const Result r = ctx.check();
  ASSERT_FALSE(r.ok);
  // The message must carry the full diff anatomy: the expectation, the
  // observed head, the predicate hint, and the annotated stream tail.
  EXPECT_NE(r.message.find("expected: TkPong out@TkEcho [predicate]"), std::string::npos)
      << r.message;
  EXPECT_NE(r.message.find("observed: TkPong out@TkEcho"), std::string::npos) << r.message;
  EXPECT_NE(r.message.find("predicate rejected"), std::string::npos) << r.message;
  EXPECT_NE(r.message.find("recent stream"), std::string::npos) << r.message;
  EXPECT_NE(r.message.find("IN  TkPing"), std::string::npos)
      << "the stream tail shows the injected ping too:\n" << r.message;
}

TEST(TestKitDsl, WrongTypeMismatchNamesBothTypes) {
  TestContext ctx(7, build_echo());
  auto echo = ctx.monitor_provided<EchoPort>();

  ctx.trigger(echo, make_event<TkPing>(1)).expect<TkPing>(echo);
  const Result r = ctx.check();
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.message.find("expected: TkPing"), std::string::npos) << r.message;
  EXPECT_NE(r.message.find("observed: TkPong"), std::string::npos) << r.message;
}

TEST(TestKitDsl, ExpectSilenceFlagsStrayEvents) {
  TestContext ctx(8, build_echo());
  auto echo = ctx.monitor_provided<EchoPort>();

  const Result quiet = ctx.expect_silence(100).check();
  EXPECT_TRUE(quiet.ok) << quiet.message;

  ctx.trigger(echo, make_event<TkPing>(1)).expect_silence(100);
  const Result r = ctx.check();
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.message.find("expected silence"), std::string::npos) << r.message;
  EXPECT_NE(r.message.find("TkPong"), std::string::npos) << r.message;
}

TEST(TestKitDsl, ForbidFailsTheScriptOnObservation) {
  TestContext ctx(9, build_echo());
  auto echo = ctx.monitor_provided<EchoPort>();

  ctx.forbid<TkPong>(echo);
  ctx.trigger(echo, make_event<TkPing>(3)).settle(50);
  const Result r = ctx.check();
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.message.find("forbidden event observed"), std::string::npos) << r.message;
}

TEST(TestKitDsl, UnclosedBlockIsAScriptError) {
  TestContext ctx(10, build_echo());
  auto echo = ctx.monitor_provided<EchoPort>();

  ctx.repeat(2).expect<TkPong>(echo);  // no end_repeat()
  const Result r = ctx.check();
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.message.find("unclosed block"), std::string::npos) << r.message;
}

}  // namespace
}  // namespace kompics::testkit::test
