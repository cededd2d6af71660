// Coroutine protocol layer (protocol.hpp, DESIGN.md §9): request/response
// correlation and predicates on buffered streams, timeouts and deadlines on
// the Timer port, when_any fan-out, nested Proto composition, fault
// escalation, and the destroy-cancellation contract (an in-flight frame
// destroyed with its component must cancel its armed timeouts — the
// ThreadTimer-leak class).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <thread>

#include "kompics/kompics.hpp"
#include "kompics/protocol.hpp"
#include "timing/thread_timer.hpp"

namespace kompics::test {
namespace {

using timing::ThreadTimer;
using timing::Timer;

class Ping : public Event {
  KOMPICS_EVENT(Ping, Event);

 public:
  explicit Ping(int id, int replies = 1) : id(id), replies(replies) {}
  int id;
  int replies;
};

class Pong : public Event {
  KOMPICS_EVENT(Pong, Event);

 public:
  explicit Pong(int id) : id(id) {}
  int id;
};

class PingPongPort : public PortType {
 public:
  PingPongPort() {
    set_name("PingPong");
    request<Ping>();
    indication<Pong>();
  }
};

/// Answers Ping(id, n) with Pong(id), Pong(id+1), ..., Pong(id+n-1).
/// With reply_odd false, pings with odd ids are silently dropped (the
/// "server never answers" case for timeout tests).
class PongService : public ComponentDefinition {
 public:
  PongService() {
    subscribe<Ping>(svc_, [this](const Ping& p) {
      if (p.id % 2 != 0 && !reply_odd.load()) return;
      for (int i = 0; i < p.replies; ++i) trigger(make_event<Pong>(p.id + i), svc_);
    });
  }

  void emit(int id) { trigger(make_event<Pong>(id), svc_); }

  Negative<PingPongPort> svc_ = provide<PingPongPort>();
  std::atomic<bool> reply_odd{true};
};

class ProtoClient : public ComponentDefinition {
 public:
  Positive<PingPongPort> svc_ = require<PingPongPort>();
  Positive<Timer> timer_ = require<Timer>();

  std::atomic<int> last{-1};
  std::atomic<int> outcome{0};  // 1 = response, 2 = timeout, 3 = caught child error
  std::atomic<int> sum{0};
  std::atomic<int> done{0};

  /// A correlated request: open the reply stream, then trigger the Ping,
  /// so the Pong cannot arrive before the subscription exists.
  protocol::Proto<void> request_once(int id) {
    auto pongs = co_await svc_.open<Pong>([id](const Pong& p) { return p.id == id; });
    trigger(make_event<Ping>(id), svc_);
    auto pong = co_await pongs.next();
    last.store(pong->id);
    done.fetch_add(1);
  }

  protocol::Proto<void> await_next_matching(int want) {
    auto pongs = co_await svc_.open<Pong>([want](const Pong& p) { return p.id == want; });
    auto pong = co_await pongs.next();
    last.store(pong->id);
    done.fetch_add(1);
  }

  protocol::Proto<void> request_with_timeout(int id, std::int64_t ms) {
    auto pongs = co_await svc_.open<Pong>([id](const Pong& p) { return p.id == id; });
    trigger(make_event<Ping>(id), svc_);
    auto r = co_await protocol::when_any(pongs.next(), protocol::sleep(timer_, ms));
    if (r.index() == 0) {
      last.store(std::get<0>(r)->id);
      outcome.store(1);
    } else {
      outcome.store(2);
    }
    done.fetch_add(1);
  }

  protocol::Proto<void> consume_burst(int id, int n) {
    auto pongs = co_await svc_.open<Pong>(
        [id, n](const Pong& p) { return p.id >= id && p.id < id + n; });
    trigger(make_event<Ping>(id, n), svc_);
    int total = 0;
    for (int i = 0; i < n; ++i) {
      auto p = co_await pongs.next();
      total += p->id;
    }
    sum.store(total);
    done.fetch_add(1);
  }

  /// One deadline spanning two request phases (the per-attempt-timeout
  /// shape every retried quorum protocol needs).
  protocol::Proto<void> two_phases_one_deadline(int a, int b, std::int64_t ms) {
    auto deadline = co_await protocol::arm_timer(timer_, ms);
    auto first = co_await svc_.open<Pong>([a](const Pong& p) { return p.id == a; });
    trigger(make_event<Ping>(a), svc_);
    auto r1 = co_await protocol::when_any(first.next(), deadline.wait());
    if (r1.index() == 1) {
      outcome.store(2);
      done.fetch_add(1);
      co_return;
    }
    auto second = co_await svc_.open<Pong>([b](const Pong& p) { return p.id == b; });
    trigger(make_event<Ping>(b), svc_);
    auto r2 = co_await protocol::when_any(second.next(), deadline.wait());
    outcome.store(r2.index() == 0 ? 1 : 2);
    done.fetch_add(1);
  }

  protocol::Proto<int> child_fetch(int id) {
    auto pongs = co_await svc_.open<Pong>([id](const Pong& p) { return p.id == id; });
    trigger(make_event<Ping>(id), svc_);
    auto pong = co_await pongs.next();
    co_return pong->id;
  }

  protocol::Proto<void> nested(int a, int b) {
    int x = co_await child_fetch(a);
    int y = co_await child_fetch(b);
    sum.store(x + y);
    done.fetch_add(1);
  }

  protocol::Proto<int> throwing_child() {
    co_await protocol::sleep(timer_, 5);
    throw std::runtime_error("child failed");
    co_return 0;  // unreachable
  }

  protocol::Proto<void> nested_catch() {
    try {
      (void)co_await throwing_child();
      outcome.store(-1);
    } catch (const std::runtime_error&) {
      outcome.store(3);
    }
    done.fetch_add(1);
  }

  /// Parks on an event that never arrives, with an armed timeout: the
  /// shape destroyed mid-flight by the destroy-cancellation tests.
  protocol::Proto<void> park_with_timeout(std::int64_t ms) {
    auto never = co_await svc_.open<Pong>([](const Pong& p) { return p.id == 999999; });
    auto r = co_await protocol::when_any(never.next(), protocol::sleep(timer_, ms));
    (void)r;
    done.fetch_add(1);
  }

  protocol::Proto<void> faulting_frame() {
    co_await protocol::sleep(timer_, 5);
    throw std::runtime_error("frame fault");
  }
};

class ProtoMain : public ComponentDefinition {
 public:
  ProtoMain() {
    timer = create<ThreadTimer>();
    service = create<PongService>();
    client = create<ProtoClient>();
    connect(service.provided<PingPongPort>(), client.required<PingPongPort>());
    connect(timer.provided<Timer>(), client.required<Timer>());
  }
  void kill_client() { destroy(client); }
  Component timer, service, client;
};

struct ProtocolFixture : ::testing::Test {
  void SetUp() override {
    rt = Runtime::threaded(Config{}, 2, 1);
    main = rt->bootstrap<ProtoMain>();
    rt->await_quiescence();
    client = &main.definition_as<ProtoMain>().client.definition_as<ProtoClient>();
    service = &main.definition_as<ProtoMain>().service.definition_as<PongService>();
    timer = &main.definition_as<ProtoMain>().timer.definition_as<ThreadTimer>();
  }
  void wait_until(std::function<bool()> cond, int ms_budget) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(ms_budget);
    while (!cond() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  std::size_t live_frames() const {
    auto* host = client->protocol_host();
    return host == nullptr ? 0 : host->live_frame_count();
  }

  std::unique_ptr<Runtime> rt;
  Component main;
  ProtoClient* client = nullptr;
  PongService* service = nullptr;
  ThreadTimer* timer = nullptr;
};

TEST_F(ProtocolFixture, RequestResponseRoundTrip) {
  protocol::spawn(client->request_once(4));
  wait_until([&] { return client->done.load() >= 1; }, 2000);
  EXPECT_EQ(client->done.load(), 1);
  EXPECT_EQ(client->last.load(), 4);
  rt->await_quiescence();
  EXPECT_EQ(live_frames(), 0u) << "completed frame must retire";
}

TEST_F(ProtocolFixture, NextWithPredicateSkipsNonMatching) {
  protocol::spawn(client->await_next_matching(5));
  EXPECT_EQ(live_frames(), 1u) << "frame must be live after spawn returns";
  // spawn() from a test thread defers the frame's first segment onto the
  // component's work queue; quiesce so its subscription is registered
  // before the pongs fly (events with no matching subscription are dropped).
  rt->await_quiescence();
  service->emit(3);
  service->emit(4);
  service->emit(5);
  wait_until([&] { return client->done.load() >= 1; }, 2000);
  EXPECT_EQ(client->last.load(), 5);
  rt->await_quiescence();
  EXPECT_EQ(live_frames(), 0u);
}

TEST_F(ProtocolFixture, WhenAnyTimesOutWhenServiceStaysSilent) {
  service->reply_odd.store(false);
  protocol::spawn(client->request_with_timeout(3, 40));
  wait_until([&] { return client->done.load() >= 1; }, 3000);
  EXPECT_EQ(client->outcome.load(), 2);
  // The fired timeout must leave no bookkeeping behind.
  wait_until([&] { return timer->armed_timeouts() == 0; }, 2000);
  EXPECT_EQ(timer->armed_timeouts(), 0u);
}

TEST_F(ProtocolFixture, WhenAnyWinnerCancelsLosingTimeout) {
  protocol::spawn(client->request_with_timeout(4, 1500));
  wait_until([&] { return client->done.load() >= 1; }, 2000);
  EXPECT_EQ(client->outcome.load(), 1);
  EXPECT_EQ(client->last.load(), 4);
  // The losing sleep must be cancelled through the Timer port, not left to
  // fire into a dead subscription (the timer-leak class). Cancellation is
  // exact, so it is disarmed well before its 1500 ms deadline.
  wait_until([&] { return timer->armed_timeouts() == 0; }, 1000);
  EXPECT_EQ(timer->armed_timeouts(), 0u) << "loser timeout was not cancelled";
}

TEST_F(ProtocolFixture, StreamBuffersBurstAcrossSuspensions) {
  // 50 responses arrive in one burst while the frame is parked; the open
  // stream must hand over every single one (the quorum-collection property).
  protocol::spawn(client->consume_burst(100, 50));
  wait_until([&] { return client->done.load() >= 1; }, 3000);
  int expected = 0;
  for (int i = 100; i < 150; ++i) expected += i;
  EXPECT_EQ(client->sum.load(), expected);
}

TEST_F(ProtocolFixture, ArmedDeadlineSpansPhasesAndCancelsOnDrop) {
  protocol::spawn(client->two_phases_one_deadline(2, 4, 1500));
  wait_until([&] { return client->done.load() >= 1; }, 2000);
  EXPECT_EQ(client->outcome.load(), 1);
  // Deadline never fired; ArmedTimer destruction must cancel it, well
  // before its 1500 ms deadline.
  wait_until([&] { return timer->armed_timeouts() == 0; }, 1000);
  EXPECT_EQ(timer->armed_timeouts(), 0u) << "dropped deadline was not cancelled";
}

TEST_F(ProtocolFixture, ArmedDeadlineFiresAcrossPhases) {
  service->reply_odd.store(false);
  protocol::spawn(client->two_phases_one_deadline(3, 5, 50));
  wait_until([&] { return client->done.load() >= 1; }, 3000);
  EXPECT_EQ(client->outcome.load(), 2);
}

TEST_F(ProtocolFixture, NestedProtoChildrenComposeOnOneFrame) {
  protocol::spawn(client->nested(10, 20));
  wait_until([&] { return client->done.load() >= 1; }, 2000);
  EXPECT_EQ(client->sum.load(), 30);
  rt->await_quiescence();
  EXPECT_EQ(live_frames(), 0u);
}

TEST_F(ProtocolFixture, ChildExceptionPropagatesToAwaitingParent) {
  protocol::spawn(client->nested_catch());
  wait_until([&] { return client->done.load() >= 1; }, 2000);
  EXPECT_EQ(client->outcome.load(), 3);
}

TEST_F(ProtocolFixture, LiveFrameAccountingTracksParkedFrames) {
  protocol::spawn(client->await_next_matching(201));
  protocol::spawn(client->await_next_matching(202));
  protocol::spawn(client->await_next_matching(203));
  EXPECT_EQ(live_frames(), 3u);
  rt->await_quiescence();  // all three subscriptions registered before any emit
  service->emit(202);
  wait_until([&] { return client->done.load() >= 1; }, 2000);
  rt->await_quiescence();
  EXPECT_EQ(live_frames(), 2u);
  service->emit(201);
  service->emit(203);
  wait_until([&] { return client->done.load() >= 3; }, 2000);
  rt->await_quiescence();
  EXPECT_EQ(live_frames(), 0u);
}

// ---- destroy cancellation (timer leak regression) ---------------------------

TEST_F(ProtocolFixture, DestroyCancelsParkedFrameAndItsArmedTimeout) {
  protocol::spawn(client->park_with_timeout(1500));
  rt->await_quiescence();
  EXPECT_EQ(live_frames(), 1u);
  wait_until([&] { return timer->armed_timeouts() >= 1; }, 2000);
  ASSERT_GE(timer->armed_timeouts(), 1u);

  // Destroying the component mid-await must cancel the armed timeout via
  // the Timer port while channels are still attached, well before its
  // 1500 ms deadline. The frame itself is destroyed, never resumed, with no
  // use-after-free (ASan) or race (TSan).
  main.definition_as<ProtoMain>().kill_client();
  client = nullptr;  // dangling after destroy
  wait_until([&] { return timer->armed_timeouts() == 0; }, 1000);
  EXPECT_EQ(timer->armed_timeouts(), 0u) << "destroy leaked the frame's armed timeout";
}

// ---- fault escalation -------------------------------------------------------

class FaultMain : public ComponentDefinition {
 public:
  FaultMain() {
    timer = create<ThreadTimer>();
    service = create<PongService>();
    client = create<ProtoClient>();
    connect(service.provided<PingPongPort>(), client.required<PingPongPort>());
    connect(timer.provided<Timer>(), client.required<Timer>());
    subscribe<Fault>(client.control(), [this](const Fault& f) {
      last_fault = f.what();
      faults.fetch_add(1);  // release: publishes last_fault to the test thread
    });
  }
  Component timer, service, client;
  std::string last_fault;
  std::atomic<int> faults{0};
};

TEST(ProtocolFaults, FrameExceptionEscalatesLikeHandlerFault) {
  auto rt = Runtime::threaded(Config{}, 2, 1);
  auto main = rt->bootstrap<FaultMain>();
  rt->await_quiescence();
  auto& m = main.definition_as<FaultMain>();

  protocol::spawn(m.client.definition_as<ProtoClient>().faulting_frame());
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(3);
  while (m.faults.load() < 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(m.faults.load(), 1);
  EXPECT_EQ(m.last_fault, "frame fault");
  EXPECT_FALSE(rt->faulted()) << "supervised frame fault must not reach the top";
}

}  // namespace
}  // namespace kompics::test
