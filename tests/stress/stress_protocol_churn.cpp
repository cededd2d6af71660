// Stress driver: the coroutine protocol layer under scale and churn. Ten
// thousand frames park concurrently, each awaiting a correlated response
// with an armed timeout (when_any(stream.next(), sleep) — the
// quorum-protocol shape), while most of their owning components are
// destroyed mid-flight.
// Verifies, at scale, the destroy-cancellation contract (destroy cancels
// every parked frame AND its armed timeout; a fired-after-death timeout
// resuming a dead frame would crash or trip TSan), that survivors keep
// completing through the churn, and that the timer ends the run with zero
// armed timeouts — the timer-leak class.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "kompics/kompics.hpp"
#include "kompics/protocol.hpp"
#include "stress_util.hpp"
#include "timing/thread_timer.hpp"

namespace kompics::test {
namespace {

using timing::ThreadTimer;
using timing::Timer;

class CPing : public Event {
  KOMPICS_EVENT(CPing, Event);

 public:
  explicit CPing(std::int64_t id) : id(id) {}
  std::int64_t id;
};

class CPong : public Event {
  KOMPICS_EVENT(CPong, Event);

 public:
  explicit CPong(std::int64_t id) : id(id) {}
  std::int64_t id;
};

class ChurnPort : public PortType {
 public:
  ChurnPort() {
    set_name("ProtoChurn");
    request<CPing>();
    indication<CPong>();
  }
};

/// Deliberately mute: pings park their frames; the driver answers by id.
class MuteService : public ComponentDefinition {
 public:
  MuteService() {
    subscribe<CPing>(svc_, [](const CPing&) {});
  }
  void answer(std::int64_t id) { trigger(make_event<CPong>(id), svc_); }
  Negative<ChurnPort> svc_ = provide<ChurnPort>();
};

class AwaitClient : public ComponentDefinition {
 public:
  Positive<ChurnPort> svc_ = require<ChurnPort>();
  Positive<Timer> timer_ = require<Timer>();

  std::atomic<long> responses{0};
  std::atomic<long> timeouts{0};

  long done() const { return responses.load() + timeouts.load(); }

  protocol::Proto<void> one_await(std::int64_t id, std::int64_t timeout_ms) {
    auto pongs = co_await svc_.open<CPong>([id](const CPong& p) { return p.id == id; });
    trigger(make_event<CPing>(id), svc_);
    auto r = co_await protocol::when_any(pongs.next(), protocol::sleep(timer_, timeout_ms));
    (r.index() == 0 ? responses : timeouts).fetch_add(1);
  }

  std::size_t live_frames() const {
    auto* host = protocol_host();
    return host == nullptr ? 0 : host->live_frame_count();
  }
};

class ChurnMain : public ComponentDefinition {
 public:
  static constexpr int kClients = 8;

  ChurnMain() {
    timer = create<ThreadTimer>();
    service = create<MuteService>();
    for (int i = 0; i < kClients; ++i) {
      clients[i] = create<AwaitClient>();
      connect(service.provided<ChurnPort>(), clients[i].required<ChurnPort>());
      connect(timer.provided<Timer>(), clients[i].required<Timer>());
    }
  }
  void kill(int i) { destroy(clients[i]); }

  Component timer, service;
  Component clients[kClients];
};

TEST(StressProtocol, TenThousandConcurrentAwaitsSurviveDestroyChurn) {
  stress::announce_seed("StressProtocol.AwaitChurn");
  const int kPerClient = 1250 * stress::scale();  // 8 clients -> 10k frames
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  // Sanitizer builds run an order of magnitude slower: queueing 10k frame
  // starts can outlast a 2s deadline, so early frames would time out and
  // retire before the parked-count assert. Stretch the deadline, keep the
  // workload.
  const std::int64_t kTimeoutMs = 20000;
#else
  const std::int64_t kTimeoutMs = 2000;
#endif
  const int kUnanswered = 100;  // per survivor: frames left to their timeout
  // Frames that will be answered get a deadline that cannot expire during
  // the test, so a slow host delays their answers but never turns one into
  // a timeout; only the starved frames run on kTimeoutMs.
  const std::int64_t kAnsweredTimeoutMs = 24LL * 3600 * 1000;
  auto starved = [&](int k) { return k % kPerClient >= kPerClient - kUnanswered; };
  auto timeout_for = [&](int k) { return starved(k) ? kTimeoutMs : kAnsweredTimeoutMs; };

  auto rt = Runtime::threaded(Config{}, 4, 1);
  auto main = rt->bootstrap<ChurnMain>();
  rt->await_quiescence();
  auto& world = main.definition_as<ChurnMain>();
  auto& timer = world.timer.definition_as<ThreadTimer>();
  auto& service = world.service.definition_as<MuteService>();
  AwaitClient* clients[ChurnMain::kClients];
  for (int i = 0; i < ChurnMain::kClients; ++i) {
    clients[i] = &world.clients[i].definition_as<AwaitClient>();
  }
  auto id_of = [](int client, int k) {
    return static_cast<std::int64_t>(client) * 1'000'000 + k;
  };

  // Park 10k frames, each holding a correlated-response subscription and an
  // armed timeout.
  for (int c = 0; c < ChurnMain::kClients; ++c) {
    for (int k = 0; k < kPerClient; ++k) {
      protocol::spawn(clients[c]->one_await(id_of(c, k), timeout_for(k)));
    }
  }
  rt->await_quiescence();
  std::size_t parked = 0;
  for (int c = 0; c < ChurnMain::kClients; ++c) parked += clients[c]->live_frames();
  ASSERT_EQ(parked, static_cast<std::size_t>(ChurnMain::kClients) * kPerClient)
      << "every await must be parked before the churn starts";

  // Destroy six of the eight clients mid-flight: 7500 parked frames unwind,
  // each cancelling its armed timeout through the port.
  for (int c = 2; c < ChurnMain::kClients; ++c) world.kill(c);
  rt->await_quiescence();

  // Survivors keep working through the wreckage: a second wave on top of
  // the first, then answers for everything except the last kUnanswered ids
  // of each wave (those must complete via their timeout instead).
  for (int c = 0; c < 2; ++c) {
    for (int k = kPerClient; k < 2 * kPerClient; ++k) {
      protocol::spawn(clients[c]->one_await(id_of(c, k), timeout_for(k)));
    }
  }
  // External-thread spawns start on the work queue; quiesce so every
  // second-wave frame holds its correlated subscription before the answers
  // arrive (an unmatched CPong is dropped, not buffered).
  rt->await_quiescence();
  for (int c = 0; c < 2; ++c) {
    for (int k = 0; k < 2 * kPerClient; ++k) {
      if (!starved(k)) service.answer(id_of(c, k));
    }
  }

  const long expect_responses = 2L * 2 * (kPerClient - kUnanswered);
  const long expect_timeouts = 2L * 2 * kUnanswered;
  ASSERT_TRUE(stress::spin_until(
      [&] {
        return clients[0]->done() + clients[1]->done() ==
               expect_responses + expect_timeouts;
      },
      static_cast<int>(kTimeoutMs) + 30000))
      << "survivor awaits must all complete (got "
      << clients[0]->done() + clients[1]->done() << " of "
      << expect_responses + expect_timeouts << ")";
  EXPECT_EQ(clients[0]->responses.load() + clients[1]->responses.load(), expect_responses);
  EXPECT_EQ(clients[0]->timeouts.load() + clients[1]->timeouts.load(), expect_timeouts);

  rt->await_quiescence();
  EXPECT_EQ(clients[0]->live_frames(), 0u) << "completed frames must retire";
  EXPECT_EQ(clients[1]->live_frames(), 0u);

  // The leak-class check at scale: the timer must hold zero armed
  // timeouts — every one of the ~12.5k armed sleeps either fired or was
  // cancelled by frame unwind (destroy churn or when_any loser cleanup).
  ASSERT_TRUE(stress::spin_until([&] { return timer.armed_timeouts() == 0; },
                                 static_cast<int>(kTimeoutMs) + 30000))
      << "armed timeouts leaked: " << timer.armed_timeouts();
}

}  // namespace
}  // namespace kompics::test
