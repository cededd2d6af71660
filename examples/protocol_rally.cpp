// protocol_rally — the pingpong rally, rewritten on the coroutine protocol
// layer (DESIGN.md §9). Where pingpong.cpp reassembles the rally from
// stateless handler invocations, here the whole exchange is one function:
// serve, await the correlated return with a deadline, repeat. Run both and
// diff — same ports, same events, same scheduler; only the control flow
// moved from a callback state machine into a `Proto<void>` coroutine.

#include <cstdio>
#include <cstdlib>

#include "kompics/kompics.hpp"
#include "kompics/protocol.hpp"
#include "timing/thread_timer.hpp"

using namespace kompics;

class Ball : public Event {
  KOMPICS_EVENT(Ball, Event);

 public:
  explicit Ball(int bounce) : bounce(bounce) {}
  int bounce;
};

class PingPong : public PortType {
 public:
  PingPong() {
    set_name("PingPong");
    positive<Ball>();
    negative<Ball>();
  }
};

// The server side is unchanged from pingpong.cpp: a protocol peer never
// knows (or cares) whether the other end is a handler or a coroutine.
class Ponger : public ComponentDefinition {
 public:
  Ponger() {
    subscribe<Ball>(port_, [this](const Ball& b) {
      trigger(make_event<Ball>(b.bounce), port_);
    });
  }

 private:
  Negative<PingPong> port_ = provide<PingPong>();
};

class Pinger : public ComponentDefinition {
 public:
  explicit Pinger(int rounds) {
    subscribe<Start>(control(), [this, rounds](const Start&) {
      std::printf("serving...\n");
      protocol::spawn(rally(rounds));  // start the frame from any handler
    });
  }

 private:
  // The whole rally, straight-line. Each lap: trigger a Ball, suspend until
  // the echo with the matching bounce comes back — or a 1 s deadline fires.
  // Suspension parks the frame inside the component (a worker is never
  // blocked); the echo resumes it as an ordinary work item.
  protocol::Proto<void> rally(int rounds) {
    for (int i = 1; i <= rounds; ++i) {
      auto r = co_await protocol::when_any(
          port_.request<Ball>(Ball(i), [i](const Ball& b) { return b.bounce == i; }),
          protocol::sleep(timer_, 1000));
      if (r.index() == 1) {
        std::printf("lost the ball at bounce %d\n", i);
        co_return;
      }
    }
    std::printf("rally over after %d bounces\n", rounds);
  }

  Positive<PingPong> port_ = require<PingPong>();
  Positive<timing::Timer> timer_ = require<timing::Timer>();
};

class Main : public ComponentDefinition {
 public:
  explicit Main(int rounds) {
    auto timer = create<timing::ThreadTimer>();
    auto ponger = create<Ponger>();
    auto pinger = create<Pinger>(rounds);
    connect(ponger.provided<PingPong>(), pinger.required<PingPong>());
    connect(timer.provided<timing::Timer>(), pinger.required<timing::Timer>());
  }
};

int main(int argc, char** argv) {
  const int rounds = argc > 1 ? std::atoi(argv[1]) : 100000;
  auto runtime = Runtime::threaded();
  runtime->bootstrap<Main>(rounds);
  runtime->await_quiescence();
  return 0;
}
