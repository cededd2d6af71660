// pingpong — the smallest possible Kompics program: two components wired
// through a channel, bouncing an event back and forth N times under the
// multi-core scheduler. Start here to learn the API surface:
// events, port types, provide/require, subscribe, trigger, connect.

#include <cstdio>
#include <cstdlib>

#include "kompics/kompics.hpp"

using namespace kompics;

// 1. Events: immutable typed objects (subtyping = C++ inheritance).
class Ball : public Event {
  KOMPICS_EVENT(Ball, Event);

 public:
  explicit Ball(int bounce) : bounce(bounce) {}
  int bounce;
};

// 2. A port type: Ball travels in both directions of a PingPong port.
class PingPong : public PortType {
 public:
  PingPong() {
    set_name("PingPong");
    positive<Ball>();
    negative<Ball>();
  }
};

// 3. The server: provides the port, returns every ball it receives.
class Ponger : public ComponentDefinition {
 public:
  Ponger() {
    subscribe<Ball>(port_, [this](const Ball& b) {
      trigger(make_event<Ball>(b.bounce), port_);  // send it right back
    });
  }

 private:
  Negative<PingPong> port_ = provide<PingPong>();
};

// 4. The client: requires the port, counts bounces, serves the first ball.
class Pinger : public ComponentDefinition {
 public:
  explicit Pinger(int rounds) : rounds_(rounds) {
    subscribe<Ball>(port_, [this](const Ball& b) {
      if (b.bounce >= rounds_) {
        std::printf("rally over after %d bounces\n", b.bounce);
        return;
      }
      trigger(make_event<Ball>(b.bounce + 1), port_);
    });
    subscribe<Start>(control(), [this](const Start&) {
      std::printf("serving...\n");
      trigger(make_event<Ball>(1), port_);
    });
  }

 private:
  Positive<PingPong> port_ = require<PingPong>();
  int rounds_;
};

// 5. The root composite: creates both and connects them (paper §2.1 "Main").
class Main : public ComponentDefinition {
 public:
  explicit Main(int rounds) {
    auto ponger = create<Ponger>();
    auto pinger = create<Pinger>(rounds);
    connect(ponger.provided<PingPong>(), pinger.required<PingPong>());
  }
};

int main(int argc, char** argv) {
  const int rounds = argc > 1 ? std::atoi(argv[1]) : 100000;
  auto runtime = Runtime::threaded();
  runtime->bootstrap<Main>(rounds);   // creates AND starts the root (§2.4)
  runtime->await_quiescence();        // rally finished: no pending work
  return 0;
}
