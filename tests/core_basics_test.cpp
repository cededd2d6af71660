// Unit tests for the fundamental Kompics concepts of paper §2.1-§2.3:
// events, ports, components, handlers, subscriptions, channels, and
// publish-subscribe dissemination.

#include <gtest/gtest.h>

#include <atomic>

#include "kompics/kompics.hpp"
#include "kompics/work_stealing_scheduler.hpp"

namespace kompics::test {
namespace {

// ---- a tiny protocol ------------------------------------------------------

struct Address {
  int value = 0;
};

class Message : public Event {
  KOMPICS_EVENT(Message, Event);

 public:
  Message(int src, int dst) : source(src), destination(dst) {}
  int source;
  int destination;
};

class DataMessage : public Message {
  KOMPICS_EVENT(DataMessage, Message);

 public:
  DataMessage(int src, int dst, int seq) : Message(src, dst), sequence(seq) {}
  int sequence;
};

class Network : public PortType {
 public:
  Network() {
    set_name("Network");
    positive<Message>();
    negative<Message>();
  }
};

// Counts messages arriving on a required Network port.
class Counter : public ComponentDefinition {
 public:
  Counter() {
    subscribe<Message>(network_, [this](const Message& m) {
      ++count_;
      last_source_ = m.source;
    });
  }

  void send(const EventPtr& e) { trigger(e, network_); }

  Positive<Network> network_ = require<Network>();
  std::atomic<int> count_{0};
  std::atomic<int> last_source_{0};
};

// Echoes every received message back out its provided Network port.
class Echo : public ComponentDefinition {
 public:
  Echo() {
    subscribe<Message>(network_, [this](const Message& m) {
      ++received_;
      trigger(make_event<Message>(m.destination, m.source), network_);
    });
  }

  void trigger_out(const EventPtr& e) { trigger(e, network_); }

  Negative<Network> network_ = provide<Network>();
  std::atomic<int> received_{0};
};

class EmptyMain : public ComponentDefinition {
 public:
  EmptyMain() = default;
};

std::unique_ptr<Runtime> make_runtime(std::size_t workers = 2) {
  return Runtime::threaded(Config{}, workers, /*seed=*/42);
}

// ---- event subtyping ------------------------------------------------------

TEST(Events, SubtypeMatching) {
  DataMessage dm(1, 2, 7);
  EXPECT_TRUE(event_is<Message>(dm));
  EXPECT_TRUE(event_is<DataMessage>(dm));
  EXPECT_TRUE(event_is<Event>(dm));
  Message m(1, 2);
  EXPECT_FALSE(event_is<DataMessage>(m));
}

TEST(Events, PortTypeAllows) {
  const auto& net = port_type<Network>();
  Message m(1, 2);
  DataMessage dm(1, 2, 3);
  Start s;
  EXPECT_TRUE(net.allows(Direction::kPositive, m));
  EXPECT_TRUE(net.allows(Direction::kNegative, dm));  // subtype passes
  EXPECT_FALSE(net.allows(Direction::kPositive, s));

  const auto& ctl = port_type<ControlPort>();
  EXPECT_TRUE(ctl.allows(Direction::kNegative, s));
  EXPECT_FALSE(ctl.allows(Direction::kPositive, s));
}

// ---- basic delivery through a channel (Fig. 2 topology) -------------------

class PairMain : public ComponentDefinition {
 public:
  PairMain() {
    echo = create<Echo>();
    counter = create<Counter>();
    channel = connect(echo.provided<Network>(), counter.required<Network>());
  }
  Component echo, counter;
  ChannelRef channel;
};

TEST(Delivery, ProviderToRequirer) {
  auto rt = make_runtime();
  auto main = rt->bootstrap<PairMain>();
  auto& def = main.definition_as<PairMain>();
  rt->await_quiescence();

  // Trigger an indication out of Echo's provided port: Counter must see it.
  def.echo.definition_as<Echo>().trigger_out(make_event<Message>(5, 6));
  rt->await_quiescence();
  EXPECT_EQ(def.counter.definition_as<Counter>().count_.load(), 1);
  EXPECT_EQ(def.counter.definition_as<Counter>().last_source_.load(), 5);
}

TEST(Delivery, RequesterToProvider) {
  auto rt = make_runtime();
  auto main = rt->bootstrap<PairMain>();
  auto& def = main.definition_as<PairMain>();
  rt->await_quiescence();

  // Send a request from the requirer side: Echo receives it and replies;
  // the reply comes back to Counter through the same channel.
  def.counter.definition_as<Counter>().send(make_event<Message>(10, 20));
  rt->await_quiescence();
  EXPECT_EQ(def.echo.definition_as<Echo>().received_.load(), 1);
  EXPECT_EQ(def.counter.definition_as<Counter>().count_.load(), 1);
  EXPECT_EQ(def.counter.definition_as<Counter>().last_source_.load(), 20);
}

// ---- fan-out (Fig. 6): one provider, two subscribers -----------------------

class FanOutMain : public ComponentDefinition {
 public:
  FanOutMain() {
    echo = create<Echo>();
    c1 = create<Counter>();
    c2 = create<Counter>();
    connect(echo.provided<Network>(), c1.required<Network>());
    connect(echo.provided<Network>(), c2.required<Network>());
  }
  Component echo, c1, c2;
};

TEST(Delivery, FanOutToAllChannels) {
  auto rt = make_runtime();
  auto main = rt->bootstrap<FanOutMain>();
  auto& def = main.definition_as<FanOutMain>();
  rt->await_quiescence();

  def.echo.definition_as<Echo>().trigger_out(make_event<Message>(1, 2));
  rt->await_quiescence();
  EXPECT_EQ(def.c1.definition_as<Counter>().count_.load(), 1);
  EXPECT_EQ(def.c2.definition_as<Counter>().count_.load(), 1);
}

// ---- multiple handlers on one port (Fig. 7) --------------------------------

class TwoHandlers : public ComponentDefinition {
 public:
  TwoHandlers() {
    subscribe<Message>(network_, [this](const Message&) { order.push_back(1); });
    subscribe<Message>(network_, [this](const Message&) { order.push_back(2); });
  }
  Positive<Network> network_ = require<Network>();
  std::vector<int> order;
};

class TwoHandlerMain : public ComponentDefinition {
 public:
  TwoHandlerMain() {
    echo = create<Echo>();
    two = create<TwoHandlers>();
    connect(echo.provided<Network>(), two.required<Network>());
  }
  Component echo, two;
};

TEST(Delivery, AllCompatibleHandlersRunInSubscriptionOrder) {
  auto rt = make_runtime();
  auto main = rt->bootstrap<TwoHandlerMain>();
  auto& def = main.definition_as<TwoHandlerMain>();
  rt->await_quiescence();

  def.echo.definition_as<Echo>().trigger_out(make_event<Message>(1, 2));
  rt->await_quiescence();
  ASSERT_EQ(def.two.definition_as<TwoHandlers>().order.size(), 2u);
  EXPECT_EQ(def.two.definition_as<TwoHandlers>().order[0], 1);
  EXPECT_EQ(def.two.definition_as<TwoHandlers>().order[1], 2);
}

// ---- unsubscribe during handling (§2.2's reply-once example) ---------------

class ReplyOnce : public ComponentDefinition {
 public:
  ReplyOnce() {
    sub_ = subscribe<Message>(network_, [this](const Message& m) {
      ++handled_;
      trigger(make_event<Message>(m.destination, m.source), network_);
      unsubscribe(sub_);
    });
  }
  Positive<Network> network_ = require<Network>();
  SubscriptionRef sub_;
  int handled_ = 0;
};

class ReplyOnceMain : public ComponentDefinition {
 public:
  ReplyOnceMain() {
    echo = create<Echo>();
    once = create<ReplyOnce>();
    connect(echo.provided<Network>(), once.required<Network>());
  }
  Component echo, once;
};

TEST(Subscriptions, UnsubscribeStopsFurtherDelivery) {
  auto rt = make_runtime();
  auto main = rt->bootstrap<ReplyOnceMain>();
  auto& def = main.definition_as<ReplyOnceMain>();
  rt->await_quiescence();

  auto& echo = def.echo.definition_as<Echo>();
  echo.trigger_out(make_event<Message>(1, 2));
  rt->await_quiescence();
  echo.trigger_out(make_event<Message>(3, 4));
  rt->await_quiescence();

  EXPECT_EQ(def.once.definition_as<ReplyOnce>().handled_, 1);
  // ReplyOnce replied exactly once; Echo receives the reply and echoes it
  // back, but by then ReplyOnce is unsubscribed.
  EXPECT_EQ(echo.received_.load(), 1);
}

// ---- direction enforcement -------------------------------------------------

class BadTrigger : public ComponentDefinition {
 public:
  BadTrigger() = default;
  void attempt() {
    // Start is not allowed on Network in any direction.
    trigger(make_event<Start>(), network_);
  }
  Positive<Network> network_ = require<Network>();
};

TEST(Ports, TriggerRejectsDisallowedEventTypes) {
  auto rt = make_runtime();
  auto main = rt->bootstrap<EmptyMain>();
  rt->await_quiescence();
  auto child = rt->create_component<BadTrigger>(main.core());
  EXPECT_THROW(child.definition_as<BadTrigger>().attempt(), std::logic_error);
}

}  // namespace
}  // namespace kompics::test
