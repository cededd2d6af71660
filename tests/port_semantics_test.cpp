// Deep tests of the event-propagation rule (DESIGN.md §2.2 / paper §2.3):
// composite pass-through across multiple hierarchy levels, parent
// subscriptions on child ports, absence of loop-back, per-direction
// filtering by port types, subtype-based delivery, and the per-half
// interest filter that prunes dispatch before the subscription scan.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "kompics/kompics.hpp"

namespace kompics::test {
namespace {

class Req : public Event {
  KOMPICS_EVENT(Req, Event);

 public:
  explicit Req(int n) : n(n) {}
  int n;
};
class Ind : public Event {
  KOMPICS_EVENT(Ind, Event);

 public:
  explicit Ind(int n) : n(n) {}
  int n;
};
class SpecialInd : public Ind {
  KOMPICS_EVENT(SpecialInd, Ind);

 public:
  explicit SpecialInd(int n) : Ind(n) {}
};

class Svc : public PortType {
 public:
  Svc() {
    set_name("Svc");
    request<Req>();
    indication<Ind>();
  }
};

/// Leaf server: answers Req(n) with Ind(n * 10); odd n get a SpecialInd.
class Leaf : public ComponentDefinition {
 public:
  Leaf() {
    subscribe<Req>(svc_, [this](const Req& r) {
      ++served;
      if (r.n % 2 == 1) {
        trigger(make_event<SpecialInd>(r.n * 10), svc_);
      } else {
        trigger(make_event<Ind>(r.n * 10), svc_);
      }
    });
  }
  Negative<Svc> svc_ = provide<Svc>();
  int served = 0;
};

/// Composite that simply re-exports a child's provided Svc (pass-through).
class Wrapper : public ComponentDefinition {
 public:
  Wrapper() {
    inner = create<Leaf>();
    connect(inner.provided<Svc>(), svc_);  // child's outside + to own inside -
  }
  Negative<Svc> svc_ = provide<Svc>();
  Component inner;
};

/// Two levels of wrapping: requests must descend 2 composite boundaries,
/// indications must ascend them.
class DoubleWrapper : public ComponentDefinition {
 public:
  DoubleWrapper() {
    mid = create<Wrapper>();
    connect(mid.provided<Svc>(), svc_);
  }
  Negative<Svc> svc_ = provide<Svc>();
  Component mid;
};

class Client : public ComponentDefinition {
 public:
  Client() {
    subscribe<Ind>(svc_, [this](const Ind& i) { inds.push_back(i.n); });
    subscribe<SpecialInd>(svc_, [this](const SpecialInd& i) { specials.push_back(i.n); });
  }
  void ask(int n) { trigger(make_event<Req>(n), svc_); }
  Positive<Svc> svc_ = require<Svc>();
  std::vector<int> inds;
  std::vector<int> specials;
};

class DeepMain : public ComponentDefinition {
 public:
  DeepMain() {
    server = create<DoubleWrapper>();
    client = create<Client>();
    connect(server.provided<Svc>(), client.required<Svc>());

    // Parent-scope subscription on a child's port (paper §2.3: "the ports
    // visible in a component's scope are its own ports and the ports of its
    // immediate sub-components").
    subscribe<Ind>(server.provided<Svc>(), [this](const Ind& i) { observed.push_back(i.n); });
  }
  Component server, client;
  std::vector<int> observed;
};

std::unique_ptr<Runtime> make_runtime() { return Runtime::threaded(Config{}, 2, 5); }

TEST(PortSemantics, RequestsDescendAndIndicationsAscendTwoCompositeLevels) {
  auto rt = make_runtime();
  auto main = rt->bootstrap<DeepMain>();
  auto& def = main.definition_as<DeepMain>();
  rt->await_quiescence();

  def.client.definition_as<Client>().ask(2);
  def.client.definition_as<Client>().ask(4);
  rt->await_quiescence();

  auto& leaf = def.server.definition_as<DoubleWrapper>()
                   .mid.definition_as<Wrapper>()
                   .inner.definition_as<Leaf>();
  EXPECT_EQ(leaf.served, 2) << "requests must reach the leaf through 2 composites";
  EXPECT_EQ(def.client.definition_as<Client>().inds, (std::vector<int>{20, 40}));
}

TEST(PortSemantics, ParentObservesChildPortTraffic) {
  auto rt = make_runtime();
  auto main = rt->bootstrap<DeepMain>();
  auto& def = main.definition_as<DeepMain>();
  rt->await_quiescence();

  def.client.definition_as<Client>().ask(6);
  rt->await_quiescence();
  // Main's own handler subscribed on the composite's provided port sees the
  // outgoing indication, in addition to the client receiving it.
  EXPECT_EQ(def.observed, (std::vector<int>{60}));
  EXPECT_EQ(def.client.definition_as<Client>().inds, (std::vector<int>{60}));
}

TEST(PortSemantics, SubtypeHandlersFireAlongsideBaseHandlers) {
  auto rt = make_runtime();
  auto main = rt->bootstrap<DeepMain>();
  auto& def = main.definition_as<DeepMain>();
  rt->await_quiescence();

  def.client.definition_as<Client>().ask(3);  // odd -> SpecialInd
  rt->await_quiescence();
  auto& client = def.client.definition_as<Client>();
  // SpecialInd IS-A Ind: both subscriptions fire for the one event.
  EXPECT_EQ(client.inds, (std::vector<int>{30}));
  EXPECT_EQ(client.specials, (std::vector<int>{30}));
}

// ---- no loop-back ------------------------------------------------------------

class Chatty : public ComponentDefinition {
 public:
  Chatty() {
    // Subscribes to requests on its own *provided* port AND triggers
    // requests... no: it provides Svc and also handles Ind? A provider
    // receives Req; if its own triggered Ind looped back, this handler
    // chain would recurse. Count any Req received.
    subscribe<Req>(svc_, [this](const Req&) {
      ++requests_seen;
      trigger(make_event<Ind>(1), svc_);
    });
  }
  Negative<Svc> svc_ = provide<Svc>();
  int requests_seen = 0;
};

TEST(PortSemantics, TriggeredEventsDoNotLoopBackToTheTriggeringComponent) {
  class Main : public ComponentDefinition {
   public:
    Main() {
      chatty = create<Chatty>();
      client = create<Client>();
      connect(chatty.provided<Svc>(), client.required<Svc>());
    }
    Component chatty, client;
  };
  auto rt = make_runtime();
  auto main = rt->bootstrap<Main>();
  auto& def = main.definition_as<Main>();
  rt->await_quiescence();

  def.client.definition_as<Client>().ask(1);
  rt->await_quiescence();
  EXPECT_EQ(def.chatty.definition_as<Chatty>().requests_seen, 1)
      << "the provider's own Ind must not re-enter its Req handler";
  EXPECT_EQ(def.client.definition_as<Client>().inds.size(), 1u);
}

// ---- direction filtering ------------------------------------------------------

TEST(PortSemantics, HandlersOnlySeeEventsOfTheirDirection) {
  // A component that provides Svc and (illegally for its role) subscribes a
  // handler for Ind on that provided port: indications it TRIGGERS flow
  // outward and must not be dispatched to that handler.
  class Confused : public ComponentDefinition {
   public:
    Confused() {
      subscribe<Ind>(svc_, [this](const Ind&) { ++ind_seen; });
      subscribe<Req>(svc_, [this](const Req&) {
        trigger(make_event<Ind>(9), svc_);
      });
    }
    Negative<Svc> svc_ = provide<Svc>();
    int ind_seen = 0;
  };
  class Main : public ComponentDefinition {
   public:
    Main() {
      confused = create<Confused>();
      client = create<Client>();
      connect(confused.provided<Svc>(), client.required<Svc>());
    }
    Component confused, client;
  };
  auto rt = make_runtime();
  auto main = rt->bootstrap<Main>();
  auto& def = main.definition_as<Main>();
  rt->await_quiescence();

  def.client.definition_as<Client>().ask(5);
  rt->await_quiescence();
  EXPECT_EQ(def.confused.definition_as<Confused>().ind_seen, 0)
      << "a provided port's inside half dispatches only negative-direction events";
  EXPECT_EQ(def.client.definition_as<Client>().inds, (std::vector<int>{9}));
}

// ---- one provider, many requirers; requests stay point-to-point upward --------

TEST(PortSemantics, RequestsFromOneClientReachProviderOnceIndicationsFanOut) {
  class Main : public ComponentDefinition {
   public:
    Main() {
      leaf = create<Leaf>();
      c1 = create<Client>();
      c2 = create<Client>();
      connect(leaf.provided<Svc>(), c1.required<Svc>());
      connect(leaf.provided<Svc>(), c2.required<Svc>());
    }
    Component leaf, c1, c2;
  };
  auto rt = make_runtime();
  auto main = rt->bootstrap<Main>();
  auto& def = main.definition_as<Main>();
  rt->await_quiescence();

  def.c1.definition_as<Client>().ask(2);
  rt->await_quiescence();
  // The provider serves exactly one request...
  EXPECT_EQ(def.leaf.definition_as<Leaf>().served, 1);
  // ...but its indication fans out through ALL channels on the provided
  // port (paper Fig. 6 — responses are broadcast to every connected
  // requirer; request/response correlation is the application's job).
  EXPECT_EQ(def.c1.definition_as<Client>().inds, (std::vector<int>{20}));
  EXPECT_EQ(def.c2.definition_as<Client>().inds, (std::vector<int>{20}));
}

// ---- unsubscribe during dispatch (§2.2 re-matching) ---------------------------

/// Two handlers for the same event on one port. While handling the first
/// event, the first handler (gated so a second event is already enqueued)
/// unsubscribes the second. Subscription matching happens twice: at
/// dispatch time (to enqueue work) and again at execution time — so the
/// unsubscribed handler must not run for either the in-flight event
/// (unsubscribed by an earlier handler of the same round) or the queued one
/// (re-match finds it gone).
class SelfPruner : public ComponentDefinition {
 public:
  SelfPruner() {
    first_ = subscribe<Req>(svc_, [this](const Req& r) {
      ++first_seen;
      if (r.n == 1) {
        inside_handler.store(true);
        while (!proceed.load()) std::this_thread::yield();
        unsubscribe(second_);
      }
    });
    second_ = subscribe<Req>(svc_, [this](const Req&) { ++second_seen; });
  }
  Negative<Svc> svc_ = provide<Svc>();
  SubscriptionRef first_, second_;
  std::atomic<bool> inside_handler{false};
  std::atomic<bool> proceed{false};
  int first_seen = 0;
  int second_seen = 0;
};

TEST(PortSemantics, UnsubscribeDuringDispatchRematchesAtExecutionTime) {
  class Main : public ComponentDefinition {
   public:
    Main() { pruner = create<SelfPruner>(); }
    Component pruner;
  };
  auto rt = make_runtime();
  auto main = rt->bootstrap<Main>();
  auto& def = main.definition_as<Main>();
  rt->await_quiescence();
  auto& pruner = def.pruner.definition_as<SelfPruner>();

  auto* port =
      def.pruner.core()->find_port(std::type_index(typeid(Svc)), true)->outside.get();
  port->trigger(make_event<Req>(1));
  // Wait until the first handler is mid-flight, then enqueue a second event
  // — its dispatch-time match still sees both subscriptions active.
  while (!pruner.inside_handler.load()) std::this_thread::yield();
  port->trigger(make_event<Req>(2));
  pruner.proceed.store(true);
  rt->await_quiescence();

  EXPECT_EQ(pruner.first_seen, 2) << "the surviving handler sees both events";
  EXPECT_EQ(pruner.second_seen, 0)
      << "a handler unsubscribed by an earlier handler must not run again — not for the "
         "event being handled, nor for already-enqueued ones (execution-time re-match)";
}

// ---- interest filter (port.hpp) ----------------------------------------------

/// Requires Svc and subscribes one counting handler for E on it.
template <class E>
class Watcher : public ComponentDefinition {
 public:
  Watcher() {
    subscribe<E>(svc_, [this](const E&) { seen.fetch_add(1); });
  }
  Positive<Svc> svc_ = require<Svc>();
  std::atomic<int> seen{0};
};

/// Provides Svc without handling anything; the test drives its indications.
class Announcer : public ComponentDefinition {
 public:
  void announce(const EventPtr& e) { trigger(e, svc_); }
  Negative<Svc> svc_ = provide<Svc>();
};

class FilterMain : public ComponentDefinition {
 public:
  FilterMain() {
    announcer = create<Announcer>();
    special = create<Watcher<SpecialInd>>();
    ind = create<Watcher<Ind>>();
    any = create<Watcher<Event>>();
    for (Component* c : {&special, &ind, &any}) {
      connect(announcer.provided<Svc>(), c->required<Svc>());
    }
  }
  Component announcer, special, ind, any;
};

TEST(PortSemantics, InterestFilterAdmitsSubscribedTypesAndTheirSubtypesOnly) {
  auto rt = make_runtime();
  auto main = rt->bootstrap<FilterMain>();
  auto& def = main.definition_as<FilterMain>();
  rt->await_quiescence();
  auto& announcer = def.announcer.definition_as<Announcer>();

  announcer.announce(make_event<Ind>(1));
  announcer.announce(make_event<SpecialInd>(2));
  announcer.announce(make_event<Ind>(3));
  rt->await_quiescence();

  auto& special = def.special.definition_as<Watcher<SpecialInd>>();
  auto& ind = def.ind.definition_as<Watcher<Ind>>();
  auto& any = def.any.definition_as<Watcher<Event>>();
  EXPECT_EQ(special.seen.load(), 1) << "a subtype subscription must not admit its supertype";
  EXPECT_EQ(ind.seen.load(), 3) << "a supertype subscription admits the subtype too";
  EXPECT_EQ(any.seen.load(), 3) << "a root subscription admits every event";
}

TEST(PortSemantics, UnsubscribingTheLastSubscriptionOfATypeStopsItsDelivery) {
  class Twice : public ComponentDefinition {
   public:
    Twice() {
      ind_sub = subscribe<Ind>(svc_, [this](const Ind&) { ind_seen.fetch_add(1); });
      special_sub =
          subscribe<SpecialInd>(svc_, [this](const SpecialInd&) { special_seen.fetch_add(1); });
    }
    void drop(const SubscriptionRef& s) { unsubscribe(s); }
    Positive<Svc> svc_ = require<Svc>();
    SubscriptionRef ind_sub, special_sub;
    std::atomic<int> ind_seen{0};
    std::atomic<int> special_seen{0};
  };
  class Main : public ComponentDefinition {
   public:
    Main() {
      announcer = create<Announcer>();
      twice = create<Twice>();
      connect(announcer.provided<Svc>(), twice.required<Svc>());
    }
    Component announcer, twice;
  };
  auto rt = make_runtime();
  auto main = rt->bootstrap<Main>();
  auto& def = main.definition_as<Main>();
  rt->await_quiescence();
  auto& announcer = def.announcer.definition_as<Announcer>();
  auto& twice = def.twice.definition_as<Twice>();

  announcer.announce(make_event<SpecialInd>(1));
  rt->await_quiescence();
  EXPECT_EQ(twice.ind_seen.load(), 1);
  EXPECT_EQ(twice.special_seen.load(), 1);

  // Dropping the only SpecialInd subscription must clear its bit: the Ind
  // handler still sees SpecialInds, the dropped one sees nothing more.
  twice.drop(twice.special_sub);
  announcer.announce(make_event<SpecialInd>(2));
  rt->await_quiescence();
  EXPECT_EQ(twice.ind_seen.load(), 2);
  EXPECT_EQ(twice.special_seen.load(), 1);

  // And with the last subscription gone, nothing reaches the component.
  twice.drop(twice.ind_sub);
  announcer.announce(make_event<SpecialInd>(3));
  announcer.announce(make_event<Ind>(4));
  rt->await_quiescence();
  EXPECT_EQ(twice.ind_seen.load(), 2);
  EXPECT_EQ(twice.special_seen.load(), 1);
}

}  // namespace
}  // namespace kompics::test
