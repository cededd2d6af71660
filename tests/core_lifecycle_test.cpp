// Life-cycle semantics of paper §2.4-§2.5: Init-first guarantee, passive
// event queueing, recursive activation/passivation, and Erlang-style fault
// isolation with escalation through the containment hierarchy.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "kompics/kompics.hpp"

namespace kompics::test {
namespace {

class Poke : public Event {
  KOMPICS_EVENT(Poke, Event);

 public:
  explicit Poke(int n) : n(n) {}
  int n;
};

class PokePort : public PortType {
 public:
  PokePort() {
    set_name("PokePort");
    negative<Poke>();
  }
};

std::unique_ptr<Runtime> make_runtime() { return Runtime::threaded(Config{}, 2, 7); }

// ---- Init-first guarantee ---------------------------------------------------

class NeedsInit : public ComponentDefinition {
 public:
  struct MyInit : Init {
    KOMPICS_EVENT(MyInit, Init);

    explicit MyInit(int parameter) : parameter(parameter) {}
    int parameter;
  };

  NeedsInit() {
    subscribe<MyInit>(control(), [this](const MyInit& init) {
      trace.push_back(1000 + init.parameter);
    });
    subscribe<Poke>(pokes_, [this](const Poke& p) { trace.push_back(p.n); });
    subscribe<Start>(control(), [this](const Start&) { trace.push_back(-1); });
  }

  Negative<PokePort> pokes_ = provide<PokePort>();
  std::vector<int> trace;
};

class InitMain : public ComponentDefinition {
 public:
  InitMain() { child = create<NeedsInit>(); }
  Component child;
};

TEST(Lifecycle, ControlPortRejectsForeignEvents) {
  auto rt = make_runtime();
  auto main = rt->bootstrap<InitMain>();
  auto& def = main.definition_as<InitMain>();
  rt->await_quiescence();
  EXPECT_THROW(def.child.control()->trigger(make_event<Poke>(1)), std::logic_error);
}

TEST(Lifecycle, InitOrderingWithQueuedWork) {
  auto rt = make_runtime();
  auto main = rt->bootstrap<InitMain>();
  auto& def = main.definition_as<InitMain>();

  // Events races: pokes + Start are queued, Init arrives last — yet it must
  // be handled first.
  auto poke_port = def.child.core()->find_port(std::type_index(typeid(PokePort)), true);
  poke_port->outside->trigger(make_event<Poke>(1));
  poke_port->outside->trigger(make_event<Poke>(2));
  def.child.control()->trigger(make_event<NeedsInit::MyInit>(7));
  rt->await_quiescence();

  const auto& trace = def.child.definition_as<NeedsInit>().trace;
  ASSERT_GE(trace.size(), 4u);
  EXPECT_EQ(trace[0], 1007) << "Init must be first";
  // Start (-1) and pokes follow in some order, with pokes in FIFO order.
  std::vector<int> pokes;
  for (int t : trace) {
    if (t > 0 && t < 100) pokes.push_back(t);
  }
  EXPECT_EQ(pokes, (std::vector<int>{1, 2}));
}

// ---- passive queueing --------------------------------------------------------

class Sink : public ComponentDefinition {
 public:
  Sink() {
    subscribe<Poke>(pokes_, [this](const Poke&) { count.fetch_add(1); });
  }
  Negative<PokePort> pokes_ = provide<PokePort>();
  std::atomic<int> count{0};
};

class PassiveMain : public ComponentDefinition {
 public:
  PassiveMain() { sink = create<Sink>(); }
  // NOTE: sink is created but never started here (the parent starts, but we
  // test manual Stop/Start cycles).
  Component sink;
};

TEST(Lifecycle, EventsQueueWhilePassiveAndReplayOnStart) {
  auto rt = make_runtime();
  auto main = rt->bootstrap<PassiveMain>();
  auto& def = main.definition_as<PassiveMain>();
  rt->await_quiescence();
  auto& sink = def.sink.definition_as<Sink>();
  ASSERT_EQ(def.sink.core()->state(), LifecycleState::kActive);

  // Passivate, deliver, verify nothing runs, reactivate, verify replay.
  def.sink.control()->trigger(make_event<Stop>());
  rt->await_quiescence();
  ASSERT_EQ(def.sink.core()->state(), LifecycleState::kPassive);

  auto* port = def.sink.core()->find_port(std::type_index(typeid(PokePort)), true);
  for (int i = 0; i < 5; ++i) port->outside->trigger(make_event<Poke>(i));
  rt->await_quiescence();
  EXPECT_EQ(sink.count.load(), 0) << "passive component must not execute events";

  def.sink.control()->trigger(make_event<Start>());
  rt->await_quiescence();
  EXPECT_EQ(sink.count.load(), 5) << "queued events replay on activation";
}

// ---- recursive activation ------------------------------------------------------

class Grandchild : public ComponentDefinition {
 public:
  Grandchild() {
    subscribe<Start>(control(), [this](const Start&) { started.fetch_add(1); });
    subscribe<Stop>(control(), [this](const Stop&) { stopped.fetch_add(1); });
  }
  std::atomic<int> started{0};
  std::atomic<int> stopped{0};
};

class Middle : public ComponentDefinition {
 public:
  Middle() { inner = create<Grandchild>(); }
  Component inner;
};

class Outer : public ComponentDefinition {
 public:
  Outer() { mid = create<Middle>(); }
  Component mid;
};

TEST(Lifecycle, StartAndStopCascadeRecursively) {
  auto rt = make_runtime();
  auto main = rt->bootstrap<Outer>();
  rt->await_quiescence();
  auto& mid = main.definition_as<Outer>().mid;
  auto& inner = mid.definition_as<Middle>().inner;
  EXPECT_EQ(inner.definition_as<Grandchild>().started.load(), 1);
  EXPECT_EQ(inner.core()->state(), LifecycleState::kActive);

  main.control()->trigger(make_event<Stop>());
  rt->await_quiescence();
  EXPECT_EQ(inner.definition_as<Grandchild>().stopped.load(), 1);
  EXPECT_EQ(inner.core()->state(), LifecycleState::kPassive);
}

// ---- fault isolation and escalation (§2.5) ---------------------------------------

class Faulty : public ComponentDefinition {
 public:
  Faulty() {
    subscribe<Poke>(pokes_, [](const Poke& p) {
      if (p.n == 13) throw std::runtime_error("unlucky poke");
    });
  }
  Negative<PokePort> pokes_ = provide<PokePort>();
};

class Supervisor : public ComponentDefinition {
 public:
  Supervisor() {
    child = create<Faulty>();
    supervise();
  }
  void supervise() {
    subscribe<Fault>(child.control(), [this](const Fault& f) {
      caught.push_back(f.what());
      // Supervision action (§2.5): replace the faulty child, and supervise
      // the replacement too — its faults must not escalate past us either.
      destroy(child);
      child = create<Faulty>();
      supervise();
      child.control()->trigger(make_event<Start>());
    });
  }
  Component child;
  std::vector<std::string> caught;
};

TEST(Faults, ParentSupervisesAndReplacesFaultyChild) {
  auto rt = make_runtime();
  auto main = rt->bootstrap<Supervisor>();
  auto& sup = main.definition_as<Supervisor>();
  rt->await_quiescence();

  sup.child.core()->find_port(std::type_index(typeid(PokePort)), true)
      ->outside->trigger(make_event<Poke>(13));
  rt->await_quiescence();

  ASSERT_EQ(sup.caught.size(), 1u);
  EXPECT_EQ(sup.caught[0], "unlucky poke");
  // Don't compare core addresses to prove the swap: the allocator may hand
  // the replacement the exact block the destroyed child just vacated.
  // Instead show the replacement is live and supervised — it is active and
  // a second unlucky poke escalates through it again, which a destroyed
  // component could never deliver.
  EXPECT_EQ(sup.child.core()->state(), LifecycleState::kActive);
  sup.child.core()->find_port(std::type_index(typeid(PokePort)), true)
      ->outside->trigger(make_event<Poke>(13));
  rt->await_quiescence();
  ASSERT_EQ(sup.caught.size(), 2u) << "replacement child must be live and supervised";
  EXPECT_FALSE(rt->faulted()) << "handled fault must not reach the top";
}

class Uncaring : public ComponentDefinition {
 public:
  Uncaring() { child = create<Faulty>(); }
  Component child;
};

TEST(Faults, UnhandledFaultEscalatesToRuntimePolicy) {
  auto rt = make_runtime();
  std::atomic<int> policy_calls{0};
  std::string what;
  rt->set_fault_policy([&](const Fault& f) {
    ++policy_calls;
    what = f.what();
  });
  auto main = rt->bootstrap<Uncaring>();
  rt->await_quiescence();

  main.definition_as<Uncaring>()
      .child.core()
      ->find_port(std::type_index(typeid(PokePort)), true)
      ->outside->trigger(make_event<Poke>(13));
  rt->await_quiescence();

  EXPECT_EQ(policy_calls.load(), 1);
  EXPECT_EQ(what, "unlucky poke");
  EXPECT_TRUE(rt->faulted());
}

TEST(Faults, QuiescenceWaitReturnsAfterDefaultPolicyHaltsTheScheduler) {
  // Default policy: report, mark the runtime faulted and stop scheduling.
  // The pokes queued behind the fatal one are abandoned, so pending work
  // never drains; the quiescence wait must still return.
  auto rt = make_runtime();
  auto main = rt->bootstrap<Uncaring>();
  rt->await_quiescence();

  auto& pokes = main.definition_as<Uncaring>()
                    .child.core()
                    ->find_port(std::type_index(typeid(PokePort)), true)
                    ->outside;
  pokes->trigger(make_event<Poke>(13));
  for (int i = 0; i < 1000; ++i) pokes->trigger(make_event<Poke>(1));
  const bool returned = rt->await_quiescence_for(10'000);
  ASSERT_TRUE(returned) << "quiescence wait hung after an unhandled fault";
  rt->await_quiescence();  // the unbounded wait returns too
  EXPECT_TRUE(rt->faulted());
}

class GrandSupervisor : public ComponentDefinition {
 public:
  GrandSupervisor() {
    mid = create<Uncaring>();
    subscribe<Fault>(mid.control(), [this](const Fault& f) { caught.push_back(f.what()); });
  }
  Component mid;
  std::vector<std::string> caught;
};

TEST(Faults, FaultPropagatesUpThroughUncaringParents) {
  auto rt = make_runtime();
  auto main = rt->bootstrap<GrandSupervisor>();
  auto& sup = main.definition_as<GrandSupervisor>();
  rt->await_quiescence();

  sup.mid.definition_as<Uncaring>()
      .child.core()
      ->find_port(std::type_index(typeid(PokePort)), true)
      ->outside->trigger(make_event<Poke>(13));
  rt->await_quiescence();

  ASSERT_EQ(sup.caught.size(), 1u);
  EXPECT_EQ(sup.caught[0], "unlucky poke");
  EXPECT_FALSE(rt->faulted());
}

}  // namespace
}  // namespace kompics::test

namespace kompics::test {
namespace {

// ---- Stopped confirmation (the quiescence signal behind §2.6) ----------------

TEST(Lifecycle, StoppedIsEmittedAfterSubtreeQuiesces) {
  class Tree : public ComponentDefinition {
   public:
    Tree() {
      mid = create<Middle>();
      subscribe<Stopped>(mid.control(), [this](const Stopped&) { stopped_seen.fetch_add(1); });
    }
    Component mid;
    std::atomic<int> stopped_seen{0};
  };

  auto rt = make_runtime();
  auto main = rt->bootstrap<Tree>();
  auto& def = main.definition_as<Tree>();
  rt->await_quiescence();
  ASSERT_EQ(def.stopped_seen.load(), 0);

  def.mid.control()->trigger(make_event<Stop>());
  rt->await_quiescence();
  EXPECT_EQ(def.stopped_seen.load(), 1) << "Stopped fires once the whole subtree is passive";
  EXPECT_EQ(def.mid.core()->state(), LifecycleState::kPassive);
  EXPECT_EQ(def.mid.definition_as<Middle>().inner.core()->state(), LifecycleState::kPassive);
}

TEST(Lifecycle, StopOfAlreadyPassiveComponentConfirmsImmediately) {
  class Holder : public ComponentDefinition {
   public:
    Holder() {
      leaf = create<Grandchild>();
      subscribe<Stopped>(leaf.control(), [this](const Stopped&) { confirmations.fetch_add(1); });
    }
    Component leaf;
    std::atomic<int> confirmations{0};
  };
  auto rt = make_runtime();
  auto main = rt->bootstrap<Holder>();
  auto& def = main.definition_as<Holder>();
  rt->await_quiescence();

  def.leaf.control()->trigger(make_event<Stop>());
  rt->await_quiescence();
  def.leaf.control()->trigger(make_event<Stop>());  // second stop: still confirms
  rt->await_quiescence();
  EXPECT_EQ(def.confirmations.load(), 2);
}

}  // namespace
}  // namespace kompics::test

namespace kompics::test {
namespace {

TEST(Lifecycle, StartedIsEmittedAfterSubtreeActivates) {
  class Tree : public ComponentDefinition {
   public:
    Tree() {
      mid = create<Middle>();
      subscribe<Started>(mid.control(), [this](const Started&) { started_seen.fetch_add(1); });
    }
    Component mid;
    std::atomic<int> started_seen{0};
  };
  auto rt = make_runtime();
  auto main = rt->bootstrap<Tree>();
  rt->await_quiescence();
  auto& def = main.definition_as<Tree>();
  EXPECT_EQ(def.started_seen.load(), 1) << "bootstrap start cascades and confirms";
  EXPECT_EQ(def.mid.definition_as<Middle>().inner.core()->state(), LifecycleState::kActive);

  // Stop then restart: Started must confirm again.
  def.mid.control()->trigger(make_event<Stop>());
  rt->await_quiescence();
  def.mid.control()->trigger(make_event<Start>());
  rt->await_quiescence();
  EXPECT_EQ(def.started_seen.load(), 2);
}

}  // namespace
}  // namespace kompics::test
