// Tests for the event type registry (event.hpp) and the typed-dispatch hot
// path built on it: TypeId ancestor chains, cross-TU id stability, parity
// with dynamic_cast (also for an unregistered leaf class), the memoized
// PortType::allows, trigger-rejection diagnostics, the epoch-validated
// match cache (subscribe/unsubscribe during handling), and — in debug
// builds — RCU table reclamation. That unregistered types cannot be match
// targets is checked at compile time (tests/compile_fail/).

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>

#include "kompics/kompics.hpp"
#include "registry_events.hpp"

namespace kompics::test {
namespace {

using namespace reg;

// ---- registry core --------------------------------------------------------

TEST(Registry, AssignsDistinctNonSentinelIds) {
  const EventTypeId base = BaseEv::kompics_static_type_id();
  const EventTypeId mid = MidEv::kompics_static_type_id();
  const EventTypeId leaf = LeafEv::kompics_static_type_id();
  const EventTypeId other = OtherEv::kompics_static_type_id();
  for (EventTypeId id : {base, mid, leaf, other}) {
    EXPECT_NE(id, kEventTypeInvalid);
    EXPECT_NE(id, kEventTypeRoot);
  }
  EXPECT_NE(base, mid);
  EXPECT_NE(mid, leaf);
  EXPECT_NE(leaf, other);
  EXPECT_NE(base, other);
}

TEST(Registry, CrossTranslationUnitIdsAgree) {
  EXPECT_EQ(BaseEv::kompics_static_type_id(), tu2_base_id());
  EXPECT_EQ(MidEv::kompics_static_type_id(), tu2_mid_id());
  EXPECT_EQ(LeafEv::kompics_static_type_id(), tu2_leaf_id());
  // And the other TU's event_is agrees on instances built here.
  LeafEv leaf;
  OtherEv other;
  EXPECT_TRUE(tu2_event_is_mid(leaf));
  EXPECT_FALSE(tu2_event_is_mid(other));
}

TEST(Registry, MultiLevelAncestorChain) {
  LeafEv leaf;
  MidEv mid;
  BaseEv base;
  OtherEv other;

  EXPECT_TRUE(event_is<Event>(leaf));
  EXPECT_TRUE(event_is<BaseEv>(leaf));
  EXPECT_TRUE(event_is<MidEv>(leaf));
  EXPECT_TRUE(event_is<LeafEv>(leaf));

  EXPECT_TRUE(event_is<BaseEv>(mid));
  EXPECT_FALSE(event_is<LeafEv>(mid));
  EXPECT_FALSE(event_is<MidEv>(base));

  EXPECT_TRUE(event_is<BaseEv>(other));
  EXPECT_FALSE(event_is<MidEv>(other));
  EXPECT_FALSE(event_is<OtherEv>(leaf));
}

TEST(Registry, UnregisteredSubclassReportsNearestRegisteredAncestor) {
  PlainLeaf pl;
  EXPECT_EQ(pl.kompics_type_id(), MidEv::kompics_static_type_id());
}

// For every registered target, event_is gives exactly dynamic_cast's
// answer — on registered events and on the unregistered leaf alike.
TEST(Registry, ParityWithDynamicCast) {
  BaseEv base;
  MidEv mid;
  LeafEv leaf;
  OtherEv other;
  PlainLeaf plain_leaf;
  const Event* events[] = {&base, &mid, &leaf, &other, &plain_leaf};
  for (const Event* e : events) {
    EXPECT_EQ(event_is<BaseEv>(*e), dynamic_cast<const BaseEv*>(e) != nullptr);
    EXPECT_EQ(event_is<MidEv>(*e), dynamic_cast<const MidEv*>(e) != nullptr);
    EXPECT_EQ(event_is<LeafEv>(*e), dynamic_cast<const LeafEv*>(e) != nullptr);
    EXPECT_EQ(event_is<OtherEv>(*e), dynamic_cast<const OtherEv*>(e) != nullptr);
    EXPECT_TRUE(event_is<Event>(*e));
  }
}

// ---- PortType::allows memo ------------------------------------------------

class MemoPort : public PortType {
 public:
  MemoPort() {
    set_name("Memo");
    request<MidEv>();
    indication<OtherEv>();
  }
};

TEST(Registry, AllowsMemoAgreesAcrossRepeats) {
  const auto& pt = port_type<MemoPort>();
  BaseEv base;
  MidEv mid;
  LeafEv leaf;
  PlainLeaf plain_leaf;
  OtherEv other;
  // Two identical rounds: first populates the memo, second must serve the
  // same verdicts from it.
  for (int round = 0; round < 2; ++round) {
    EXPECT_TRUE(pt.allows(Direction::kNegative, mid));
    EXPECT_TRUE(pt.allows(Direction::kNegative, leaf));
    EXPECT_TRUE(pt.allows(Direction::kNegative, plain_leaf));  // inherited id
    EXPECT_FALSE(pt.allows(Direction::kNegative, base));
    EXPECT_FALSE(pt.allows(Direction::kNegative, other));
    EXPECT_TRUE(pt.allows(Direction::kPositive, other));
    EXPECT_FALSE(pt.allows(Direction::kPositive, mid));
    EXPECT_FALSE(pt.allows(Direction::kPositive, plain_leaf));
  }
}

// ---- runtime-level tests --------------------------------------------------

class Svc : public PortType {
 public:
  Svc() {
    set_name("Svc");
    request<BaseEv>();
    indication<OtherEv>();
  }
};

/// Consumer providing Svc; handler wiring is driven by each test.
class Sink : public ComponentDefinition {
 public:
  Sink() {
    main_sub = subscribe<BaseEv>(svc, [this](const BaseEv&) {
      ++seen;
      if (unsubscribe_on_first && seen == 1) unsubscribe(main_sub);
      if (subscribe_extra_on_first && seen == 1) {
        extra_sub = subscribe<BaseEv>(svc, [this](const BaseEv&) { ++extra_seen; });
      }
    });
    mid_sub = subscribe<MidEv>(svc, [this](const MidEv&) { ++mid_seen; });
  }

  // Public wrappers: subscribe/unsubscribe are protected on the definition.
  SubscriptionRef add_throwaway() {
    return subscribe<BaseEv>(svc, [](const BaseEv&) {});
  }
  void drop(const SubscriptionRef& s) { unsubscribe(s); }
  void reply(const EventPtr& e) { trigger(e, svc); }

  Negative<Svc> svc = provide<Svc>();
  SubscriptionRef main_sub, mid_sub, extra_sub;
  std::atomic<int> seen{0};
  std::atomic<int> mid_seen{0};
  std::atomic<int> extra_seen{0};
  bool unsubscribe_on_first = false;
  bool subscribe_extra_on_first = false;
};

/// Producer requiring Svc.
class Source : public ComponentDefinition {
 public:
  void send(const EventPtr& e) { trigger(e, svc); }
  Positive<Svc> svc = require<Svc>();
};

class RegMain : public ComponentDefinition {
 public:
  RegMain() {
    sink = create<Sink>();
    source = create<Source>();
    channel = connect(sink.provided<Svc>(), source.required<Svc>());
  }
  Component sink, source;
  ChannelRef channel;
};

std::unique_ptr<Runtime> make_runtime() { return Runtime::threaded(Config{}, 2, /*seed=*/7); }

TEST(RegistryDispatch, SubtypeDeliveryMatchesHierarchy) {
  auto rt = make_runtime();
  auto main = rt->bootstrap<RegMain>();
  auto& def = main.definition_as<RegMain>();
  rt->await_quiescence();
  auto& sink = def.sink.definition_as<Sink>();
  auto& source = def.source.definition_as<Source>();

  source.send(make_event<BaseEv>(1));
  source.send(make_event<MidEv>(2));
  source.send(make_event<LeafEv>(3));
  source.send(make_event<OtherEv>(4));
  source.send(make_event<PlainLeaf>(5));  // unregistered subtype of MidEv
  rt->await_quiescence();

  EXPECT_EQ(sink.seen.load(), 5);      // BaseEv subscription sees all five
  EXPECT_EQ(sink.mid_seen.load(), 3);  // MidEv, LeafEv, PlainLeaf
  rt->shutdown();
}

TEST(RegistryDispatch, RepeatedDispatchServedFromMatchCacheStaysExact) {
  auto rt = make_runtime();
  auto main = rt->bootstrap<RegMain>();
  auto& def = main.definition_as<RegMain>();
  rt->await_quiescence();
  auto& sink = def.sink.definition_as<Sink>();
  auto& source = def.source.definition_as<Source>();

  // The unregistered leaf shares MidEv's cache entries (same TypeId): each
  // trigger must still reach each matching handler exactly once.
  for (int i = 0; i < 100; ++i) {
    source.send(make_event<MidEv>(i));
    source.send(make_event<PlainLeaf>(i));
  }
  rt->await_quiescence();
  EXPECT_EQ(sink.seen.load(), 200);
  EXPECT_EQ(sink.mid_seen.load(), 200);
  rt->shutdown();
}

TEST(RegistryDispatch, UnsubscribeDuringHandlingHonoredByMatchCache) {
  auto rt = make_runtime();
  auto main = rt->bootstrap<RegMain>();
  auto& def = main.definition_as<RegMain>();
  rt->await_quiescence();
  auto& sink = def.sink.definition_as<Sink>();
  auto& source = def.source.definition_as<Source>();
  sink.unsubscribe_on_first = true;

  // Warm the (port, TypeId) cache entry, then unsubscribe from inside the
  // handler: the epoch bump must invalidate the warmed entry.
  source.send(make_event<BaseEv>(1));
  source.send(make_event<BaseEv>(2));
  source.send(make_event<BaseEv>(3));
  rt->await_quiescence();
  EXPECT_EQ(sink.seen.load(), 1);
  EXPECT_EQ(sink.mid_seen.load(), 0);
  rt->shutdown();
}

TEST(RegistryDispatch, SubscribeDuringHandlingSeesOnlyLaterEvents) {
  auto rt = make_runtime();
  auto main = rt->bootstrap<RegMain>();
  auto& def = main.definition_as<RegMain>();
  rt->await_quiescence();
  auto& sink = def.sink.definition_as<Sink>();
  auto& source = def.source.definition_as<Source>();
  sink.subscribe_extra_on_first = true;

  source.send(make_event<BaseEv>(1));  // subscribes extra mid-handling
  rt->await_quiescence();
  EXPECT_EQ(sink.extra_seen.load(), 0);  // not the event that added it
  source.send(make_event<BaseEv>(2));
  rt->await_quiescence();
  EXPECT_EQ(sink.seen.load(), 2);
  EXPECT_EQ(sink.extra_seen.load(), 1);  // but every later one
  rt->shutdown();
}

TEST(RegistryDispatch, TriggerRejectionNamesEventAndAllowedTypes) {
  auto rt = make_runtime();
  auto main = rt->bootstrap<RegMain>();
  auto& def = main.definition_as<RegMain>();
  rt->await_quiescence();
  auto& sink = def.sink.definition_as<Sink>();

  // Svc's indication direction allows only OtherEv, so the unregistered
  // PlainLeaf (a MidEv) must be rejected with a message naming the port,
  // the event's own type, and the allowed set.
  try {
    sink.reply(make_event<PlainLeaf>(9));
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& ex) {
    const std::string msg = ex.what();
    EXPECT_NE(msg.find("Svc"), std::string::npos) << msg;
    EXPECT_NE(msg.find("PlainLeaf"), std::string::npos) << msg;
    EXPECT_NE(msg.find("OtherEv"), std::string::npos) << msg;  // the allowed list
  }
  rt->shutdown();
}

#if defined(KOMPICS_DEBUG_ASSERTS)
// Debug builds census every live RCU table: after tearing a runtime (and
// its ports/channels) down, every superseded AND current table must have
// been reclaimed — no reader leak, no writer leak.
TEST(RegistryDispatch, RcuTablesAreReclaimed) {
  const std::int64_t before = detail::rcu_live_objects();
  {
    auto rt = make_runtime();
    auto main = rt->bootstrap<RegMain>();
    auto& def = main.definition_as<RegMain>();
    rt->await_quiescence();
    auto& sink = def.sink.definition_as<Sink>();
    auto& source = def.source.definition_as<Source>();
    // Churn: every subscribe/unsubscribe and channel op swaps tables.
    for (int i = 0; i < 50; ++i) {
      auto s = sink.add_throwaway();
      source.send(make_event<LeafEv>(i));
      sink.drop(s);
      def.channel->hold();
      def.channel->resume();
    }
    rt->await_quiescence();
    EXPECT_GT(sink.seen.load(), 0);
    rt->shutdown();
  }
  EXPECT_EQ(detail::rcu_live_objects(), before);
}
#endif

}  // namespace
}  // namespace kompics::test
