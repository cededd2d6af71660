// Tests for the event type registry (event.hpp) and the typed-dispatch hot
// path built on it: TypeId ancestor chains, cross-TU id stability, parity
// with dynamic_cast (also for an unregistered leaf class), the ancestor
// masks behind the port interest filter (has_match parity, types sharing a
// mask bit), the memoized PortType::allows, trigger-rejection diagnostics,
// the epoch-validated
// match cache (subscribe/unsubscribe during handling), and — in debug
// builds — RCU table reclamation. That unregistered types cannot be match
// targets is checked at compile time (tests/compile_fail/).

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

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

// ---- interest filter: has_match parity ------------------------------------

// For every set of subscribed targets and every event of the grid,
// PortCore::has_match (mask test, then exact scan) agrees with an
// exhaustive accepts() scan — also while the subscriptions (two per
// target, so a removal can leave a twin) are removed one by one and the
// half's interest mask is rebuilt.
TEST(Registry, HasMatchAgreesWithExhaustiveAcceptsScan) {
  const EventTypeId targets[] = {kEventTypeRoot, BaseEv::kompics_static_type_id(),
                                 MidEv::kompics_static_type_id(),
                                 LeafEv::kompics_static_type_id(),
                                 OtherEv::kompics_static_type_id()};
  constexpr int kTargets = sizeof(targets) / sizeof(targets[0]);
  BaseEv base;
  MidEv mid;
  LeafEv leaf;
  OtherEv other;
  PlainLeaf plain_leaf;
  const Event* events[] = {&base, &mid, &leaf, &other, &plain_leaf};

  for (int set = 0; set < (1 << kTargets); ++set) {
    PortCore half(nullptr, &port_type<MemoPort>(), Direction::kNegative, /*inside=*/true);
    std::vector<SubscriptionRef> subs;
    for (int twin = 0; twin < 2; ++twin) {
      for (int t = 0; t < kTargets; ++t) {
        if ((set & (1 << t)) == 0) continue;
        auto s = std::make_shared<Subscription>();
        s->half = &half;
        s->event_type = targets[t];
        half.add_subscription(s);
        subs.push_back(s);
      }
    }
    for (;;) {
      for (const Event* e : events) {
        bool expected = false;
        for (const auto& s : subs) expected = expected || s->accepts(e->kompics_type_id());
        EXPECT_EQ(half.has_match(*e), expected)
            << "subscription set " << set << ", " << subs.size() << " left, event type "
            << e->kompics_type_id();
      }
      if (subs.empty()) break;
      half.remove_subscription(subs.back());
      subs.pop_back();
    }
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

// ---- interest filter: types sharing a mask bit -----------------------------

// 65 registered siblings: their ids are distinct, so by pigeonhole two of
// them are equal modulo 64 and share one interest-mask bit.
template <int N>
class Filler : public Event {
  KOMPICS_EVENT(Filler, Event);
};
constexpr int kFillers = 65;

class AnyPort : public PortType {
 public:
  AnyPort() {
    set_name("Any");
    request<Event>();
  }
};

class FillerSink : public ComponentDefinition {
 public:
  template <int N>
  void listen() {
    subscribe<Filler<N>>(port, [this](const Filler<N>&) { seen[N].fetch_add(1); });
  }
  Negative<AnyPort> port = provide<AnyPort>();
  std::array<std::atomic<int>, kFillers> seen{};
};

class FillerMain : public ComponentDefinition {
 public:
  FillerMain() { sink = create<FillerSink>(); }
  Component sink;
};

struct FillerRow {
  EventTypeId id;
  void (FillerSink::*listen)();
  EventPtr (*make)();
};

template <std::size_t... Is>
std::array<FillerRow, sizeof...(Is)> filler_rows(std::index_sequence<Is...>) {
  return {FillerRow{Filler<Is>::kompics_static_type_id(), &FillerSink::listen<Is>,
                    +[] { return make_event<Filler<Is>>(); }}...};
}

TEST(RegistryDispatch, TypesSharingAMaskBitStillDispatchExactly) {
  const auto rows = filler_rows(std::make_index_sequence<kFillers>{});
  int a = -1, b = -1;
  for (int i = 0; i < kFillers && a < 0; ++i) {
    for (int j = i + 1; j < kFillers; ++j) {
      if (rows[i].id % 64 == rows[j].id % 64) {
        a = i;
        b = j;
        break;
      }
    }
  }
  ASSERT_GE(a, 0);
  // The mask cannot tell them apart: only the exact scan can.
  ASSERT_NE(detail::ancestor_bits(rows[b].id) & detail::type_bit(rows[a].id), 0u);
  ASSERT_NE(detail::ancestor_bits(rows[a].id) & detail::type_bit(rows[b].id), 0u);

  auto rt = make_runtime();
  auto main = rt->bootstrap<FillerMain>();
  auto& def = main.definition_as<FillerMain>();
  rt->await_quiescence();
  auto& sink = def.sink.definition_as<FillerSink>();
  PortCore* port =
      def.sink.core()->find_port(std::type_index(typeid(AnyPort)), true)->outside.get();

  (sink.*rows[a].listen)();
  for (int i = 0; i < 3; ++i) port->trigger(rows[b].make());
  for (int i = 0; i < 2; ++i) port->trigger(rows[a].make());
  rt->await_quiescence();
  EXPECT_EQ(sink.seen[a].load(), 2);
  EXPECT_EQ(sink.seen[b].load(), 0) << "a shared mask bit must not admit the other type";

  (sink.*rows[b].listen)();
  port->trigger(rows[b].make());
  rt->await_quiescence();
  EXPECT_EQ(sink.seen[a].load(), 2);
  EXPECT_EQ(sink.seen[b].load(), 1);
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
