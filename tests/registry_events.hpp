#pragma once

// Shared event hierarchy for the event-type-registry tests. Deliberately
// included from TWO translation units (event_registry_test.cpp and
// event_registry_tu2.cpp) to prove that lazy registration hands the same
// class the same TypeId no matter which TU touches it first.

#include "kompics/kompics.hpp"

namespace kompics::test::reg {

// Registered three-level chain: BaseEv -> MidEv -> LeafEv.
class BaseEv : public Event {
  KOMPICS_EVENT(BaseEv, Event);

 public:
  explicit BaseEv(int v = 0) : v(v) {}
  int v;
};

class MidEv : public BaseEv {
  KOMPICS_EVENT(MidEv, BaseEv);

 public:
  using BaseEv::BaseEv;
};

class LeafEv : public MidEv {
  KOMPICS_EVENT(LeafEv, MidEv);

 public:
  using MidEv::MidEv;
};

// Registered sibling branch off BaseEv.
class OtherEv : public BaseEv {
  KOMPICS_EVENT(OtherEv, BaseEv);

 public:
  using BaseEv::BaseEv;
};

// UNREGISTERED leaf of a registered type. It can be constructed and
// triggered (it cannot be a match target), reports MidEv's TypeId, and must
// match every registered target exactly as dynamic_cast would.
class PlainLeaf : public MidEv {
 public:
  using MidEv::MidEv;
};

// TypeIds as observed by the OTHER translation unit.
EventTypeId tu2_base_id();
EventTypeId tu2_mid_id();
EventTypeId tu2_leaf_id();
bool tu2_event_is_mid(const Event& e);

}  // namespace kompics::test::reg
