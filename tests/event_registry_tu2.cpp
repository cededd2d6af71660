// Second translation unit of the registry tests: reads the TypeIds through
// its own instantiations of the KOMPICS_EVENT function-local statics.

#include "registry_events.hpp"

namespace kompics::test::reg {

EventTypeId tu2_base_id() { return BaseEv::kompics_static_type_id(); }
EventTypeId tu2_mid_id() { return MidEv::kompics_static_type_id(); }
EventTypeId tu2_leaf_id() { return LeafEv::kompics_static_type_id(); }
bool tu2_event_is_mid(const Event& e) { return event_is<MidEv>(e); }

}  // namespace kompics::test::reg
