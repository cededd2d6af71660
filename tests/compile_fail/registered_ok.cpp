// Positive control: every match-target site with registered types, plus an
// unregistered leaf that is only constructed and tested. Must compile, so a
// broken include path cannot make the negative snippets pass.

#include "common.hpp"

namespace cf {

class Leaf : public Registered {
  KOMPICS_EVENT(Leaf, Registered);
};

class LeafPort : public kompics::PortType {
 public:
  LeafPort() {
    request<Leaf>();
    indication<Registered>();
  }
};

class User : public kompics::ComponentDefinition {
 public:
  User() {
    subscribe<Registered>(port_, [](const Registered&) {});
    subscribe<Leaf>(leaf_port_, [](const Leaf&) {});
  }
  kompics::Negative<RegisteredPort> port_ = provide<RegisteredPort>();
  kompics::Negative<LeafPort> leaf_port_ = provide<LeafPort>();
};

bool leaf_is_registered(const Plain& p) { return kompics::event_is<Registered>(p); }

}  // namespace cf
