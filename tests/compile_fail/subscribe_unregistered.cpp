// Must not compile: subscribing a handler to an unregistered event type.

#include "common.hpp"

namespace cf {

class User : public kompics::ComponentDefinition {
 public:
  User() { subscribe<Plain>(port_, [](const Plain&) {}); }
  kompics::Negative<RegisteredPort> port_ = provide<RegisteredPort>();
};

}  // namespace cf
