// Must not compile: declaring an unregistered event type on a port type.

#include "common.hpp"

namespace cf {

class PlainPort : public kompics::PortType {
 public:
  PlainPort() { indication<Plain>(); }
};

const PlainPort& use() { return kompics::port_type<PlainPort>(); }

}  // namespace cf
