// Must not compile: event_is with an unregistered target type.

#include "common.hpp"

namespace cf {

bool is_plain(const kompics::Event& e) { return kompics::event_is<Plain>(e); }

}  // namespace cf
