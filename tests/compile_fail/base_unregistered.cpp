// Must not compile: KOMPICS_EVENT naming an unregistered base class.

#include "common.hpp"

namespace cf {

class OverPlain : public Plain {
  KOMPICS_EVENT(OverPlain, Plain);
};

}  // namespace cf
