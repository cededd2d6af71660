#pragma once

// Shared fixture of the compile-fail snippets: one registered event and a
// port type that carries it. Each snippet adds exactly one misuse (or none,
// for the positive control).

#include "kompics/kompics.hpp"

namespace cf {

class Registered : public kompics::Event {
  KOMPICS_EVENT(Registered, kompics::Event);
};

/// Unregistered leaf: constructible and triggerable, never a match target.
class Plain : public Registered {};

class RegisteredPort : public kompics::PortType {
 public:
  RegisteredPort() { negative<Registered>(); }
};

}  // namespace cf
