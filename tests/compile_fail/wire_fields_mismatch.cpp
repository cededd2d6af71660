// Must not compile: the field list leaves out `payload`, so the decoder
// cannot build the message through its (src, dst, seq, payload)
// constructor.

#include "net/serialization.hpp"

namespace cf {

using kompics::net::Address;
using kompics::net::Bytes;

class Truncated : public kompics::net::Message {
  KOMPICS_EVENT(Truncated, kompics::net::Message);

 public:
  Truncated(Address s, Address d, std::uint64_t seq, Bytes payload)
      : Message(s, d), seq(seq), payload(std::move(payload)) {}
  static constexpr auto wire_fields() { return kompics::net::wire::fields(&Truncated::seq); }
  std::uint64_t seq;
  Bytes payload;
};

KOMPICS_REGISTER_MESSAGE(Truncated, 9900);

}  // namespace cf
