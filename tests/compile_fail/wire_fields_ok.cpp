// Positive control of wire_fields_mismatch.cpp: a field list that matches
// its constructor, with a nested struct, a vector, a map and a fixed-width
// member. Must compile, so a broken include path cannot make the negative
// snippet pass.

#include <map>
#include <string>
#include <vector>

#include "net/serialization.hpp"

namespace cf {

namespace wire = kompics::net::wire;
using kompics::net::Address;
using kompics::net::Bytes;

struct Entry {
  std::uint64_t key = 0;
  Address addr{};
  static constexpr auto wire_fields() {
    return wire::fields(wire::fixed(&Entry::key), &Entry::addr);
  }
};

class Complete : public kompics::net::Message {
  KOMPICS_EVENT(Complete, kompics::net::Message);

 public:
  Complete(Address s, Address d, std::uint64_t seq, Bytes payload, std::vector<Entry> entries,
           std::map<std::string, std::string> tags)
      : Message(s, d), seq(seq), payload(std::move(payload)), entries(std::move(entries)),
        tags(std::move(tags)) {}
  static constexpr auto wire_fields() {
    return wire::fields(&Complete::seq, &Complete::payload, &Complete::entries, &Complete::tags);
  }
  std::uint64_t seq;
  Bytes payload;
  std::vector<Entry> entries;
  std::map<std::string, std::string> tags;
};

KOMPICS_REGISTER_MESSAGE(Complete, 9901);

}  // namespace cf
