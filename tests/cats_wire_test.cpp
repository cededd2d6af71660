// Characterization of the CATS wire formats: every registered CATS message
// encodes to a checked-in byte string and decodes back field for field.
// A change to any message's encoding, wire id or field order fails here.

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>

#include "cats_wire_samples.hpp"

namespace kompics::cats::test {
namespace {

using net::Bytes;
using net::SerializationRegistry;
using wire_samples::Sample;

std::string to_hex(const Bytes& b) {
  std::string s;
  char buf[3];
  for (std::uint8_t byte : b) {
    std::snprintf(buf, sizeof(buf), "%02x", byte);
    s += buf;
  }
  return s;
}

TEST(CatsWire, SamplesCoverEveryCatsWireId) {
  const auto samples = wire_samples::all_samples();
  std::set<std::uint64_t> ids;
  for (const auto& s : samples) ids.insert(s.wire_id);
  EXPECT_EQ(samples.size(), 27u);
  EXPECT_EQ(ids.size(), samples.size()) << "two samples share a wire id";
}

TEST(CatsWire, EncodingMatchesGoldenBytes) {
  for (const Sample& s : wire_samples::all_samples()) {
    Bytes wire;
    SerializationRegistry::instance().serialize(*s.msg, wire);
    EXPECT_EQ(to_hex(wire), s.hex) << s.name;
    net::BufferReader r(wire);
    EXPECT_EQ(r.var_u64(), s.wire_id) << s.name << ": the frame opens with another wire id";
  }
}

TEST(CatsWire, DecodingRestoresEveryField) {
  for (const Sample& s : wire_samples::all_samples()) {
    SCOPED_TRACE(s.name);
    Bytes wire;
    SerializationRegistry::instance().serialize(*s.msg, wire);
    net::BufferReader r(wire);
    const auto back = SerializationRegistry::instance().deserialize(r);
    EXPECT_EQ(r.remaining(), 0u) << "decoder left bytes unread";
    ASSERT_NE(back, nullptr);
    s.expect_same(*back);
  }
}

}  // namespace
}  // namespace kompics::cats::test
