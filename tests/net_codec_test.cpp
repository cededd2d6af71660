// Unit + property tests for the wire substrate: buffers, varints, the kz
// compressor, and the serialization registry.

#include <gtest/gtest.h>

#include <random>

#include "net/buffer.hpp"
#include "net/compression.hpp"
#include "net/serialization.hpp"

namespace kompics::net::test {
namespace {

TEST(Buffer, FixedWidthRoundTrip) {
  Bytes b;
  BufferWriter w(b);
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.f64(3.14159);
  w.boolean(true);
  w.str("kompics");

  BufferReader r(b);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), "kompics");
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Buffer, VarIntBoundaries) {
  const std::uint64_t values[] = {0,    1,    127,  128,   16383, 16384,
                                  1u << 21, 1ull << 35, 1ull << 63, ~0ull};
  Bytes b;
  BufferWriter w(b);
  for (auto v : values) w.var_u64(v);
  BufferReader r(b);
  for (auto v : values) EXPECT_EQ(r.var_u64(), v);
}

TEST(Buffer, ZigZagSigned) {
  const std::int64_t values[] = {0, -1, 1, -64, 63, -65, 1000000, -1000000,
                                 INT64_MAX, INT64_MIN};
  Bytes b;
  BufferWriter w(b);
  for (auto v : values) w.var_i64(v);
  BufferReader r(b);
  for (auto v : values) EXPECT_EQ(r.var_i64(), v);
}

TEST(Buffer, UnderflowThrows) {
  Bytes b{0x01};
  BufferReader r(b);
  EXPECT_EQ(r.u8(), 1);
  EXPECT_THROW(r.u32(), std::runtime_error);
}

TEST(Buffer, PatchU32) {
  Bytes b;
  BufferWriter w(b);
  w.u32(0);
  w.str("body");
  w.patch_u32(0, 42);
  BufferReader r(b);
  EXPECT_EQ(r.u32(), 42u);
}

// ---- kz compression --------------------------------------------------------

Bytes roundtrip(const Bytes& in) {
  Bytes packed;
  kz::compress(in, packed);
  return kz::decompress(packed);
}

TEST(Kz, EmptyInput) { EXPECT_EQ(roundtrip({}), Bytes{}); }

TEST(Kz, ShortInput) {
  Bytes in{1, 2, 3};
  EXPECT_EQ(roundtrip(in), in);
}

TEST(Kz, RepetitiveInputCompresses) {
  Bytes in;
  for (int i = 0; i < 4096; ++i) in.push_back(static_cast<std::uint8_t>(i % 7));
  Bytes packed;
  kz::compress(in, packed);
  EXPECT_LT(packed.size(), in.size() / 4) << "periodic data should compress well";
  EXPECT_EQ(kz::decompress(packed), in);
}

TEST(Kz, OverlappingMatchReplication) {
  // 'aaaa...' forces distance-1 matches with length > distance.
  Bytes in(1000, 'a');
  EXPECT_EQ(roundtrip(in), in);
}

TEST(Kz, MalformedInputThrows) {
  Bytes bogus{0x05, 0x02, 0xff, 0xff};  // claims 5 bytes, bad token
  EXPECT_THROW(kz::decompress(bogus), std::runtime_error);
}

// A compressed frame comes from any peer. These streams each used to be
// expanded (or reserved) in full before the final size check rejected them.
TEST(Kz, DecompressionBombIsRejectedPromptly) {
  // 14 bytes: declares 64 bytes, 4 literals, then one match of 2^30 bytes.
  const Bytes bomb{0x40, 0x00, 0x04, 'a',  'b',  'c',  'd',
                   0x01, 0x01, 0x80, 0x80, 0x80, 0x80, 0x04};
  EXPECT_THROW(kz::decompress(bomb), std::runtime_error);
}

TEST(Kz, StreamsThatOutgrowTheirDeclaredSizeAreRejected) {
  // Match longer than the compressor ever emits (2^16 + 1), declared size
  // to match.
  EXPECT_THROW(kz::decompress(Bytes{0x85, 0x80, 0x04, 0x00, 0x04, 'a', 'b', 'c', 'd', 0x01, 0x01,
                                    0x81, 0x80, 0x04}),
               std::runtime_error);
  // A legal match length that still runs past the declared 8 bytes.
  EXPECT_THROW(kz::decompress(Bytes{0x08, 0x00, 0x04, 'a', 'b', 'c', 'd', 0x01, 0x01, 0x05}),
               std::runtime_error);
  // A literal run longer than the declared 2 bytes.
  EXPECT_THROW(kz::decompress(Bytes{0x02, 0x00, 0x03, 'a', 'b', 'c'}), std::runtime_error);
  // 2^40 bytes declared by a 4-byte body: more than any stream that short
  // can expand to, so nothing is reserved for it.
  EXPECT_THROW(kz::decompress(Bytes{0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 0x00, 0x02, 'a', 'b'}),
               std::runtime_error);
}

class KzRandomRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(KzRandomRoundTrip, RoundTripsExactly) {
  std::mt19937_64 rng(GetParam());
  // Mixture of random and structured content, random length.
  const std::size_t n = rng() % 20000;
  Bytes in(n);
  std::size_t i = 0;
  while (i < n) {
    if (rng() % 2 == 0) {
      const std::size_t run = std::min<std::size_t>(n - i, 1 + rng() % 64);
      const std::uint8_t byte = static_cast<std::uint8_t>(rng());
      for (std::size_t k = 0; k < run; ++k) in[i++] = byte;
    } else {
      in[i++] = static_cast<std::uint8_t>(rng());
    }
  }
  EXPECT_EQ(roundtrip(in), in);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KzRandomRoundTrip, ::testing::Range(0, 25));

// ---- serialization registry -------------------------------------------------

class TestPing : public Message {
  KOMPICS_EVENT(TestPing, Message);

 public:
  TestPing(Address s, Address d, std::uint64_t n, std::string text)
      : Message(s, d), n(n), text(std::move(text)) {}
  static constexpr auto wire_fields() { return wire::fields(&TestPing::n, &TestPing::text); }
  std::uint64_t n;
  std::string text;
};

KOMPICS_REGISTER_MESSAGE(TestPing, 9001);

TEST(Serialization, RoundTrip) {
  TestPing p(Address::node(1, 10), Address::node(2, 20), 77, "hello");
  Bytes wire;
  SerializationRegistry::instance().serialize(p, wire);
  auto back = SerializationRegistry::instance().deserialize(wire);
  const auto* q = dynamic_cast<const TestPing*>(back.get());
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->source(), p.source());
  EXPECT_EQ(q->destination(), p.destination());
  EXPECT_EQ(q->n, 77u);
  EXPECT_EQ(q->text, "hello");
}

class Unregistered : public Message {
 public:
  using Message::Message;
};

TEST(Serialization, UnregisteredTypeThrows) {
  Unregistered u(Address::node(1), Address::node(2));
  Bytes wire;
  EXPECT_THROW(SerializationRegistry::instance().serialize(u, wire), std::logic_error);
}

TEST(Serialization, UnknownWireIdThrows) {
  Bytes wire;
  BufferWriter w(wire);
  w.var_u64(123456789);  // never registered
  Address::node(1).write(w);
  Address::node(2).write(w);
  EXPECT_THROW(SerializationRegistry::instance().deserialize(wire), std::runtime_error);
}

TEST(Address, KeyOrderingAndFormat) {
  Address a{0x7f000001, 80};
  EXPECT_EQ(a.to_string(), "127.0.0.1:80");
  EXPECT_LT(Address::node(1).key(), Address::node(2).key());
  EXPECT_TRUE(Address::node(1) < Address::node(2));
  EXPECT_FALSE(Address{}.valid());
}

}  // namespace
}  // namespace kompics::net::test
