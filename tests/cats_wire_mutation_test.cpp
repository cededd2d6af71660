// Hostile-input checks for the CATS decoders: a frame from the network is
// either decoded or rejected with std::runtime_error. Every strict prefix of
// every golden message and a seeded set of byte-flip mutants go through
// `SerializationRegistry::deserialize`; any other exception, or a crash or
// leak under the sanitizers, fails the test. Element counts taken from the
// wire are bounded by the bytes left, so a short frame that claims a huge
// count fails before anything is allocated for it.

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <random>
#include <stdexcept>
#include <string>
#include <typeinfo>

#include "cats_wire_samples.hpp"

namespace kompics::cats::test {
namespace {

using net::Bytes;
using net::BufferReader;
using net::BufferWriter;
using net::SerializationRegistry;

constexpr std::uint64_t kSeed = 0x5eed17;
constexpr int kFlipsPerSample = 256;

enum class Outcome { kDecoded, kRejected };

/// Decodes `n` bytes; fails the test on anything but success or
/// std::runtime_error.
Outcome decode(const std::uint8_t* data, std::size_t n) {
  BufferReader r(data, n);
  try {
    (void)SerializationRegistry::instance().deserialize(r);
    return Outcome::kDecoded;
  } catch (const std::runtime_error&) {
    return Outcome::kRejected;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "threw " << typeid(e).name() << ": " << e.what();
  }
  return Outcome::kRejected;
}

/// A BootstrapResponseMsg frame whose peer count is `count` and whose body
/// ends right after it.
Bytes bootstrap_response_claiming(std::uint64_t count) {
  Bytes frame;
  BufferWriter w(frame);
  w.var_u64(121);
  wire_samples::kSrc.write(w);
  wire_samples::kDst.write(w);
  w.var_u64(count);
  return frame;
}

TEST(CatsWireMutation, EveryStrictPrefixIsRejected) {
  for (const auto& s : wire_samples::all_samples()) {
    SCOPED_TRACE(s.name);
    Bytes wire;
    SerializationRegistry::instance().serialize(*s.msg, wire);
    for (std::size_t n = 0; n < wire.size(); ++n) {
      EXPECT_EQ(decode(wire.data(), n), Outcome::kRejected) << "prefix of " << n << " bytes";
    }
  }
}

TEST(CatsWireMutation, ByteFlipsDecodeOrThrowRuntimeError) {
  std::mt19937_64 rng(kSeed);
  for (const auto& s : wire_samples::all_samples()) {
    SCOPED_TRACE(s.name);
    Bytes wire;
    SerializationRegistry::instance().serialize(*s.msg, wire);
    for (int i = 0; i < kFlipsPerSample; ++i) {
      Bytes mutant = wire;
      const std::size_t pos = rng() % mutant.size();
      mutant[pos] ^= static_cast<std::uint8_t>(1 + rng() % 255);
      SCOPED_TRACE("flip at byte " + std::to_string(pos));
      decode(mutant.data(), mutant.size());
    }
  }
}

TEST(CatsWireMutation, HugeClaimedCountIsRejectedBeforeAllocating) {
  register_cats_serializers();
  // 17 bytes claiming 2^26 peers: used to size a 1 GiB vector first.
  const Bytes big = bootstrap_response_claiming(std::uint64_t{1} << 26);
  EXPECT_EQ(big.size(), 17u);
  EXPECT_THROW(SerializationRegistry::instance().deserialize(big), std::runtime_error);
  // 2^61 peers: beyond vector::max_size, used to throw std::length_error.
  EXPECT_THROW(SerializationRegistry::instance().deserialize(
                   bootstrap_response_claiming(std::uint64_t{1} << 61)),
               std::runtime_error);
}

}  // namespace
}  // namespace kompics::cats::test
