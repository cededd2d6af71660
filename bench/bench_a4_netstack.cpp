// A4 — network-stack microcosts: the serialize / compress / decompress /
// deserialize stages that E1's end-to-end latency decomposes into (the
// paper's "4x serialization, 4x compression, ..." accounting, §4.1).
// google-benchmark over message payload sizes 64 B .. 64 KiB.

#include <benchmark/benchmark.h>

#include <random>

#include "net/buffer.hpp"
#include "net/compression.hpp"
#include "net/serialization.hpp"

using namespace kompics::net;

namespace {

class PayloadMsg : public Message {
  KOMPICS_EVENT(PayloadMsg, Message);

 public:
  PayloadMsg(Address s, Address d, Bytes payload) : Message(s, d), payload(std::move(payload)) {}
  static constexpr auto wire_fields() { return wire::fields(&PayloadMsg::payload); }
  Bytes payload;
};

KOMPICS_REGISTER_MESSAGE(PayloadMsg, 9500);

Bytes make_payload(std::size_t n, bool compressible) {
  Bytes b(n);
  std::mt19937_64 rng(7);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = compressible ? static_cast<std::uint8_t>(i % 17) : static_cast<std::uint8_t>(rng());
  }
  return b;
}

void BM_Serialize(benchmark::State& state) {
  PayloadMsg msg(Address::node(1), Address::node(2),
                 make_payload(static_cast<std::size_t>(state.range(0)), true));
  for (auto _ : state) {
    Bytes wire;
    SerializationRegistry::instance().serialize(msg, wire);
    benchmark::DoNotOptimize(wire);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Serialize)->Range(64, 64 << 10);

void BM_Deserialize(benchmark::State& state) {
  PayloadMsg msg(Address::node(1), Address::node(2),
                 make_payload(static_cast<std::size_t>(state.range(0)), true));
  Bytes wire;
  SerializationRegistry::instance().serialize(msg, wire);
  for (auto _ : state) {
    auto out = SerializationRegistry::instance().deserialize(wire);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Deserialize)->Range(64, 64 << 10);

void BM_CompressCompressible(benchmark::State& state) {
  const Bytes in = make_payload(static_cast<std::size_t>(state.range(0)), true);
  std::size_t packed_size = 0;
  for (auto _ : state) {
    Bytes out;
    packed_size = kz::compress(in, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.counters["ratio"] =
      static_cast<double>(in.size()) / static_cast<double>(packed_size);
}
BENCHMARK(BM_CompressCompressible)->Range(64, 64 << 10);

void BM_CompressRandom(benchmark::State& state) {
  const Bytes in = make_payload(static_cast<std::size_t>(state.range(0)), false);
  for (auto _ : state) {
    Bytes out;
    kz::compress(in, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CompressRandom)->Range(64, 64 << 10);

void BM_Decompress(benchmark::State& state) {
  const Bytes in = make_payload(static_cast<std::size_t>(state.range(0)), true);
  Bytes packed;
  kz::compress(in, packed);
  for (auto _ : state) {
    Bytes out = kz::decompress(packed);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Decompress)->Range(64, 64 << 10);

// The full E1 per-message path: serialize -> compress -> decompress ->
// deserialize (one of the four message legs of a quorum round trip).
void BM_FullWirePath(benchmark::State& state) {
  PayloadMsg msg(Address::node(1), Address::node(2),
                 make_payload(static_cast<std::size_t>(state.range(0)), true));
  for (auto _ : state) {
    Bytes wire;
    SerializationRegistry::instance().serialize(msg, wire);
    Bytes packed;
    kz::compress(wire, packed);
    Bytes plain = kz::decompress(packed);
    auto out = SerializationRegistry::instance().deserialize(plain);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FullWirePath)->Range(64, 64 << 10);

}  // namespace

BENCHMARK_MAIN();
