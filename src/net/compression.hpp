#pragma once

// kz: a small from-scratch LZ77-family codec standing in for the Zlib
// compression stage of the paper's network components (§3). It exercises
// the same compress-on-send / decompress-on-receive code path; ratios are
// modest but correctness is exact (round-trip verified by property tests).
//
// Format: a stream of tokens.
//   literal run : 0x00 | var_u64 len      | len raw bytes
//   match       : 0x01 | var_u64 distance | var_u64 length   (length >= 4)
// The compressed stream is prefixed with var_u64 uncompressed size.

#include <cstdint>

#include "net/buffer.hpp"

namespace kompics::net::kz {

/// Compresses `in` into `out` (appended). Returns the compressed size.
std::size_t compress(const Bytes& in, Bytes& out);

/// Decompresses a stream produced by compress. Throws std::runtime_error on
/// malformed input, including any stream that would expand past its
/// declared size; the output never grows beyond that size.
Bytes decompress(const std::uint8_t* data, std::size_t size);
inline Bytes decompress(const Bytes& in) { return decompress(in.data(), in.size()); }

}  // namespace kompics::net::kz
