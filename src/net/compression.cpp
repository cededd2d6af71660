#include "net/compression.hpp"

#include <cstring>
#include <stdexcept>
#include <vector>

namespace kompics::net::kz {

namespace {

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxMatch = 1 << 16;
constexpr std::size_t kWindow = 1 << 16;
constexpr std::size_t kHashBits = 15;
constexpr std::size_t kHashSize = 1 << kHashBits;

inline std::uint32_t hash4(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

void emit_literals(BufferWriter& w, const std::uint8_t* base, std::size_t start,
                   std::size_t end) {
  if (start >= end) return;
  w.u8(0x00);
  w.var_u64(end - start);
  w.raw(base + start, end - start);
}

}  // namespace

std::size_t compress(const Bytes& in, Bytes& out) {
  const std::size_t before = out.size();
  BufferWriter w(out);
  w.var_u64(in.size());
  if (in.size() < kMinMatch + 1) {
    emit_literals(w, in.data(), 0, in.size());
    return out.size() - before;
  }

  // Greedy hash-head matcher: head[h] is the most recent position whose
  // 4-byte prefix hashed to h.
  std::vector<std::int64_t> head(kHashSize, -1);
  const std::uint8_t* p = in.data();
  const std::size_t n = in.size();
  std::size_t pos = 0;
  std::size_t literal_start = 0;

  while (pos + kMinMatch <= n) {
    const std::uint32_t h = hash4(p + pos);
    const std::int64_t cand = head[h];
    head[h] = static_cast<std::int64_t>(pos);

    std::size_t match_len = 0;
    if (cand >= 0 && pos - static_cast<std::size_t>(cand) <= kWindow &&
        std::memcmp(p + cand, p + pos, kMinMatch) == 0) {
      const std::size_t limit = std::min(n - pos, kMaxMatch);
      std::size_t len = kMinMatch;
      while (len < limit && p[cand + len] == p[pos + len]) ++len;
      match_len = len;
    }

    if (match_len >= kMinMatch) {
      emit_literals(w, p, literal_start, pos);
      w.u8(0x01);
      w.var_u64(pos - static_cast<std::size_t>(cand));
      w.var_u64(match_len);
      // Index a few positions inside the match so later data can refer in.
      const std::size_t end = pos + match_len;
      for (std::size_t i = pos + 1; i + kMinMatch <= end && i < pos + 8; ++i) {
        head[hash4(p + i)] = static_cast<std::int64_t>(i);
      }
      pos = end;
      literal_start = pos;
    } else {
      ++pos;
    }
  }
  emit_literals(w, p, literal_start, n);
  return out.size() - before;
}

Bytes decompress(const std::uint8_t* data, std::size_t size) {
  BufferReader r(data, size);
  const std::uint64_t expected = r.var_u64();
  // The stream comes from a peer: trust neither the declared size nor any
  // token's length. No token expands past kMaxMatch bytes per input byte,
  // so a larger declaration is a lie, and no token may grow the output past
  // the declared size.
  if (expected / kMaxMatch > r.remaining()) throw std::runtime_error("kz: declared size too large");
  Bytes out;
  out.reserve(expected);
  const auto make_room = [&](std::uint64_t n) {
    if (n > expected - out.size()) throw std::runtime_error("kz: output exceeds declared size");
  };
  while (r.remaining() > 0) {
    const std::uint8_t tag = r.u8();
    if (tag == 0x00) {
      const std::uint64_t len = r.var_u64();
      if (r.remaining() < len) throw std::runtime_error("kz: truncated literal run");
      make_room(len);
      out.insert(out.end(), r.cursor(), r.cursor() + len);
      r.skip(len);
    } else if (tag == 0x01) {
      const std::uint64_t distance = r.var_u64();
      const std::uint64_t length = r.var_u64();
      if (distance == 0 || distance > out.size()) throw std::runtime_error("kz: bad distance");
      if (length < kMinMatch || length > kMaxMatch) {
        throw std::runtime_error("kz: bad match length");
      }
      make_room(length);
      // Byte-by-byte copy: overlapping matches (distance < length) replicate.
      std::size_t src = out.size() - distance;
      for (std::uint64_t i = 0; i < length; ++i) out.push_back(out[src + i]);
    } else {
      throw std::runtime_error("kz: unknown token tag");
    }
  }
  if (out.size() != expected) throw std::runtime_error("kz: size mismatch");
  return out;
}

}  // namespace kompics::net::kz
