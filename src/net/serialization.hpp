#pragma once

// Message serialization registry (paper §3: "each of these components
// implements automatic connection management, message serialization, and
// Zlib compression"; the Java implementation let Kryo derive each wire
// format from the class's fields).
//
// Each concrete Message subtype declares its payload once, as a field list
// (net/wire.hpp), and registers a numeric wire id. The registry then turns
// any registered message into a self-describing byte string and back:
//
//   [var_u64 wire id][source address][destination address][payload...]
//
// The payload is the field list encoded in order; decoding builds the
// message through its (src, dst, fields...) constructor:
//
//   class MyMsg : public Message {
//     KOMPICS_EVENT(MyMsg, Message);
//    public:
//     MyMsg(Address s, Address d, std::uint64_t seq, Bytes body);
//     static constexpr auto wire_fields() { return wire::fields(&MyMsg::seq, &MyMsg::body); }
//     std::uint64_t seq;
//     Bytes body;
//   };
//   KOMPICS_REGISTER_MESSAGE(MyMsg, 17);  // or registry.register_message<MyMsg>(17)

#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <typeindex>
#include <unordered_map>

#include "net/address.hpp"
#include "net/buffer.hpp"
#include "net/network_port.hpp"
#include "net/wire.hpp"

namespace kompics::net {

class SerializationRegistry {
 public:
  static SerializationRegistry& instance() {
    static SerializationRegistry registry;
    return registry;
  }

  /// Registers T under `wire_id`, encoded and decoded by T::wire_fields().
  template <class T>
  void register_message(std::uint64_t wire_id) {
    static_assert(std::is_base_of_v<Message, T>, "T must derive from net::Message");
    const Entry entry{
        [](const Message& m, BufferWriter& w) { wire::write_fields(w, static_cast<const T&>(m)); },
        [](BufferReader& r, Address src, Address dst) -> MessagePtr {
          return wire::read_shared<T>(r, src, dst);
        }};
    std::lock_guard<std::mutex> g(mu_);
    if (by_id_.count(wire_id) != 0) {
      // Idempotent re-registration of the same type is fine (static init in
      // multiple translation units); clashing types on one id are a bug.
      if (id_by_type_.count(std::type_index(typeid(T))) != 0 &&
          id_by_type_.at(std::type_index(typeid(T))) == wire_id) {
        return;
      }
      throw std::logic_error("wire id already registered: " + std::to_string(wire_id));
    }
    by_id_[wire_id] = entry;
    id_by_type_[std::type_index(typeid(T))] = wire_id;
  }

  /// Serializes a registered message (dynamic type lookup).
  void serialize(const Message& m, Bytes& out) const {
    std::uint64_t id;
    const Entry* entry;
    {
      std::lock_guard<std::mutex> g(mu_);
      auto it = id_by_type_.find(std::type_index(typeid(m)));
      if (it == id_by_type_.end()) {
        throw std::logic_error(std::string("message type not registered: ") + typeid(m).name());
      }
      id = it->second;
      entry = &by_id_.at(id);
    }
    BufferWriter w(out);
    w.var_u64(id);
    m.source().write(w);
    m.destination().write(w);
    entry->encode(m, w);
  }

  MessagePtr deserialize(BufferReader& r) const {
    const std::uint64_t id = r.var_u64();
    const Entry* entry;
    {
      std::lock_guard<std::mutex> g(mu_);
      auto it = by_id_.find(id);
      if (it == by_id_.end()) {
        throw std::runtime_error("unknown wire id: " + std::to_string(id));
      }
      entry = &it->second;
    }
    const Address src = Address::read(r);
    const Address dst = Address::read(r);
    return entry->decode(r, src, dst);
  }

  MessagePtr deserialize(const Bytes& data) const {
    BufferReader r(data);
    return deserialize(r);
  }

  bool is_registered(const Message& m) const {
    std::lock_guard<std::mutex> g(mu_);
    return id_by_type_.count(std::type_index(typeid(m))) != 0;
  }

 private:
  struct Entry {
    void (*encode)(const Message&, BufferWriter&);
    /// Receives the already-parsed addresses plus the payload reader.
    MessagePtr (*decode)(BufferReader&, Address src, Address dst);
  };

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, Entry> by_id_;
  std::unordered_map<std::type_index, std::uint64_t> id_by_type_;
};

/// Distributed-tracing wire trailer (DESIGN.md §7). When a traced message
/// crosses the TCP transport, its (globalized) trace id, the sender-minted
/// net-send span id, and the sender's monotonic send stamp travel as a
/// fixed 16-byte trailer appended after the frame body; the frame's
/// kFlagTraced flags bit says it is present. Untraced messages carry no
/// trailer at all — the disabled path is byte-identical to the pre-tracing
/// wire format. Fixed-width little-endian fields, written outside the
/// (possibly compressed) body so the receiver can read it before inflating.
struct TraceTrailer {
  static constexpr std::size_t kWireSize = 16;

  std::uint32_t trace_id = 0;
  std::uint32_t send_span = 0;   ///< parent for the receiver's net-recv span
  std::uint64_t send_ts_ns = 0;  ///< sender's telemetry::now_ns at enqueue

  void write(BufferWriter& w) const {
    w.u32(trace_id);
    w.u32(send_span);
    w.u64(send_ts_ns);
  }
  static TraceTrailer read(BufferReader& r) {
    TraceTrailer t;
    t.trace_id = r.u32();
    t.send_span = r.u32();
    t.send_ts_ns = r.u64();
    return t;
  }
};

/// Static-initialization helper: expands to a one-time registration.
#define KOMPICS_REGISTER_MESSAGE(Type, WireId)                                          \
  namespace {                                                                           \
  const bool kompics_reg_##Type = [] {                                                  \
    ::kompics::net::SerializationRegistry::instance().register_message<Type>((WireId)); \
    return true;                                                                        \
  }();                                                                                  \
  }

}  // namespace kompics::net
