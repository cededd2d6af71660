#pragma once

// Wire formats declared once. A serialized type names its fields, in wire
// order, in one static member function; encode and decode both follow it:
//
//   static constexpr auto wire_fields() {
//     return wire::fields(&AbdReadMsg::op, wire::fixed(&AbdReadMsg::key), &AbdReadMsg::view);
//   }
//
// Encoding of one field, by its C++ type:
//   unsigned integral       var_u64 (LEB128)
//   fixed(&T::m)            fixed-width little-endian u32/u64, by sizeof(m)
//   bool                    one byte
//   Bytes                   var_u64 length, then the bytes
//   std::string             var_u64 length, then the characters
//   Address                 Address::write / Address::read
//   std::vector, std::map   var_u64 count, then the elements (key, value)
//   any other struct        its own field list
//
// Decoding reads the fields in list order inside a braced initializer,
// which the language evaluates left to right. A message is then built
// through its (src, dst, fields...) constructor, a nested struct by
// aggregate initialization, so a field list must follow the constructor's
// (or the aggregate's) parameter order.

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/address.hpp"
#include "net/buffer.hpp"

namespace kompics::net::wire {

/// A member encoded at fixed width instead of as a varint.
template <class M>
struct Fixed {
  M member;
};

template <class C, class V>
constexpr Fixed<V C::*> fixed(V C::*member) {
  static_assert(std::is_unsigned_v<V> && (sizeof(V) == 4 || sizeof(V) == 8),
                "wire::fixed takes a 32- or 64-bit unsigned member");
  return {member};
}

template <class... F>
constexpr std::tuple<F...> fields(F... f) {
  return {f...};
}

namespace detail {

template <class T>
struct FieldType;
template <class C, class V>
struct FieldType<V C::*> {
  using type = V;
};
template <class C, class V>
struct FieldType<Fixed<V C::*>> {
  using type = V;
};
template <class F>
using field_t = typename FieldType<F>::type;

template <class T>
inline constexpr bool is_vector = false;
template <class E, class A>
inline constexpr bool is_vector<std::vector<E, A>> = true;
template <class T>
inline constexpr bool is_map = false;
template <class K, class V, class C, class A>
inline constexpr bool is_map<std::map<K, V, C, A>> = true;

/// Every element encodes to at least one byte, so a count above the bytes
/// left is a lie; rejecting it keeps a peer from sizing our allocations.
inline std::size_t read_count(BufferReader& r) {
  const std::uint64_t n = r.var_u64();
  if (n > r.remaining()) throw std::runtime_error("wire: element count exceeds frame");
  return static_cast<std::size_t>(n);
}

}  // namespace detail

template <class T>
void write(BufferWriter& w, const T& v);
template <class T>
T read(BufferReader& r);

template <class C, class V>
void write_field(BufferWriter& w, const C& obj, V C::*member) {
  write(w, obj.*member);
}
template <class C, class V>
void write_field(BufferWriter& w, const C& obj, Fixed<V C::*> f) {
  if constexpr (sizeof(V) == 8) {
    w.u64(obj.*f.member);
  } else {
    w.u32(obj.*f.member);
  }
}

template <class C, class V>
V read_field(BufferReader& r, V C::*) {
  return read<V>(r);
}
template <class C, class V>
V read_field(BufferReader& r, Fixed<V C::*>) {
  if constexpr (sizeof(V) == 8) {
    return r.u64();
  } else {
    return r.u32();
  }
}

template <class T>
void write_fields(BufferWriter& w, const T& obj) {
  std::apply([&](auto... f) { (write_field(w, obj, f), ...); }, T::wire_fields());
}

template <class T>
void write(BufferWriter& w, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    w.boolean(v);
  } else if constexpr (std::is_integral_v<T>) {
    static_assert(std::is_unsigned_v<T>, "wire: integral fields must be unsigned");
    w.var_u64(v);
  } else if constexpr (std::is_same_v<T, Bytes>) {
    w.bytes(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    w.str(v);
  } else if constexpr (std::is_same_v<T, Address>) {
    v.write(w);
  } else if constexpr (detail::is_vector<T>) {
    w.var_u64(v.size());
    for (const auto& e : v) write(w, e);
  } else if constexpr (detail::is_map<T>) {
    w.var_u64(v.size());
    for (const auto& [k, x] : v) {
      write(w, k);
      write(w, x);
    }
  } else {
    write_fields(w, v);
  }
}

template <class T>
T read(BufferReader& r) {
  if constexpr (std::is_same_v<T, bool>) {
    return r.boolean();
  } else if constexpr (std::is_integral_v<T>) {
    return static_cast<T>(r.var_u64());
  } else if constexpr (std::is_same_v<T, Bytes>) {
    return r.bytes();
  } else if constexpr (std::is_same_v<T, std::string>) {
    return r.str();
  } else if constexpr (std::is_same_v<T, Address>) {
    return Address::read(r);
  } else if constexpr (detail::is_vector<T>) {
    const std::size_t n = detail::read_count(r);
    T v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) v.push_back(read<typename T::value_type>(r));
    return v;
  } else if constexpr (detail::is_map<T>) {
    T m;
    for (std::size_t n = detail::read_count(r); n > 0; --n) {
      auto k = read<typename T::key_type>(r);
      m.insert_or_assign(std::move(k), read<typename T::mapped_type>(r));
    }
    return m;
  } else {
    return std::apply([&](auto... f) { return T{read_field(r, f)...}; }, T::wire_fields());
  }
}

/// Decodes T's fields and builds T from (lead..., fields...): a message's
/// lead is its (src, dst) pair.
template <class T, class... Lead>
std::shared_ptr<const T> read_shared(BufferReader& r, const Lead&... lead) {
  return std::apply(
      [&](auto... f) {
        static_assert(std::is_constructible_v<T, const Lead&..., detail::field_t<decltype(f)>...>,
                      "wire: the field list does not match a constructor taking "
                      "(src, dst, fields...) in list order");
        std::tuple<detail::field_t<decltype(f)>...> values{read_field(r, f)...};
        return std::apply(
            [&](auto&... v) { return std::make_shared<const T>(lead..., std::move(v)...); },
            values);
      },
      T::wire_fields());
}

}  // namespace kompics::net::wire
