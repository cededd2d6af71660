#pragma once

// Events are the unit of communication in Kompics (paper §2.1): passive,
// immutable, typed objects. Subtyping of events maps onto C++ inheritance
// from kompics::Event; handler and port-type matching use the event *type
// registry* below — each registered Event subclass carries a small integer
// TypeId with a precomputed ancestor chain, so every subtype check is an
// integer parent-walk.
//
// Registration is mandatory for every *match target*: a type subscribed to,
// declared on a port type, tested with event_is, or named as a
// KOMPICS_EVENT base fails to compile unless it registered itself:
//
//   class Tick : public Event {
//     KOMPICS_EVENT(Tick, Event);
//    public:
//     ...
//   };
//
// The second macro argument MUST be the direct base class (itself Event or
// a registered subtype). Registration is lazy, thread-safe, idempotent and
// process-wide: the same type defined in a header and used from many
// translation units gets exactly one TypeId.
//
// An unregistered leaf class can still be constructed and triggered: it
// reports its nearest registered ancestor's TypeId. Since every target is
// registered, matching on that id gives exactly dynamic_cast's answer
// under single inheritance.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <type_traits>

#include "debug.hpp"

namespace kompics {

class Event;

/// Small dense integer identifying a registered event type.
using EventTypeId = std::uint32_t;

/// Sentinel: never assigned to a type; the root's registry parent.
inline constexpr EventTypeId kEventTypeInvalid = 0;
/// TypeId of the root of the hierarchy, kompics::Event itself.
inline constexpr EventTypeId kEventTypeRoot = 1;

namespace detail {

/// Hard cap on distinct registered event types. Registry storage and the
/// per-port-type `allows` memos are flat arrays indexed by TypeId, so this
/// bounds their size; 4096 is two orders of magnitude above what the whole
/// repo (CATS + net + sim + web + tests) declares.
inline constexpr std::size_t kMaxEventTypes = 4096;

/// A type's bit in 64-bit interest masks: its id modulo 64. Distinct types
/// may share a bit; a mask test only ever proves "no match" (see
/// ancestor_bits).
constexpr std::uint64_t type_bit(EventTypeId id) { return std::uint64_t{1} << (id & 63); }

struct EventTypeInfo {
  EventTypeId parent = kEventTypeInvalid;
  const char* name = "";
  /// type_bit of this type OR-ed with every registered ancestor's. A
  /// subscription to T can accept an event of type E only if type_bit(T)
  /// is set in E's ancestor_bits, so a zero AND against a port half's
  /// interest mask (port.hpp) proves no subscription there accepts E.
  std::uint64_t ancestor_bits = 0;
};

// Registry storage. Entries are immutable once published; an id only
// escapes the registering thread through a function-local static whose
// guard provides the release/acquire edge, so readers never race writers.
inline EventTypeInfo g_event_types[kMaxEventTypes]{
    {}, {kEventTypeInvalid, "kompics::Event", type_bit(kEventTypeRoot)}};
inline std::atomic<EventTypeId> g_event_type_count{2};  // 0 invalid, 1 root
inline std::mutex g_event_type_mu;

inline EventTypeId allocate_event_type(EventTypeId parent, const char* name) {
  std::lock_guard<std::mutex> g(g_event_type_mu);
  const EventTypeId id = g_event_type_count.load(std::memory_order_relaxed);
  KOMPICS_ASSERT(id < kMaxEventTypes, "event type registry full (kMaxEventTypes)");
  g_event_types[id] =
      EventTypeInfo{parent, name, type_bit(id) | g_event_types[parent].ancestor_bits};
  g_event_type_count.store(id + 1, std::memory_order_release);
  return id;
}

/// Precomputed ancestor mask of a registered TypeId (one load).
inline std::uint64_t ancestor_bits(EventTypeId id) { return g_event_types[id].ancestor_bits; }

/// True when `ancestor` is `derived` or one of its registered ancestors.
/// Chains are shallow (2–4 links in practice), so a parent-walk beats any
/// precomputed set both in cache footprint and in constant factor.
inline bool is_ancestor(EventTypeId ancestor, EventTypeId derived) {
  if (ancestor == derived || ancestor == kEventTypeRoot) return true;
  while (derived != kEventTypeRoot && derived != kEventTypeInvalid) {
    derived = g_event_types[derived].parent;
    if (derived == ancestor) return true;
  }
  return false;
}

/// Detects types that registered *themselves* via KOMPICS_EVENT (the
/// KompicsSelfType typedef is inherited, so compare it against E).
template <class E, class = void>
struct is_self_registered : std::false_type {};
template <class E>
struct is_self_registered<E, std::void_t<typename E::KompicsSelfType>>
    : std::bool_constant<std::is_same_v<typename E::KompicsSelfType, E>> {};
template <class E>
inline constexpr bool is_self_registered_v = is_self_registered<E>::value;

/// Compile-time precondition of every match target (subscribe, port-type
/// declarations, event_is, and the Base of KOMPICS_EVENT).
template <class E>
constexpr void require_registered() {
  static_assert(std::is_base_of_v<Event, E>, "E must derive from kompics::Event");
  static_assert(is_self_registered_v<E>,
                "event type is not registered: add KOMPICS_EVENT(Type, Base) to its class "
                "body before using it as a match target");
}

template <class E, class Base>
EventTypeId register_event_type(const char* name);

}  // namespace detail

/// Root of the event type hierarchy. All events are immutable once
/// published: they are shared between every subscriber via
/// std::shared_ptr<const Event>, so implementations must not expose
/// mutable state.
class Event {
 public:
  using KompicsSelfType = Event;

  virtual ~Event() = default;

  /// TypeId of this class in the event type registry (the root id).
  static EventTypeId kompics_static_type_id() { return kEventTypeRoot; }

  /// TypeId of the *nearest registered ancestor* of the dynamic type (the
  /// dynamic type itself when registered). Ancestor checks against this id
  /// are exact for any registered target type under single inheritance.
  virtual EventTypeId kompics_type_id() const { return kEventTypeRoot; }

  // ---- telemetry envelope (telemetry.hpp) --------------------------------
  // One word carrying (trace id, parent span id) for sampled causal tracing.
  // Stamped at most once, at the event's first trigger(); 0 means untraced.
  // The slot is the only mutable state on an event, and it never affects
  // dispatch — it is write-once metadata riding the envelope so a trace
  // survives channel forwarding and replay unchanged.
  std::uint64_t kompics_trace_word() const {
    return kompics_trace_word_.load(std::memory_order_relaxed);
  }
  void kompics_stamp_trace(std::uint64_t word) const {
    std::uint64_t expected = 0;  // first stamp wins (events fan out to many ports)
    kompics_trace_word_.compare_exchange_strong(expected, word, std::memory_order_relaxed);
  }

 protected:
  Event() = default;
  // A copied event is a distinct publication: the trace word stays 0 so the
  // copy gets its own stamp. (Manual ops because atomics are not copyable.)
  Event(const Event&) noexcept {}
  Event& operator=(const Event&) noexcept { return *this; }

 private:
  mutable std::atomic<std::uint64_t> kompics_trace_word_{0};
};

/// Registers event type E with direct base Base in the type registry and
/// overrides the id hooks. Place inside the class definition; leaves the
/// access level `public`. Base MUST be the direct base class — skipping an
/// intermediate *registered* class mis-declares the ancestor chain.
#define KOMPICS_EVENT(E, Base)                                              \
 public:                                                                    \
  using KompicsSelfType = E;                                                \
  static ::kompics::EventTypeId kompics_static_type_id() {                  \
    static const ::kompics::EventTypeId kompics_event_id =                  \
        ::kompics::detail::register_event_type<E, Base>(#E);                \
    return kompics_event_id;                                                \
  }                                                                         \
  ::kompics::EventTypeId kompics_type_id() const override {                 \
    return kompics_static_type_id();                                        \
  }                                                                         \
  static_assert(true, "")

namespace detail {

template <class E, class Base>
EventTypeId register_event_type(const char* name) {
  require_registered<Base>();
  static_assert(std::is_base_of_v<Base, E>, "Base must be a base class of E");
  static_assert(!std::is_same_v<E, Base>, "an event type cannot be its own base");
  // Registering the parent first (recursively, through its own static-id
  // hook) guarantees every ancestor entry is published before this id
  // escapes.
  const EventTypeId parent = Base::kompics_static_type_id();
  return allocate_event_type(parent, name);
}

}  // namespace detail

/// Shared, immutable handle to a published event.
using EventPtr = std::shared_ptr<const Event>;

/// Constructs an event of concrete type E and returns an immutable handle.
template <class E, class... Args>
EventPtr make_event(Args&&... args) {
  static_assert(std::is_base_of_v<Event, E>, "E must derive from kompics::Event");
  return std::make_shared<const E>(std::forward<Args>(args)...);
}

/// True when the dynamic type of `e` is E or a subtype of E (an integer
/// ancestor-walk; E must be registered).
template <class E>
bool event_is(const Event& e) {
  detail::require_registered<E>();
  return detail::is_ancestor(E::kompics_static_type_id(), e.kompics_type_id());
}

/// Downcast helper used after a successful event_is / accepts check.
template <class E>
const E& event_as(const Event& e) {
  return static_cast<const E&>(e);
}

}  // namespace kompics
