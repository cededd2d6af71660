#pragma once

// Port types (paper §2.1): a port type names two sets of event types — the
// "positive" set (indications/responses) and the "negative" set (requests) —
// that may traverse a port in each direction. A concrete port type derives
// from PortType and declares its sets in the constructor:
//
//   class Network : public PortType {
//    public:
//     Network() { positive<Message>(); negative<Message>(); }
//   };
//
// Port type instances are singletons obtained via port_type<Network>(), used
// by the runtime for fast dynamic event filtering (mirroring the Java
// implementation's singleton port-type objects).
//
// Declared event types must be registered (KOMPICS_EVENT; a compile-time
// check). `allows` is on the trigger hot path: an integer ancestor-walk
// whose verdict is memoized per (port type, direction, event TypeId) in a
// flat byte array — after the first event of a type, one load + compare.

#include <algorithm>
#include <memory>
#include <string>
#include <typeinfo>
#include <vector>

#include "event.hpp"

namespace kompics {

/// Direction of travel of an event through a port.
enum class Direction : unsigned char {
  kPositive,  ///< indications / responses
  kNegative,  ///< requests
};

constexpr Direction opposite(Direction d) {
  return d == Direction::kPositive ? Direction::kNegative : Direction::kPositive;
}

class PortType {
 public:
  virtual ~PortType() = default;

  /// True when an event of e's dynamic type may pass in direction d.
  bool allows(Direction d, const Event& e) const {
    const Side& side = d == Direction::kPositive ? positive_ : negative_;
    if (side.memo == nullptr) return false;  // nothing declared this way
    const EventTypeId eid = e.kompics_type_id();
    const std::uint8_t m = side.memo[eid].load(std::memory_order_relaxed);
    if (m != kMemoUnknown) return m == kMemoAllowed;
    return allows_slow(side, eid);
  }

  const std::string& name() const { return name_; }

  /// Human-readable list of the event types declared for direction d, for
  /// rejection diagnostics (PortCore::trigger).
  std::string allowed_types(Direction d) const {
    const Side& side = d == Direction::kPositive ? positive_ : negative_;
    std::string out;
    for (const char* n : side.type_names) {
      if (!out.empty()) out += ", ";
      out += n;
    }
    return out.empty() ? "<none>" : out;
  }

 protected:
  PortType() = default;

  /// Declares that events of type E (and subtypes) pass in the `+` direction.
  template <class E>
  void positive() {
    declare<E>(positive_);
  }

  /// Declares that events of type E (and subtypes) pass in the `-` direction.
  template <class E>
  void negative() {
    declare<E>(negative_);
  }

  /// Paper synonym: indications travel in the positive direction.
  template <class E>
  void indication() {
    positive<E>();
  }

  /// Paper synonym: requests travel in the negative direction.
  template <class E>
  void request() {
    negative<E>();
  }

  void set_name(std::string n) { name_ = std::move(n); }

 private:
  static constexpr std::uint8_t kMemoUnknown = 0;
  static constexpr std::uint8_t kMemoAllowed = 1;
  static constexpr std::uint8_t kMemoDenied = 2;

  struct Side {
    std::vector<EventTypeId> ids;          ///< declared event types
    std::vector<const char*> type_names;   ///< same entries, for diagnostics
    /// Verdict memo indexed by event TypeId. Allocated on first declaration
    /// — singleton port types declare in their constructor, strictly before
    /// any allows().
    std::unique_ptr<std::atomic<std::uint8_t>[]> memo;
  };

  template <class E>
  void declare(Side& side) {
    detail::require_registered<E>();
    side.type_names.push_back(typeid(E).name());
    if (side.memo == nullptr) {
      side.memo = std::make_unique<std::atomic<std::uint8_t>[]>(detail::kMaxEventTypes);
    }
    side.ids.push_back(E::kompics_static_type_id());
  }

  bool allows_slow(const Side& side, EventTypeId eid) const {
    const bool allowed = std::any_of(side.ids.begin(), side.ids.end(), [eid](EventTypeId id) {
      return detail::is_ancestor(id, eid);
    });
    side.memo[eid].store(allowed ? kMemoAllowed : kMemoDenied, std::memory_order_relaxed);
    return allowed;
  }

  Side positive_;
  Side negative_;
  std::string name_{"port"};
};

/// Singleton accessor for a port type (one shared instance per PT).
template <class PT>
const PT& port_type() {
  static const PT instance{};
  return instance;
}

}  // namespace kompics
