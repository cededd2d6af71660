#pragma once

// The runtime reactor (DESIGN.md §5): one epoll set, one eventfd and one
// deadline-ordered set per Runtime, serviced by one lazily started thread
// that only waits and enqueues. Each fd readiness edge and each due deadline
// becomes an ordinary work item — IoReady / DeadlineDue on the hidden
// Reactor port of the registering component — so it serializes with that
// component's handlers and parks while it is passive. Deliveries happen
// under the reactor lock, which makes drop() (called by destroy_tree()) a
// barrier: afterwards nothing is ever triggered into the dropped core.

#include <cstdint>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "clock.hpp"
#include "event.hpp"
#include "port_type.hpp"

namespace kompics {

class ComponentCore;
class PortCore;

/// A readiness edge on a watched fd: read and write until EAGAIN.
class IoReady : public Event {
  KOMPICS_EVENT(IoReady, Event);

 public:
  explicit IoReady(std::uint64_t key) : key(key) {}
  std::uint64_t key;
};

/// An armed deadline came due.
class DeadlineDue : public Event {
  KOMPICS_EVENT(DeadlineDue, Event);

 public:
  explicit DeadlineDue(std::uint64_t key) : key(key) {}
  std::uint64_t key;
};

/// Hidden port carrying reactor deliveries into a component.
class ReactorPort : public PortType {
 public:
  ReactorPort() {
    set_name("Reactor");
    request<IoReady>();
    request<DeadlineDue>();
  }
};

class Reactor {
 public:
  /// Registration key: never 0, never reused by a reactor.
  using Key = std::uint64_t;
  struct Deadline {
    TimeMs at = 0;
    Key key = 0;  ///< 0: not armed
    bool operator<(const Deadline& o) const { return at != o.at ? at < o.at : key < o.key; }
  };

  explicit Reactor(const Clock& clock) : clock_(clock) {}
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Watches `fd` edge-triggered for `events`; every edge is triggered as
  /// IoReady on `port` (the outside half of the owner's Reactor port).
  /// Returns 0 when the owner is destroyed or epoll refuses the fd.
  Key watch(PortCore* port, int fd, std::uint32_t events);
  /// Stops watching; an edge already collected for `key` is not delivered.
  void unwatch(Key key);

  /// Arms a one-shot deadline on the runtime clock; DeadlineDue{key}
  /// follows on `port` once it is due. Wakes the thread only when the new
  /// deadline is the earliest. Returns an unarmed Deadline when the owner is
  /// destroyed.
  Deadline arm(PortCore* port, TimeMs at);
  /// Disarms a deadline not yet delivered; exact.
  void cancel(const Deadline& d);

  /// Removes every registration of `owner` (destroy_tree()).
  void drop(const ComponentCore* owner);
  /// Stops and joins the thread; later registrations are refused.
  void shutdown();

  std::size_t armed_deadlines() const;

 private:
  bool admit_locked(const PortCore* port);
  void run();
  void wake_locked();

  const Clock& clock_;
  mutable std::mutex mu_;
  bool stopped_ = false;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  Key next_key_ = 1;           ///< 0 is the eventfd's epoll key
  TimeMs sleeping_until_ = 0;  ///< the thread's wake-up deadline
  std::unordered_map<Key, std::pair<PortCore*, int>> watches_;  ///< key -> (port, fd)
  std::map<Deadline, PortCore*> deadlines_;
  std::thread thread_;  // last: run() uses every member above
};

/// A definition's handle on its runtime's reactor: a member built with
/// `ReactorLink io_{core()};` declares the hidden Reactor port, on whose
/// port() the definition subscribes its IoReady / DeadlineDue handlers.
class ReactorLink {
 public:
  explicit ReactorLink(ComponentCore& owner);

  PortCore* port() const { return inside_; }
  Reactor::Key watch(int fd, std::uint32_t events) { return reactor_.watch(outside_, fd, events); }
  void unwatch(Reactor::Key key) { reactor_.unwatch(key); }
  Reactor::Deadline arm(TimeMs at) { return reactor_.arm(outside_, at); }
  void cancel(const Reactor::Deadline& d) { reactor_.cancel(d); }

 private:
  Reactor& reactor_;
  PortCore* inside_;
  PortCore* outside_;
};

}  // namespace kompics
