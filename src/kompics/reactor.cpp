#include "reactor.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <limits>
#include <stdexcept>
#include <typeindex>

#include "kompics.hpp"

namespace kompics {

Reactor::~Reactor() {
  shutdown();
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void Reactor::shutdown() {
  {
    std::lock_guard<std::mutex> g(mu_);
    if (stopped_) return;
    stopped_ = true;
    if (thread_.joinable()) wake_locked();
  }
  if (thread_.joinable()) thread_.join();
}

bool Reactor::admit_locked(const PortCore* port) {
  if (stopped_ || port->owner()->state() == LifecycleState::kDestroyed) return false;
  if (thread_.joinable()) return true;
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) throw std::runtime_error("reactor: epoll/eventfd failed");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = 0;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  thread_ = std::thread([this] { run(); });
  return true;
}

void Reactor::wake_locked() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

Reactor::Key Reactor::watch(PortCore* port, int fd, std::uint32_t events) {
  std::lock_guard<std::mutex> g(mu_);
  if (!admit_locked(port)) return 0;
  const Key key = next_key_++;
  epoll_event ev{};
  ev.events = events | EPOLLET;
  ev.data.u64 = key;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) return 0;
  watches_.emplace(key, std::pair{port, fd});
  return key;
}

void Reactor::unwatch(Key key) {
  std::lock_guard<std::mutex> g(mu_);
  auto it = watches_.find(key);
  if (it == watches_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second.second, nullptr);
  watches_.erase(it);
}

Reactor::Deadline Reactor::arm(PortCore* port, TimeMs at) {
  std::lock_guard<std::mutex> g(mu_);
  if (!admit_locked(port)) return {};
  const Deadline d{at, next_key_++};
  deadlines_.emplace(d, port);
  if (at < sleeping_until_) {
    sleeping_until_ = at;
    wake_locked();
  }
  return d;
}

void Reactor::cancel(const Deadline& d) {
  std::lock_guard<std::mutex> g(mu_);
  deadlines_.erase(d);
}

void Reactor::drop(const ComponentCore* owner) {
  std::lock_guard<std::mutex> g(mu_);
  for (auto it = watches_.begin(); it != watches_.end();) {
    if (it->second.first->owner() != owner) {
      ++it;
      continue;
    }
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second.second, nullptr);
    it = watches_.erase(it);
  }
  std::erase_if(deadlines_, [owner](const auto& d) { return d.second->owner() == owner; });
}

std::size_t Reactor::armed_deadlines() const {
  std::lock_guard<std::mutex> g(mu_);
  return deadlines_.size();
}

void Reactor::run() {
  epoll_event events[64];
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopped_) {
    const TimeMs now = clock_.now();
    while (!deadlines_.empty() && deadlines_.begin()->first.at <= now) {
      const auto [d, port] = *deadlines_.begin();
      deadlines_.erase(deadlines_.begin());
      // Delivery is an ordinary trigger on the owner's hidden port, like
      // protocol::Runner::post_resume: it only enqueues a work item and
      // never runs a handler inline, so holding the lock across it cannot
      // deadlock — and holding it is what makes drop() a barrier.
      port->trigger(std::make_shared<const DeadlineDue>(d.key));
    }
    sleeping_until_ =
        deadlines_.empty() ? std::numeric_limits<TimeMs>::max() : deadlines_.begin()->first.at;
    const int timeout_ms =
        deadlines_.empty()
            ? -1
            : static_cast<int>(std::min<TimeMs>(sleeping_until_ - now, 1 << 30));
    lock.unlock();
    const int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
    lock.lock();
    for (int i = 0; i < n; ++i) {
      const Key key = events[i].data.u64;
      if (key == 0) {  // the eventfd
        std::uint64_t count;
        [[maybe_unused]] const ssize_t r = ::read(wake_fd_, &count, sizeof(count));
        continue;
      }
      auto it = watches_.find(key);
      if (it == watches_.end()) continue;  // unwatched after epoll_wait collected it
      it->second.first->trigger(std::make_shared<const IoReady>(key));
    }
  }
}

ReactorLink::ReactorLink(ComponentCore& owner) : reactor_(owner.runtime()->reactor()) {
  PortPair* pair = owner.declare_port(&port_type<ReactorPort>(),
                                      std::type_index(typeid(ReactorPort)), /*provided=*/true);
  inside_ = pair->inside.get();
  outside_ = pair->outside.get();
}

}  // namespace kompics
