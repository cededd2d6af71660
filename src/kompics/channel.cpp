#include "channel.hpp"

#include <stdexcept>
#include <vector>

#include "component.hpp"
#include "port.hpp"

namespace kompics {

Channel::Channel(PortCore* positive_end, PortCore* negative_end)
    : positive_end_(positive_end), negative_end_(negative_end), snap_([&] {
        auto* s = new Snap;
        s->state = State::kActive;
        s->positive_end = positive_end;
        s->negative_end = negative_end;
        return s;
      }()) {
  fast_pos_.store(positive_end, std::memory_order_relaxed);
  fast_neg_.store(negative_end, std::memory_order_relaxed);
  fast_path_.store(positive_end != nullptr && negative_end != nullptr,
                   std::memory_order_release);
}

Channel::~Channel() = default;

void Channel::publish_locked() {
  auto* s = new Snap;
  s->state = state_;
  s->positive_end = positive_end_;
  s->negative_end = negative_end_;
  s->positive_filter = positive_filter_;
  s->negative_filter = negative_filter_;
  snap_.swap(s);
  // Refresh the lock-free mirror after the snapshot swap. A forward racing
  // with this observes either configuration (or a mix its guards reject) —
  // every outcome linearizes to a point before or after the mutation, just
  // as with a pinned pre-swap snapshot.
  fast_pos_.store(positive_end_, std::memory_order_relaxed);
  fast_neg_.store(negative_end_, std::memory_order_relaxed);
  fast_path_.store(state_ == State::kActive && positive_end_ != nullptr &&
                       negative_end_ != nullptr && !positive_filter_ && !negative_filter_,
                   std::memory_order_release);
}

void Channel::forward(const EventPtr& e, Direction d, const PortCore* from) {
  // Default-configuration fast path: no snapshot pin, three plain loads.
  // The sender must match one of the mirrored ends exactly — a torn read
  // during a concurrent mutation either matches nothing (fall through to
  // the snapshot path) or yields a far end that some pre-/post-mutation
  // configuration also had, which is a linearizable delivery.
  const bool toward_positive = from->polarity() != Direction::kPositive;
  if (fast_path_.load(std::memory_order_acquire)) {
    PortCore* pos = fast_pos_.load(std::memory_order_relaxed);
    PortCore* neg = fast_neg_.load(std::memory_order_relaxed);
    PortCore* far = toward_positive ? pos : neg;
    if ((from == pos || from == neg) && far != nullptr) {
      far->deliver_from_channel(e, d);
      return;
    }
  }
  {
    const auto snap = snap_.acquire();
    const auto& filter =
        d == Direction::kPositive ? snap->positive_filter : snap->negative_filter;
    if (filter && !filter(*e)) return;  // selector: not for this channel
    if (snap->state == State::kActive) {
      // Route by the sender's polarity, never by "not the positive end": a
      // sender racing its own unplug is no longer an end, and its event
      // belongs at the opposite end, not at its replacement.
      PortCore* far = toward_positive ? snap->positive_end : snap->negative_end;
      if (far != nullptr) {
        // Active, fully-plugged fast path: deliver without touching the
        // channel lock. Delivery runs outside any channel-internal state
        // (dispatch takes component queues and may recursively traverse
        // further channels); the snapshot guard only pins the config.
        far->deliver_from_channel(e, d);
        return;
      }
    }
  }
  forward_slow(e, d, toward_positive);
}

void Channel::forward_slow(const EventPtr& e, Direction d, bool toward_positive) {
  PortCore* far = nullptr;
  {
    std::lock_guard<std::mutex> g(mu_);
    switch (state_) {
      case State::kDead:
        return;  // disconnected: drop (reconfiguration uses hold+unplug to avoid this)
      case State::kHeld:
        queue_.push_back(Pending{e, d, toward_positive});
        return;
      case State::kActive: {
        far = toward_positive ? positive_end_ : negative_end_;
        if (far == nullptr) {
          // Far end unplugged: queue until plugged back (§2.6 — no loss).
          queue_.push_back(Pending{e, d, toward_positive});
          return;
        }
        break;
      }
    }
  }
  // Deliver outside the channel lock: dispatch takes component locks and
  // may recursively traverse further channels.
  far->deliver_from_channel(e, d);
}

void Channel::set_filter(Direction d, std::function<bool(const Event&)> filter) {
  std::lock_guard<std::mutex> g(mu_);
  (d == Direction::kPositive ? positive_filter_ : negative_filter_) = std::move(filter);
  publish_locked();
}

void Channel::hold() {
  std::lock_guard<std::mutex> g(mu_);
  if (state_ == State::kActive) {
    state_ = State::kHeld;
    publish_locked();
  }
}

void Channel::resume() {
  std::unique_lock<std::mutex> lock(mu_);
  if (state_ != State::kHeld) return;
  state_ = State::kActive;
  publish_locked();
  flush_locked(lock);
}

void Channel::flush_locked(std::unique_lock<std::mutex>& lock) {
  // Forward every queued event, in FIFO order, before releasing new traffic.
  // Events whose destination end is still unplugged stay queued.
  std::deque<Pending> ready;
  std::deque<Pending> still;
  for (auto& p : queue_) {
    PortCore* dest = p.toward_positive ? positive_end_ : negative_end_;
    if (dest == nullptr) {
      still.push_back(std::move(p));
    } else {
      ready.push_back(std::move(p));
    }
  }
  queue_ = std::move(still);
  PortCore* pos = positive_end_;
  PortCore* neg = negative_end_;
  lock.unlock();
  // Replay is a synchronous propagation like trigger(): batch the ready
  // transitions of the whole backlog into one scheduler hand-off.
  detail::DispatchBatchScope batch;
  for (auto& p : ready) {
    PortCore* dest = p.toward_positive ? pos : neg;
    if (dest != nullptr) dest->deliver_from_channel(p.event, p.direction);
  }
}

void Channel::unplug(PortCore* end) {
  std::lock_guard<std::mutex> g(mu_);
  if (end == positive_end_ && positive_end_ != nullptr) {
    unplugged_was_positive_ = true;
  } else if (end == negative_end_ && negative_end_ != nullptr) {
    unplugged_was_positive_ = false;
  } else {
    throw std::logic_error("unplug: port is not an end of this channel");
  }
  unplugged_end_ = end;
  end->detach_channel(this);
  (unplugged_was_positive_ ? positive_end_ : negative_end_) = nullptr;
  publish_locked();
}

void Channel::plug(PortCore* new_end) {
  std::unique_lock<std::mutex> lock(mu_);
  if (unplugged_end_ == nullptr) throw std::logic_error("plug: channel has no unplugged end");
  PortCore* other = unplugged_was_positive_ ? negative_end_ : positive_end_;
  if (other != nullptr) {
    if (new_end->type() != other->type()) throw std::logic_error("plug: port type mismatch");
    if (new_end->polarity() == other->polarity()) {
      throw std::logic_error("plug: polarity mismatch (must connect + to -)");
    }
  }
  (unplugged_was_positive_ ? positive_end_ : negative_end_) = new_end;
  unplugged_end_ = nullptr;
  new_end->attach_channel(shared_from_this());
  publish_locked();
  if (state_ == State::kActive) flush_locked(lock);
}

void Channel::destroy() {
  PortCore* pos;
  PortCore* neg;
  {
    std::lock_guard<std::mutex> g(mu_);
    if (state_ == State::kDead) return;
    state_ = State::kDead;
    pos = positive_end_;
    neg = negative_end_;
    positive_end_ = nullptr;
    negative_end_ = nullptr;
    queue_.clear();
    publish_locked();
  }
  if (pos != nullptr) pos->detach_channel(this);
  if (neg != nullptr) neg->detach_channel(this);
}

}  // namespace kompics
