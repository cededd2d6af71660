#include "kompics/protocol.hpp"

#include <algorithm>

namespace kompics::protocol {

namespace {

void cancel_timeout(PortCore* timer_half, timing::TimeoutId id) {
  timer_half->trigger(std::make_shared<const timing::CancelTimeout>(id));
}

}  // namespace

// ---------------------------------------------------------------------------
// FrameControl — the cancellation registry
// ---------------------------------------------------------------------------

bool FrameControl::add_sub(const SubscriptionRef& s) {
  {
    std::lock_guard<std::mutex> g(mu_);
    if (!cancelled.load(std::memory_order_relaxed)) {
      subs_.push_back(s);
      return true;
    }
  }
  // Lost the race with cancel_all(): the sweep never saw this subscription,
  // so revoke it here (remove_subscription is thread-safe).
  if (s != nullptr && s->half != nullptr) s->half->remove_subscription(s);
  return false;
}

bool FrameControl::drop_sub(const SubscriptionRef& s) {
  std::lock_guard<std::mutex> g(mu_);
  auto it = std::find(subs_.begin(), subs_.end(), s);
  if (it == subs_.end()) return false;
  subs_.erase(it);
  return true;
}

bool FrameControl::add_timer(PortCore* timer_half, timing::TimeoutId id) {
  std::lock_guard<std::mutex> g(mu_);
  if (cancelled.load(std::memory_order_relaxed)) return false;
  timers_.push_back({timer_half, id});
  return true;
}

bool FrameControl::drop_timer(timing::TimeoutId id) {
  std::lock_guard<std::mutex> g(mu_);
  auto it = std::find_if(timers_.begin(), timers_.end(),
                         [id](const ArmedRec& r) { return r.id == id; });
  if (it == timers_.end()) return false;
  timers_.erase(it);
  return true;
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

Runner& Runner::of(ComponentDefinition& def) {
  if (def.protocol_host_ == nullptr) {
    def.protocol_host_ = std::make_unique<Runner>(def);
  }
  return static_cast<Runner&>(*def.protocol_host_);
}

Runner::Runner(ComponentDefinition& def) : def_(&def) {
  PortPair* pair = def.core_->declare_port(&port_type<ProtocolPort>(),
                                           std::type_index(typeid(ProtocolPort)), true);
  resume_in_ = pair->inside.get();
  resume_out_ = pair->outside.get();
  def.subscribe<ResumeEvent>(resume_in_, [this](const ResumeEvent& e) {
    resume_leaf(e.frame, e.leaf);
  });
}

Runner::~Runner() { destroy_frames(); }

void Runner::destroy_frames() noexcept {
  // Called by ~ComponentCore before the definition is destroyed ("no
  // concurrency from here on"), so frame locals can still reference the
  // derived definition while they unwind. Destroying a suspended frame
  // unwinds it: awaiter/stream/timer destructors release their
  // registrations, and tearing_down_ keeps them from triggering
  // CancelTimeouts into ports mid-teardown (destroy_tree's cancel_all
  // already swept those while channels were attached).
  tearing_down_ = true;
  std::vector<FramePtr> frames;
  {
    std::lock_guard<std::mutex> g(live_mu_);
    frames.swap(live_);
  }
  for (auto& f : frames) {
    f->cancelled.store(true, std::memory_order_release);
    if (f->top) {
      std::coroutine_handle<> h = f->top;
      f->top = {};
      h.destroy();
    }
  }
}

void Runner::cancel_all() noexcept {
  // Called from destroy_tree(), possibly on a foreign thread, while the
  // component's channels are still attached — the only window in which an
  // armed timeout can still reach its Timer provider. Frames are NOT
  // destroyed here (the consumer may be running one); they die with the
  // definition in ~Runner. Idempotent: a second sweep finds empty lists.
  std::vector<FramePtr> frames;
  {
    std::lock_guard<std::mutex> g(live_mu_);
    frames = live_;
  }
  for (auto& f : frames) {
    f->cancelled.store(true, std::memory_order_release);
    std::vector<SubscriptionRef> subs;
    std::vector<FrameControl::ArmedRec> timers;
    {
      std::lock_guard<std::mutex> g(f->mu_);
      subs.swap(f->subs_);
      timers.swap(f->timers_);
    }
    for (auto& s : subs) {
      if (s != nullptr && s->half != nullptr) s->half->remove_subscription(s);
    }
    for (auto& t : timers) {
      try {
        cancel_timeout(t.timer_half, t.id);
      } catch (...) {
        // A torn-down timer channel is acceptable during shutdown.
      }
    }
  }
}

std::size_t Runner::live_frame_count() const {
  std::lock_guard<std::mutex> g(live_mu_);
  return live_.size();
}

void Runner::post_resume(const FramePtr& f, std::coroutine_handle<> leaf) {
  // An ordinary trigger on the hidden provided port: the event arrives at
  // the inside half, dispatches to our ResumeEvent subscription, and is
  // enqueued on the component's work queue — resumption thus rides the
  // normal §6 path (single-consumer serialization, parking while passive,
  // telemetry) with no scheduler special-casing.
  resume_out_->trigger(std::make_shared<const ResumeEvent>(f, leaf));
}

void Runner::adopt(const FramePtr& f, std::coroutine_handle<> top) {
  f->runner = this;
  f->top = top;
  {
    std::lock_guard<std::mutex> g(live_mu_);
    live_.push_back(f);
  }
  if (ComponentCore::running_on_this_thread() == def_->core_) {
    // Spawned from a handler of this very component: the caller already
    // holds the single-consumer context, so run to the first suspension
    // inline — a protocol that can answer from local state completes
    // synchronously, and a pre-suspension error surfaces out of spawn().
    top.resume();
    if (f->done) finish(f);
  } else {
    // Foreign context: another component's handler, or an external thread
    // (a test driver, a bootstrap path). Running inline here would race
    // with this component's work items the moment the segment registers a
    // subscription — the segment must serialize with handlers exactly like
    // every later resumption, so post it through the hidden port.
    post_resume(f, top);
  }
}

void Runner::resume_leaf(const FramePtr& f, std::coroutine_handle<> leaf) {
  if (f->done || f->cancelled.load(std::memory_order_acquire)) return;
  leaf.resume();
  if (f->done) finish(f);
}

void Runner::finish(const FramePtr& f) {
  {
    std::lock_guard<std::mutex> g(live_mu_);
    live_.erase(std::remove(live_.begin(), live_.end(), f), live_.end());
  }
  std::exception_ptr err = f->error;
  if (f->top) {
    std::coroutine_handle<> h = f->top;
    f->top = {};
    h.destroy();
  }
  // A frame that exited with an exception faults the component exactly like
  // a throwing handler: the throw propagates out of the invoking work item
  // (or out of spawn(), for a frame that never suspended) into the §2.5
  // escalation path.
  if (err) std::rethrow_exception(err);
}

// ---------------------------------------------------------------------------
// Awaiters and armed timers (non-template pieces)
// ---------------------------------------------------------------------------

namespace detail {

void MultiAwaiterBase::post() {
  if (posted || ctl == nullptr || !leaf) return;
  posted = true;
  ctl->runner->post_resume(ctl->shared_from_this(), leaf);
}

void notify_state(StreamStateBase& st) {
  if (st.waiter == nullptr) return;
  MultiAwaiterBase* w = st.waiter;
  st.waiter = nullptr;  // one fire per parked arm; later events just buffer
  w->arm_fired(st.waiter_index);
}

void release_state_sub(StreamStateBase& st) {
  if (st.sub == nullptr) return;
  if (st.ctl->drop_sub(st.sub) && st.sub->half != nullptr) {
    st.sub->half->remove_subscription(st.sub);
  }
  st.sub.reset();
  st.waiter = nullptr;
}

}  // namespace detail

ArmedTimer::ArmedTimer(detail::AwaitCtx cx, PortCore* timer_half, std::int64_t delay_ms)
    : state_(std::make_unique<detail::ArmedTimerState>()) {
  detail::ArmedTimerState* s = state_.get();
  s->ctl = cx.ctl;
  s->runner = cx.runner;
  s->timer_half = timer_half;
  auto req = timing::schedule<ProtoTimeout>(delay_ms);
  s->id = req->timeout_id();
  s->sub = cx.runner->subscribe_event<ProtoTimeout>(timer_half, [s](const ProtoTimeout& t) {
    if (s->fired || t.id() != s->id) return;
    s->fired = true;
    detail::notify_state(*s);
  });
  cx.ctl->add_sub(s->sub);
  timer_half->trigger(req);
  if (!cx.ctl->add_timer(timer_half, s->id)) {
    // Frame cancelled between scheduling and registration: revoke here
    // (ThreadTimer tolerates a cancel racing its schedule).
    cancel_timeout(timer_half, s->id);
  }
}

void ArmedTimer::cancel() {
  if (state_ == nullptr) return;
  detail::release_state_sub(*state_);
  bool registered = state_->ctl->drop_timer(state_->id);
  if (registered && !state_->fired && !state_->runner->tearing_down()) {
    // An unfired timeout must not stay armed (the ThreadTimer-leak class):
    // cancel it through the Timer port.
    cancel_timeout(state_->timer_half, state_->id);
  }
  state_.reset();
}

}  // namespace kompics::protocol
