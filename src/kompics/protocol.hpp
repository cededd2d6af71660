#pragma once

// Coroutine protocol layer (ROADMAP item 5, DESIGN.md §9): C++20 coroutines
// as sugar over subscribe/trigger, so multi-step protocols (quorum phases,
// handshakes, lookups) read as straight-line code instead of hand-rolled
// callback state machines:
//
//   Proto<void> MyComponent::fetch(Key k) {
//     auto answers = co_await net_.open<LookupResponse>(
//         [id](const LookupResponse& r) { return r.id == id; });
//     trigger(make_event<LookupRequest>(id, k), net_);  // after the open
//     auto resp = co_await when_any(answers.next(), sleep(timer_, 200));
//     if (resp.index() == 1) co_return;                 // timed out
//     use(*std::get<0>(resp));
//   }
//   ...
//   protocol::spawn(fetch(k));                          // from any handler
//
// Execution model — nothing about §3/§6 changes:
//   * Awaiting NEVER blocks a worker. A co_await parks the coroutine frame
//     inside the component; the worker returns to the scheduler.
//   * Resumption is an ordinary work item. When an awaited event fires (in
//     a subscription invoked under the component's single-consumer
//     discipline), a ResumeEvent carrying the frame is triggered on a
//     hidden provided port of the same component; it flows through the
//     normal enqueue/dispatch path and the frame resumes inside run_item —
//     so frame code runs exactly like handler code: serialized with every
//     other handler of the component, free to touch component state.
//   * Life-cycle: a passive component parks ResumeEvents like any normal
//     event (frames freeze while the component is stopped). destroy_tree()
//     cancels every in-flight frame via ProtocolHost::cancel_all() — armed
//     timeout timers are cancelled through the Timer port while channels
//     are still attached, pending subscriptions are deactivated, and the
//     suspended frames are destroyed with the definition (never resumed).
//
// Primitives (all awaitable only inside a Proto<> coroutine) — one way to
// await events, one way to await time:
//   port.open<E>(pred)     -> Stream<E>: subscribes now, buffers every
//                          match; co_await s.next() pops. A correlated
//                          reply is one more event on a stream: open it,
//                          then trigger the request, then await next()
//   arm_timer(timer, ms)   -> ArmedTimer: one timeout on the Timer port,
//                          shared by many awaits (co_await t.wait());
//                          dropping it cancels the timeout
//   sleep(timer, ms)       an ArmedTimer private to one await: armed when
//                          the await suspends, dropped when it resumes
//   when_any(d...)         the first of several awaits; the rest detach
//
// Only Stream<E> and ArmedTimer subscribe to a port: every event or time
// await parks on the state of one of them (a nested Proto<T> parks on its
// child frame).
//
// A Proto coroutine must be a non-static member of a ComponentDefinition
// subclass (or take one as its first parameter): the promise binds the
// owning component from the call's object argument (P0914).

#include <atomic>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <type_traits>
#include <typeindex>
#include <utility>
#include <variant>
#include <vector>

#include "kompics/component.hpp"
#include "kompics/event.hpp"
#include "kompics/port.hpp"
#include "kompics/protocol_desc.hpp"
#include "timing/timer_port.hpp"

namespace kompics::protocol {

class Runner;
struct FrameControl;
using FramePtr = std::shared_ptr<FrameControl>;

template <class T>
class Proto;

namespace detail {
struct PromiseBase;
class MultiAwaiterBase;
}  // namespace detail

/// Timeout payload of every protocol sleep/deadline; correlated by id.
class ProtoTimeout : public timing::Timeout {
  KOMPICS_EVENT(ProtoTimeout, timing::Timeout);

 public:
  using timing::Timeout::Timeout;
};

/// Internal: the resumption work item. Triggered on the component's hidden
/// Protocol port when an awaited event fires; the Runner's subscription
/// resumes `leaf` (the innermost suspended coroutine of the frame).
class ResumeEvent : public Event {
  KOMPICS_EVENT(ResumeEvent, Event);

 public:
  ResumeEvent(FramePtr f, std::coroutine_handle<> l) : frame(std::move(f)), leaf(l) {}
  FramePtr frame;
  std::coroutine_handle<> leaf;
};

/// Hidden port type carrying ResumeEvents. Each component with protocol
/// frames provides exactly one (declared lazily by Runner::of).
class ProtocolPort : public PortType {
 public:
  ProtocolPort() {
    set_name("Protocol");
    request<ResumeEvent>();
  }
};

/// Result type of an elapsed sleep/deadline arm inside when_any.
struct Elapsed {};

/// Per-top-level-frame control block. Shared between the Runner (live
/// list), in-flight ResumeEvents, and the promises of the frame's coroutine
/// chain. The cleanup registry below is the cancellation contract: every
/// pending protocol subscription and armed timer of the frame is recorded
/// here, so destroy-time cancel_all() can revoke them from a foreign thread.
struct FrameControl : std::enable_shared_from_this<FrameControl> {
  Runner* runner = nullptr;
  std::coroutine_handle<> top{};
  bool done = false;          // consumer-side (set at final suspend)
  std::exception_ptr error;   // consumer-side
  std::atomic<bool> cancelled{false};

  struct ArmedRec {
    PortCore* timer_half;
    timing::TimeoutId id;
  };

  /// Registers a pending subscription; false (and the sub stays inactive —
  /// caller must not rely on it firing) when the frame is already
  /// cancelled. Consumer-side callers race only with cancel_all(), which
  /// the mutex serializes.
  bool add_sub(const SubscriptionRef& s);
  /// Unregisters; true when the sub was still registered (the caller then
  /// owns removing it from its port).
  bool drop_sub(const SubscriptionRef& s);
  /// Registers an armed timer; false when already cancelled (caller
  /// triggers the CancelTimeout itself).
  bool add_timer(PortCore* timer_half, timing::TimeoutId id);
  /// True when the id was still registered (caller owns the cancel).
  bool drop_timer(timing::TimeoutId id);

 private:
  friend class Runner;
  std::mutex mu_;
  std::vector<SubscriptionRef> subs_;
  std::vector<ArmedRec> timers_;
};

/// Per-component host of coroutine protocol frames. Owns the hidden
/// Protocol port, the live-frame list, and the teardown path. Attached
/// lazily to a ComponentDefinition on the first spawn.
class Runner final : public ProtocolHost {
 public:
  /// Get-or-create the runner attached to `def`.
  static Runner& of(ComponentDefinition& def);

  explicit Runner(ComponentDefinition& def);  // use of(); public for make_unique
  ~Runner() override;

  // ---- ProtocolHost -----------------------------------------------------
  void cancel_all() noexcept override;
  void destroy_frames() noexcept override;
  std::size_t live_frame_count() const override;

  ComponentDefinition& definition() const { return *def_; }
  /// True while the runner (and its frames) are being destroyed with the
  /// definition: awaiter destructors must not trigger into ports any more.
  bool tearing_down() const { return tearing_down_; }

  // ---- internal (awaiter machinery) -------------------------------------
  /// Enqueues the frame's resumption as an ordinary work item.
  void post_resume(const FramePtr& f, std::coroutine_handle<> leaf);
  /// Takes ownership of a top-level frame. Spawned from this component's
  /// own handler context it runs inline to the first suspension; from a
  /// foreign handler or an external thread the initial run is enqueued as
  /// an ordinary work item, so every segment — including the first —
  /// serializes with the component's handlers.
  void adopt(const FramePtr& f, std::coroutine_handle<> top);

  template <class E, class F>
  SubscriptionRef subscribe_event(PortCore* half, F&& fn) {
    return def_->template subscribe<E>(half, std::forward<F>(fn));
  }
  template <class E>
  std::shared_ptr<const E> current_event_as() const {
    return def_->template current_event_as<E>();
  }

 private:
  void resume_leaf(const FramePtr& f, std::coroutine_handle<> leaf);
  /// Retires a completed frame: destroy it, then surface its error (which
  /// escalates through the invoking handler like any handler fault).
  void finish(const FramePtr& f);

  ComponentDefinition* def_;
  PortCore* resume_in_ = nullptr;   // hidden port, inside half (subscription)
  PortCore* resume_out_ = nullptr;  // hidden port, outside half (trigger)
  mutable std::mutex live_mu_;      // live_ is read by cancel_all/foreign threads
  std::vector<FramePtr> live_;
  bool tearing_down_ = false;
};

// ---------------------------------------------------------------------------
// Descriptors local to this header (the port-handle one lives in
// protocol_desc.hpp so port.hpp can build it).
// ---------------------------------------------------------------------------

/// co_await sleep(timer_, ms): suspend until one timeout on the Timer port.
struct SleepDesc {
  PortCore* timer_half = nullptr;
  std::int64_t delay_ms = 0;
};

template <class PT>
SleepDesc sleep(Positive<PT> timer, std::int64_t delay_ms) {
  return {timer.core, delay_ms};
}
inline SleepDesc sleep(PortCore* timer_half, std::int64_t delay_ms) {
  return {timer_half, delay_ms};
}

/// co_await arm_timer(timer_, ms) -> ArmedTimer (see below).
struct ArmTimerDesc {
  PortCore* timer_half = nullptr;
  std::int64_t delay_ms = 0;
};

template <class PT>
ArmTimerDesc arm_timer(Positive<PT> timer, std::int64_t delay_ms) {
  return {timer.core, delay_ms};
}

namespace detail {

struct AwaitCtx {
  Runner* runner = nullptr;
  FrameControl* ctl = nullptr;
};

struct StreamStateBase {
  MultiAwaiterBase* waiter = nullptr;
  std::size_t waiter_index = 0;
  SubscriptionRef sub;
  FrameControl* ctl = nullptr;
  Runner* runner = nullptr;
};

template <class E>
struct StreamState : StreamStateBase {
  /// Buffered events beyond this are dropped (lossy-network semantics): a
  /// flood of network input cannot grow a parked frame without bound.
  static constexpr std::size_t kCapacity = 4096;
  std::deque<std::shared_ptr<const E>> buf;
  std::uint64_t dropped = 0;
};

struct ArmedTimerState : StreamStateBase {
  PortCore* timer_half = nullptr;
  timing::TimeoutId id = 0;
  bool fired = false;
};

/// Notifies the waiter parked on a stream/armed-timer state, if any.
void notify_state(StreamStateBase& st);
/// Shared release path: drop + remove the state's subscription.
void release_state_sub(StreamStateBase& st);

}  // namespace detail

template <class E>
struct StreamNextDesc {
  kompics::protocol::detail::StreamState<E>* state = nullptr;
};

struct TimerWaitDesc {
  detail::ArmedTimerState* state = nullptr;
};

/// A buffered subscription owned by a coroutine frame: created with
/// co_await port.open<E>(pred), it subscribes immediately and queues every
/// matching event until popped with co_await stream.next(). Closing (or
/// destroying, e.g. when the frame unwinds) unsubscribes.
template <class E>
class Stream {
 public:
  Stream() = default;
  explicit Stream(std::unique_ptr<detail::StreamState<E>> s) : state_(std::move(s)) {}
  Stream(Stream&& o) noexcept = default;
  Stream& operator=(Stream&& o) noexcept {
    if (this != &o) {
      close();
      state_ = std::move(o.state_);
    }
    return *this;
  }
  ~Stream() { close(); }

  bool is_open() const { return state_ != nullptr; }
  std::size_t buffered() const { return state_ ? state_->buf.size() : 0; }
  std::uint64_t dropped() const { return state_ ? state_->dropped : 0; }

  /// Awaitable: pops the oldest buffered event, suspending until one exists.
  StreamNextDesc<E> next() { return {state_.get()}; }

  void close() {
    if (state_ == nullptr) return;
    detail::release_state_sub(*state_);
    state_.reset();
  }

 private:
  std::unique_ptr<detail::StreamState<E>> state_;
};

/// A deadline armed once and consulted by many awaits: the natural shape of
/// a per-attempt protocol timeout that spans several phases. Obtained with
/// co_await arm_timer(timer_, ms); a default-constructed ArmedTimer is
/// inert (its wait() arm never fires), which makes optional deadlines easy
/// to express in when_any. Destruction cancels the underlying timer through
/// the Timer port unless it already fired.
class ArmedTimer {
 public:
  ArmedTimer() = default;
  /// Arms one ProtoTimeout of `delay_ms` on `timer_half` for the frame of
  /// `cx`: subscribes for it, schedules it, and registers it with the
  /// frame's FrameControl so destroy-time cancel_all() can revoke it. The
  /// one place a protocol timeout is armed (arm_timer and sleep both).
  ArmedTimer(detail::AwaitCtx cx, PortCore* timer_half, std::int64_t delay_ms);
  ArmedTimer(ArmedTimer&&) noexcept = default;
  ArmedTimer& operator=(ArmedTimer&& o) noexcept {
    if (this != &o) {
      cancel();
      state_ = std::move(o.state_);
    }
    return *this;
  }
  ~ArmedTimer() { cancel(); }

  bool armed() const { return state_ != nullptr; }
  bool fired() const { return state_ != nullptr && state_->fired; }

  /// Awaitable arm: fires when the deadline elapses (never, when inert).
  TimerWaitDesc wait() { return {state_.get()}; }

  void cancel();

 private:
  std::unique_ptr<detail::ArmedTimerState> state_;
};

// ---------------------------------------------------------------------------
// Arms: the per-descriptor attach/fire/take/detach behaviors composed by the
// awaiters. All methods run under the owning component's single-consumer
// discipline — no locks needed beyond the FrameControl registry.
// ---------------------------------------------------------------------------

namespace detail {

inline constexpr std::size_t kNoWinner = static_cast<std::size_t>(-1);

class MultiAwaiterBase {
 public:
  FrameControl* ctl = nullptr;
  std::coroutine_handle<> leaf{};
  std::size_t winner = kNoWinner;
  bool posted = false;

  void arm_fired(std::size_t index) {
    if (winner != kNoWinner) return;
    winner = index;
    post();
  }

 private:
  void post();
};

/// Parks an await on a stream's or armed timer's state; the state's
/// subscription fires it through notify_state().
template <class State>
class StateArm {
 public:
  explicit StateArm(State* s) : s_(s) {}
  StateArm(StateArm&& o) noexcept
      : s_(std::exchange(o.s_, nullptr)), attached_(std::exchange(o.attached_, false)) {}
  ~StateArm() { detach(); }

  void attach(AwaitCtx, MultiAwaiterBase* owner, std::size_t index) {
    if (s_ == nullptr) return;  // closed stream or unarmed timer: inert arm
    s_->waiter = owner;
    s_->waiter_index = index;
    attached_ = true;
  }

  void detach() {
    if (attached_ && s_ != nullptr) s_->waiter = nullptr;
    attached_ = false;
  }

 protected:
  State* s_;
  bool attached_ = false;
};

template <class E>
class StreamArm : public StateArm<StreamState<E>> {
 public:
  using Result = std::shared_ptr<const E>;
  using StateArm<StreamState<E>>::StateArm;

  bool ready() const { return this->s_ != nullptr && !this->s_->buf.empty(); }

  Result take() {
    if (!ready()) return nullptr;
    Result e = std::move(this->s_->buf.front());
    this->s_->buf.pop_front();
    return e;
  }
};

class TimerWaitArm : public StateArm<ArmedTimerState> {
 public:
  using Result = Elapsed;
  using StateArm::StateArm;

  bool ready() const { return s_ != nullptr && s_->fired; }
  Result take() { return {}; }
};

/// sleep(): an ArmedTimer private to this arm, armed when the await
/// suspends and cancelled through the Timer port when it resumes — so a
/// losing when_any arm never leaves its timeout armed.
class SleepArm : public TimerWaitArm {
 public:
  explicit SleepArm(SleepDesc d) : TimerWaitArm(nullptr), d_(d) {}
  SleepArm(SleepArm&&) noexcept = default;
  ~SleepArm() { detach(); }  // before timer_ frees the state s_ points into

  void attach(AwaitCtx cx, MultiAwaiterBase* owner, std::size_t index) {
    timer_ = ArmedTimer(cx, d_.timer_half, d_.delay_ms);
    s_ = timer_.wait().state;
    TimerWaitArm::attach(cx, owner, index);
  }

  void detach() {
    TimerWaitArm::detach();
    timer_.cancel();
    s_ = nullptr;
  }

 private:
  SleepDesc d_;
  ArmedTimer timer_;
};

inline SleepArm make_arm(SleepDesc d) { return SleepArm(d); }
template <class E>
StreamArm<E> make_arm(StreamNextDesc<E> d) {
  return StreamArm<E>(d.state);
}
inline TimerWaitArm make_arm(TimerWaitDesc d) { return TimerWaitArm(d.state); }

// ---------------------------------------------------------------------------
// Awaiters
// ---------------------------------------------------------------------------

template <class Arm>
class SingleAwaiter : public MultiAwaiterBase {
 public:
  SingleAwaiter(AwaitCtx cx, Arm arm) : cx_(cx), arm_(std::move(arm)) { ctl = cx.ctl; }

  bool await_ready() {
    if (arm_.ready()) {
      winner = 0;
      return true;
    }
    return false;
  }
  void await_suspend(std::coroutine_handle<> h) {
    leaf = h;
    arm_.attach(cx_, this, 0);
  }
  typename Arm::Result await_resume() {
    arm_.detach();
    return arm_.take();
  }

 private:
  AwaitCtx cx_;
  Arm arm_;
};

template <class... Arms>
class MultiAwaiter : public MultiAwaiterBase {
 public:
  using Result = std::variant<typename Arms::Result...>;

  MultiAwaiter(AwaitCtx cx, Arms... arms) : cx_(cx), arms_(std::move(arms)...) { ctl = cx.ctl; }

  bool await_ready() {
    for_each([&](auto& a, std::size_t i) {
      if (winner == kNoWinner && a.ready()) winner = i;
    });
    return winner != kNoWinner;
  }

  void await_suspend(std::coroutine_handle<> h) {
    leaf = h;
    for_each([&](auto& a, std::size_t i) { a.attach(cx_, this, i); });
  }

  Result await_resume() {
    for_each([](auto& a, std::size_t) { a.detach(); });
    return take_winner<0>();
  }

 private:
  template <class F, std::size_t... I>
  void for_each_impl(F&& f, std::index_sequence<I...>) {
    (f(std::get<I>(arms_), I), ...);
  }
  template <class F>
  void for_each(F&& f) {
    for_each_impl(std::forward<F>(f), std::index_sequence_for<Arms...>{});
  }

  template <std::size_t I>
  Result take_winner() {
    if constexpr (I < sizeof...(Arms)) {
      if (winner == I) return Result(std::in_place_index<I>, std::get<I>(arms_).take());
      return take_winner<I + 1>();
    } else {
      throw std::logic_error("protocol: when_any resumed without a winner");
    }
  }

  AwaitCtx cx_;
  std::tuple<Arms...> arms_;
};

/// Non-suspending awaiter opening a Stream<E>: subscribes immediately (so
/// no event between open and the first next() is lost) and hands back the
/// stream object.
template <class E, class Pred>
class OpenAwaiter {
 public:
  OpenAwaiter(AwaitCtx cx, OpenDesc<E, Pred> d) : cx_(cx), d_(std::move(d)) {}

  bool await_ready() const { return true; }
  void await_suspend(std::coroutine_handle<>) const {}
  Stream<E> await_resume() {
    auto st = std::make_unique<StreamState<E>>();
    st->ctl = cx_.ctl;
    st->runner = cx_.runner;
    StreamState<E>* s = st.get();
    s->sub = cx_.runner->subscribe_event<E>(
        d_.half, [s, runner = cx_.runner, pred = std::move(d_.pred)](const E& e) {
          if (!pred(e)) return;
          if (s->buf.size() >= StreamState<E>::kCapacity) {
            ++s->dropped;  // lossy-network semantics: bounded buffering
            return;
          }
          s->buf.push_back(runner->current_event_as<E>());
          notify_state(*s);
        });
    cx_.ctl->add_sub(s->sub);
    return Stream<E>(std::move(st));
  }

 private:
  AwaitCtx cx_;
  OpenDesc<E, Pred> d_;
};

/// Non-suspending awaiter arming a reusable deadline.
class ArmTimerAwaiter {
 public:
  ArmTimerAwaiter(AwaitCtx cx, ArmTimerDesc d) : cx_(cx), d_(d) {}

  bool await_ready() const { return true; }
  void await_suspend(std::coroutine_handle<>) const {}
  ArmedTimer await_resume() { return ArmedTimer(cx_, d_.timer_half, d_.delay_ms); }

 private:
  AwaitCtx cx_;
  ArmTimerDesc d_;
};

// ---------------------------------------------------------------------------
// Promise / task type
// ---------------------------------------------------------------------------

template <class T>
struct Promise;
template <class... Ds>
struct AnyDesc;

struct PromiseBase {
  ComponentDefinition* def = nullptr;
  FrameControl* ctl = nullptr;  // top frame's control (inherited by children)
  std::coroutine_handle<> continuation{};
  std::exception_ptr error;

  PromiseBase() = default;
  // P0914: promise constructed from the coroutine's arguments. For a member
  // coroutine the implicit object parameter is first — any Proto coroutine
  // on a ComponentDefinition subclass binds its component here.
  template <class Self, class... Args,
            class = std::enable_if_t<
                std::is_base_of_v<ComponentDefinition, std::remove_cvref_t<Self>>>>
  explicit PromiseBase(Self& self, Args&...) : def(&self) {}

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    PromiseBase* p;
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<>) const noexcept {
      if (p->continuation) return p->continuation;  // nested: resume the parent
      if (p->ctl != nullptr) {  // top-level: the resumer retires the frame
        p->ctl->done = true;
        p->ctl->error = p->error;
      }
      return std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {this}; }

  void unhandled_exception() { error = std::current_exception(); }

  AwaitCtx ctx() {
    if (ctl == nullptr || ctl->runner == nullptr) {
      throw std::logic_error("protocol: frame awaited outside a spawned Proto");
    }
    return {ctl->runner, ctl};
  }

  // ---- await_transform: the closed set of awaitables --------------------
  auto await_transform(SleepDesc d) { return SingleAwaiter(ctx(), make_arm(d)); }
  template <class E>
  auto await_transform(StreamNextDesc<E> d) {
    return SingleAwaiter(ctx(), make_arm(d));
  }
  auto await_transform(TimerWaitDesc d) { return SingleAwaiter(ctx(), make_arm(d)); }
  template <class E, class Pred>
  auto await_transform(OpenDesc<E, Pred> d) {
    return OpenAwaiter<E, Pred>(ctx(), std::move(d));
  }
  auto await_transform(ArmTimerDesc d) { return ArmTimerAwaiter(ctx(), d); }
  template <class... Ds>
  auto await_transform(AnyDesc<Ds...> d);
  template <class U>
  auto await_transform(Proto<U>&& p);
};

template <class... Ds>
struct AnyDesc {
  std::tuple<Ds...> arms;
};

template <class T>
struct Promise : PromiseBase {
  using PromiseBase::PromiseBase;
  std::optional<T> value;

  Proto<T> get_return_object();
  void return_value(T v) { value.emplace(std::move(v)); }
};

template <>
struct Promise<void> : PromiseBase {
  using PromiseBase::PromiseBase;

  Proto<void> get_return_object();
  void return_void() {}
};

/// Awaiting a child Proto: bind it to the parent's frame and start it via
/// symmetric transfer; its completion resumes the parent the same way.
template <class U>
struct ProtoAwaiter {
  std::coroutine_handle<Promise<U>> child;
  PromiseBase* parent;

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<>h) {
    auto& cp = child.promise();
    cp.continuation = h;
    cp.ctl = parent->ctl;
    if (cp.def == nullptr) cp.def = parent->def;
    return child;
  }
  U await_resume() {
    auto& cp = child.promise();
    if (cp.error) std::rethrow_exception(cp.error);
    if constexpr (!std::is_void_v<U>) return std::move(*cp.value);
  }
};

}  // namespace detail

/// The protocol task type: a lazily-started coroutine bound to a component.
/// Either co_await it from another Proto (structured nesting: the child
/// runs on the same frame control and resumes the parent on completion), or
/// hand it to protocol::spawn() as a new top-level frame.
template <class T = void>
class [[nodiscard]] Proto {
 public:
  using promise_type = detail::Promise<T>;

  Proto(Proto&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  Proto& operator=(Proto&& o) noexcept {
    if (this != &o) {
      if (h_) h_.destroy();
      h_ = std::exchange(o.h_, {});
    }
    return *this;
  }
  Proto(const Proto&) = delete;
  Proto& operator=(const Proto&) = delete;
  ~Proto() {
    if (h_) h_.destroy();
  }

 private:
  friend struct detail::Promise<T>;
  friend struct detail::PromiseBase;
  template <class U>
  friend void spawn(Proto<U> p);

  explicit Proto(std::coroutine_handle<detail::Promise<T>> h) : h_(h) {}
  std::coroutine_handle<detail::Promise<T>> h_;
};

namespace detail {

template <class T>
Proto<T> Promise<T>::get_return_object() {
  return Proto<T>(std::coroutine_handle<Promise<T>>::from_promise(*this));
}
inline Proto<void> Promise<void>::get_return_object() {
  return Proto<void>(std::coroutine_handle<Promise<void>>::from_promise(*this));
}

template <class... Ds>
auto PromiseBase::await_transform(AnyDesc<Ds...> d) {
  return std::apply(
      [&](Ds&... ds) {
        return MultiAwaiter<decltype(make_arm(std::move(ds)))...>(ctx(),
                                                                 make_arm(std::move(ds))...);
      },
      d.arms);
}
template <class U>
auto PromiseBase::await_transform(Proto<U>&& p) {
  return ProtoAwaiter<U>{p.h_, this};
}

}  // namespace detail

/// when_any(d...): resolve to the first arm that fires; the losers are
/// detached (stream and timer arms stop waiting, and a losing sleep's
/// timeout is cancelled through the Timer port). Yields std::variant over
/// the arm results (std::shared_ptr<const E> for stream arms, Elapsed for
/// timer arms) — switch on .index().
template <class... Ds>
detail::AnyDesc<Ds...> when_any(Ds... ds) {
  static_assert(sizeof...(Ds) >= 1);
  return {std::tuple<Ds...>(std::move(ds)...)};
}

/// Launches `p` as a new top-level frame on the component its coroutine is
/// bound to (the object of the member-coroutine call). Runs inline to the
/// first suspension; after that the frame lives in the component until it
/// completes or the component is destroyed. A protocol frame that exits
/// with an exception escalates it as a component fault (§2.5).
template <class T>
void spawn(Proto<T> p) {
  if (!p.h_) throw std::logic_error("protocol: spawn of an empty Proto");
  auto& promise = p.h_.promise();
  if (promise.def == nullptr) {
    throw std::logic_error(
        "protocol: spawn requires a coroutine bound to a ComponentDefinition "
        "(make it a member, or take the definition as the first parameter)");
  }
  Runner& runner = Runner::of(*promise.def);
  auto ctl = std::make_shared<FrameControl>();
  promise.ctl = ctl.get();
  std::coroutine_handle<> h = std::exchange(p.h_, {});
  runner.adopt(ctl, h);
}

}  // namespace kompics::protocol
