#pragma once

// TestKit event-stream DSL (ROADMAP item 4; KompicsTesting, arXiv
// 1705.04669): declarative protocol tests against one component under test
// (CUT) running on the deterministic simulator.
//
// A TestContext bootstraps the CUT inside a probe component. Ports of the
// CUT the test cares about are *monitored*: the probe subscribes a
// catch-all recorder on the port's outside half, so every event the CUT
// emits there (indications on provided ports, requests on required ports)
// lands — in global emission order — on one totally ordered observed
// stream. The test then describes the expected stream declaratively:
//
//   TestContext ctx(seed, [](TestProbe& p, sim::SimulatorCore&) {
//     return p.make<ConsistentABD>();
//   });
//   auto net = ctx.monitor_required<net::Network>();
//   ctx.attach_sim_timer();
//   ctx.trigger(pg, make_event<PutRequest>(1, key, v))
//      .expect<LookupRequest>(router, [&](const LookupRequest& r) { op = r; })
//      .trigger(router, [&] { return make_event<LookupResponse>(op.id, ...); })
//      .repeat(3).expect<AbdReadMsg>(net, [&](const AbdReadMsg& m) { reads.push_back(m); })
//      .end_repeat();
//   auto result = ctx.check();   // resolves against virtual time
//
// Resolution is timeout-bounded in *virtual* time: an expect advances the
// simulation until a matching event arrives, the per-statement timeout
// expires, the world runs dry, or the step budget trips (livelock guard —
// the failure message then carries SimulatorCore::pending_summary()).
// Mismatches fail with a diff-style message: the expected statement, the
// observed head of the stream, and the recent stream tail.
//
// Composite statements: either/or_else (branch on the next observed event),
// unordered (a set of expects resolved in any arrival order), repeat(n),
// when(pred) (conditional block, pred evaluated at run time), allow/forbid
// (ambient filters), settle / expect_silence (timed quiescence).

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "kompics/kompics.hpp"
#include "sim/sim_timer.hpp"
#include "sim/simulation.hpp"
#include "timing/timer_port.hpp"

namespace kompics::testkit {

class TestContext;

/// KOMPICS_EVENT name of an event's type (an unregistered leaf class
/// reports its nearest registered ancestor's name).
inline const char* event_type_name(const Event& e) {
  return kompics::detail::g_event_types[e.kompics_type_id()].name;
}

/// The probe: root component owning the CUT (and any attached satellites,
/// e.g. a SimTimer). Exposes the protected ComponentDefinition surface the
/// TestContext drives from outside the component world.
class TestProbe : public ComponentDefinition {
 public:
  using Build = std::function<Component(TestProbe&, sim::SimulatorCore&)>;

  TestProbe(sim::SimulatorCore* core, Build build) : core_(core) { cut_ = build(*this, *core); }

  template <class D, class... A>
  Component make(A&&... a) {
    return create<D>(std::forward<A>(a)...);
  }

  Component& cut() { return cut_; }
  sim::SimulatorCore& sim_core() { return *core_; }

  /// Activates a child created after the probe started (dynamic creation
  /// leaves children passive, §2.4).
  void activate(Component& c) { trigger(make_event<Start>(), c.control()); }

  using ComponentDefinition::connect;
  using ComponentDefinition::current_event;
  using ComponentDefinition::destroy;
  using ComponentDefinition::replace;
  using ComponentDefinition::subscribe;
  using ComponentDefinition::trigger;

 private:
  sim::SimulatorCore* core_;
  Component cut_;
};

/// Handle to a monitored port (identity + display name).
struct PortHandle {
  PortCore* half = nullptr;
  std::string name;
};

/// Outcome of TestContext::check().
struct Result {
  bool ok = true;
  std::string message;
  explicit operator bool() const { return ok; }
};

namespace detail {

struct Observed {
  PortCore* half = nullptr;
  EventPtr event;
  TimeMs at = 0;
};

/// One resolvable expectation: type + optional predicate + capture.
struct ExpectSpec {
  PortCore* half = nullptr;
  std::string port_name;
  std::string type_name;
  std::function<bool(const Event&)> matches;    ///< type check + predicate
  std::function<bool(const Event&)> matches_type;  ///< type check only (diagnostics)
  std::function<void(const EventPtr&)> capture;  ///< run on match (may be null)
  bool has_predicate = false;

  std::string describe() const {
    std::string s = type_name + " out@" + port_name;
    if (has_predicate) s += " [predicate]";
    return s;
  }
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

struct Stmt {
  enum class Kind {
    kExpect,
    kTrigger,
    kExec,
    kRepeat,
    kEither,
    kUnordered,
    kWhen,
    kSettle,
  };
  Kind kind = Kind::kExec;
  int index = 0;  ///< statement number (for failure messages)

  ExpectSpec expect;                         // kExpect / kUnordered members
  std::function<EventPtr()> make_evt;        // kTrigger
  PortCore* trigger_half = nullptr;          // kTrigger
  std::string trigger_port;                  // kTrigger
  std::function<void()> exec;                // kExec
  std::function<bool()> pred;                // kWhen
  std::size_t count = 0;                     // kRepeat
  DurationMs settle_ms = 0;                  // kSettle
  bool require_silence = false;              // kSettle
  DurationMs timeout_override = -1;          // kExpect/kEither/kUnordered; -1 = default
  std::vector<StmtPtr> body;                 // kRepeat/kWhen/kUnordered
  std::vector<std::vector<StmtPtr>> branches;  // kEither
};

/// Ambient filter (allow/forbid) applied whenever the stream is popped.
struct Filter {
  PortCore* half = nullptr;  ///< nullptr = any monitored port
  std::function<bool(const Event&)> matches;
  std::string describe;
};

class Engine;  // event_stream.cpp

}  // namespace detail

class TestContext {
 public:
  /// Bootstraps a fresh simulated world (seeded) and the CUT inside a
  /// TestProbe. `build` runs in the probe's constructor: create the CUT
  /// (and any satellites) there and return it.
  explicit TestContext(std::uint64_t seed, TestProbe::Build build, Config config = {});
  ~TestContext();

  TestContext(const TestContext&) = delete;
  TestContext& operator=(const TestContext&) = delete;

  // ---- world access -----------------------------------------------------
  sim::Simulation& sim() { return sim_; }
  TestProbe& probe() { return *probe_; }
  Component& cut() { return probe_->cut(); }
  TimeMs now() const { return sim_.now(); }

  /// Triggers an Init (or any control event) at the CUT.
  void init(const EventPtr& e) { cut().control()->trigger(e); }

  // ---- monitors & attachments ------------------------------------------
  /// Monitors the CUT's provided port of type PT: indications the CUT emits
  /// there enter the observed stream; trigger(handle, request) injects.
  template <class PT>
  PortHandle monitor_provided() {
    return monitor(cut().provided<PT>().core, port_type<PT>().name());
  }

  /// Monitors the CUT's required port of type PT: requests the CUT emits
  /// there enter the observed stream; trigger(handle, indication) injects.
  template <class PT>
  PortHandle monitor_required() {
    return monitor(cut().required<PT>().core, port_type<PT>().name());
  }

  /// Creates a SimTimer on the virtual clock and connects it to the CUT's
  /// required Timer port (the standard unmonitored satellite).
  Component& attach_sim_timer();

  // ---- script configuration --------------------------------------------
  /// Virtual-time budget per expect (default 5000 ms).
  TestContext& set_default_timeout(DurationMs ms) {
    default_timeout_ = ms;
    return *this;
  }
  /// Timed-action budget per check() — the livelock guard (default 2M).
  TestContext& set_step_budget(std::uint64_t steps) {
    step_budget_ = steps;
    return *this;
  }

  // ---- DSL statements ---------------------------------------------------
  /// Expect the next observed event to be an E on `p`. F is optional: a
  /// callable returning void is a capture (runs on match); one returning
  /// bool is a predicate (the event must satisfy it to match).
  template <class E, class F>
  TestContext& expect(const PortHandle& p, F&& f) {
    return push_expect(make_spec<E>(p, std::forward<F>(f)), -1);
  }
  template <class E>
  TestContext& expect(const PortHandle& p) {
    return push_expect(make_spec<E>(p, nullptr), -1);
  }
  /// Same, with a per-statement timeout override.
  template <class E, class F>
  TestContext& expect_within(DurationMs timeout, const PortHandle& p, F&& f) {
    return push_expect(make_spec<E>(p, std::forward<F>(f)), timeout);
  }
  template <class E>
  TestContext& expect_within(DurationMs timeout, const PortHandle& p) {
    return push_expect(make_spec<E>(p, nullptr), timeout);
  }

  /// Injects an event into the CUT through a monitored port.
  TestContext& trigger(const PortHandle& p, EventPtr e);
  /// Lazy variant: the factory runs at execution time, so it can use values
  /// captured by earlier expects in the same script.
  TestContext& trigger(const PortHandle& p, std::function<EventPtr()> factory);

  /// Runs arbitrary code at this point of the script (state assertions,
  /// fault injection, ...).
  TestContext& exec(std::function<void()> fn);

  /// Advances virtual time by `ms`; events observed meanwhile stay buffered
  /// for later expects.
  TestContext& settle(DurationMs ms);
  /// Advances virtual time by `ms` and fails if any (non-allowed) event is
  /// observed in the window.
  TestContext& expect_silence(DurationMs ms);

  // Composite blocks. Every `x()` must be closed by the matching `end_x()`.
  TestContext& repeat(std::size_t n);
  TestContext& end_repeat();
  /// Branch on the next observed event: the first branch whose leading
  /// expect matches it runs; others are skipped. Each branch must start
  /// with an expect.
  TestContext& either();
  TestContext& or_else();
  TestContext& end_either();
  /// A set of expects resolved in any arrival order.
  TestContext& unordered();
  TestContext& end_unordered();
  /// Conditional block: the body runs iff pred() holds when reached.
  TestContext& when(std::function<bool()> pred);
  TestContext& end_when();

  /// Ambient allow: matching observed events are dropped silently whenever
  /// the stream is popped (periodic protocol noise). Scope: whole context.
  template <class E>
  TestContext& allow(const PortHandle& p) {
    allows_.push_back(detail::Filter{p.half, [](const Event& e) { return event_is<E>(e); },
                                     std::string(type_label<E>()) + " out@" + p.name});
    return *this;
  }
  /// Ambient forbid: observing a matching event fails the script instantly.
  template <class E>
  TestContext& forbid(const PortHandle& p) {
    forbids_.push_back(detail::Filter{p.half, [](const Event& e) { return event_is<E>(e); },
                                      std::string(type_label<E>()) + " out@" + p.name});
    return *this;
  }

  /// Resolves the script built so far against the simulation. On success
  /// the script resets (the context can stage further script + check
  /// rounds); buffered unconsumed events remain for the next round.
  Result check();

  /// Number of observed-but-unconsumed events currently buffered.
  std::size_t buffered() const { return stream_.size(); }

  std::uint64_t seed() const { return seed_; }

 private:
  friend class detail::Engine;

  template <class E>
  static const char* type_label() {
    return kompics::detail::g_event_types[E::kompics_static_type_id()].name;
  }

  template <class E, class F>
  detail::ExpectSpec make_spec(const PortHandle& p, F&& f) {
    detail::ExpectSpec spec;
    spec.half = p.half;
    spec.port_name = p.name;
    spec.type_name = type_label<E>();
    spec.matches_type = [](const Event& e) { return event_is<E>(e); };
    if constexpr (std::is_same_v<std::decay_t<F>, std::nullptr_t>) {
      spec.matches = [](const Event& e) { return event_is<E>(e); };
    } else {
      using R = std::invoke_result_t<F&, const E&>;
      if constexpr (std::is_same_v<R, bool>) {
        spec.has_predicate = true;
        spec.matches = [fn = std::forward<F>(f)](const Event& e) {
          return event_is<E>(e) && fn(event_as<E>(e));
        };
      } else {
        spec.matches = [](const Event& e) { return event_is<E>(e); };
        spec.capture = [fn = std::forward<F>(f)](const EventPtr& e) {
          fn(event_as<E>(*e));
        };
      }
    }
    return spec;
  }

  PortHandle monitor(PortCore* half, const std::string& name);
  TestContext& push_expect(detail::ExpectSpec spec, DurationMs timeout);
  TestContext& push(detail::StmtPtr s);
  TestContext& close_block(detail::Stmt::Kind kind, const char* what);
  std::vector<detail::StmtPtr>* open_block();
  void builder_error(const std::string& what);
  std::string port_name_of(PortCore* half) const;

  struct BuilderBlock {
    detail::Stmt::Kind kind;
    detail::StmtPtr stmt;  ///< the composite under construction
  };

  sim::Simulation sim_;
  std::uint64_t seed_ = 0;
  Component probe_c_;
  TestProbe* probe_ = nullptr;
  Component timer_;

  std::deque<detail::Observed> stream_;
  std::unordered_map<PortCore*, std::string> port_names_;
  std::vector<detail::Filter> allows_;
  std::vector<detail::Filter> forbids_;

  std::vector<detail::StmtPtr> script_;
  std::vector<BuilderBlock> block_stack_;
  int next_stmt_index_ = 1;
  std::string build_error_;

  DurationMs default_timeout_ = 5000;
  std::uint64_t step_budget_ = 2'000'000;

  // Rolling annotated log of stream activity for failure messages.
  struct LogEntry {
    TimeMs at;
    bool injected;
    std::string port;
    std::string type;
    std::string note;
  };
  std::deque<LogEntry> log_;
  void log_event(TimeMs at, bool injected, const std::string& port, const std::string& type,
                 std::string note);
  std::string render_log_tail(std::size_t n = 12) const;
};

}  // namespace kompics::testkit
