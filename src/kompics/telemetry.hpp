#pragma once

// Kernel telemetry (ROADMAP "make hot paths measurably faster"; paper §4.1
// monitoring, §2.5 faults). Three cooperating facilities, all compiled in
// and all gated by runtime flags so the disabled path costs one relaxed
// atomic load and a predicted branch per hot-path touch point:
//
//   1. Metrics — per-component handler-execution counters and log2-bucketed
//      latency histograms, per-port publish counts, scheduler counters
//      (executed/steals/parks/wakes, folded out of WorkStealingScheduler::
//      stats()). Per-component metrics exploit the §3 mutual-exclusion
//      guarantee: handlers of one component never run concurrently, so the
//      stats block is single-writer and plain relaxed atomics suffice (the
//      atomics exist only for concurrent scrape readers). Multi-writer
//      global counters are cache-line sharded.
//
//   2. Causal tracing — a sampled trace/span id stamped into the event at
//      its first trigger() and carried through channel forwarding to every
//      handler execution. Events triggered from inside a traced handler
//      inherit the trace with the running span as parent, so a CATS
//      read/write reconstructs as a causal chain across components
//      (KompicsTesting's observation that the event stream is the natural
//      observation unit of this model). Spans land in per-thread ring
//      buffers merged at scrape time.
//
//   3. Flight recorder — a per-worker ring of the last N dispatch records
//      (component, event type, duration, fault flag). On fault escalation
//      (§2.5) the rings are merged into a crash-context dump, so every
//      fault report carries the dispatch history that led up to it.
//
// Surfacing: telemetry::render_prometheus / render_trace_json serve the
// /metrics and /trace endpoints of web::HttpServer; MonitorClient folds a
// kernel snapshot into its §4.1 status reports.

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace kompics {
class Event;
class Runtime;
class ComponentCore;
}  // namespace kompics

namespace kompics::telemetry {

/// Monotonic nanoseconds (steady clock). Used for durations and record
/// ordering only — never exposed as wall time.
std::uint64_t now_ns();

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// Multi-writer counter sharded across cache lines: writers pick a sticky
/// per-thread shard, so concurrent add() never bounces one line between
/// cores. value() sums the shards (racy-by-design snapshot).
class ShardedCounter {
 public:
  static constexpr std::size_t kShards = 16;

  void add(std::uint64_t n = 1) {
    shards_[shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t sum = 0;
    for (const auto& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

  /// Sticky shard of the calling thread (round-robin assigned on first use).
  static std::size_t shard_index();

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  Shard shards_[kShards];
};

/// Signed variant for gauges (attach/detach style pairs).
class ShardedGauge {
 public:
  void add(std::int64_t n) {
    shards_[ShardedCounter::shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  void sub(std::int64_t n) { add(-n); }
  std::int64_t value() const {
    std::int64_t sum = 0;
    for (const auto& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::int64_t> v{0};
  };
  Shard shards_[ShardedCounter::kShards];
};

// ---------------------------------------------------------------------------
// Latency histogram
// ---------------------------------------------------------------------------

/// Log2-bucketed duration histogram. Bucket b counts durations in
/// [2^b, 2^(b+1)) ns (bucket 0 also takes 0 ns), so 40 buckets span 1 ns to
/// ~18 minutes with a fixed 8-bit bucket computation (std::bit_width) and
/// no configuration. Writers may be concurrent (relaxed fetch_add); the
/// intended use is single-writer per instance (per-component stats under
/// the §3 mutual-exclusion guarantee) with concurrent scrape readers.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 40;

  static int bucket_of(std::uint64_t ns) {
    if (ns <= 1) return 0;
    const int b = 63 - __builtin_clzll(ns);  // floor(log2(ns))
    return b < kBuckets ? b : kBuckets - 1;
  }
  /// Inclusive upper bound of bucket b (Prometheus `le` label).
  static std::uint64_t bucket_upper_bound(int b) {
    return b >= kBuckets - 1 ? ~0ULL : (2ULL << b) - 1;
  }

  void record(std::uint64_t ns) {
    buckets_[bucket_of(ns)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  }

  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t sum_ns = 0;
    std::array<std::uint64_t, kBuckets> buckets{};
    /// Smallest inclusive bucket upper bound covering quantile q in [0,1].
    std::uint64_t quantile_upper_ns(double q) const;
  };
  Snapshot snapshot() const {
    Snapshot s;
    s.count = count_.load(std::memory_order_relaxed);
    s.sum_ns = sum_ns_.load(std::memory_order_relaxed);
    for (int i = 0; i < kBuckets; ++i) {
      s.buckets[static_cast<std::size_t>(i)] = buckets_[i].load(std::memory_order_relaxed);
    }
    return s;
  }

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
};

// ---------------------------------------------------------------------------
// Per-component stats
// ---------------------------------------------------------------------------

/// One block per component, allocated lazily by the executing worker the
/// first time the component runs with metrics enabled. Single-writer (§3);
/// atomics only for scrape readers.
struct ComponentStats {
  std::atomic<std::uint64_t> dispatches{0};           ///< work items executed
  std::atomic<std::uint64_t> handler_invocations{0};  ///< handlers run (≥ dispatches)
  std::atomic<std::uint64_t> faults{0};               ///< escalations from this component
  LatencyHistogram handler_ns;                        ///< per-dispatch execution time
};

// ---------------------------------------------------------------------------
// Trace & flight-recorder records
// ---------------------------------------------------------------------------

/// Fixed-width name copies so records stay valid after the component (or
/// its event's type) is gone; long names are truncated, never referenced.
inline constexpr std::size_t kNameCap = 48;

/// What a span measures. Handler spans wrap a component dispatch; net spans
/// bracket a message's network hop (send = serialize + queue + write, recv =
/// wire + ingress) so a cross-node trace shows where an operation's time went.
enum class SpanKind : std::uint8_t {
  kHandler = 0,
  kNetSend = 1,
  kNetRecv = 2,
};
const char* span_kind_name(std::uint8_t kind);

struct SpanRecord {
  std::uint32_t trace_id = 0;
  std::uint32_t span_id = 0;
  std::uint32_t parent_span = 0;  ///< 0 = root span of the trace
  std::uint64_t component_id = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint8_t kind = 0;          ///< SpanKind
  std::uint32_t bytes = 0;        ///< net spans: frame size on the wire
  std::int64_t link_delta_ns = 0;  ///< net recv: local now - sender's send stamp
  char component[kNameCap] = {};
  char event_type[kNameCap] = {};
};

struct DispatchRecord {
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t component_id = 0;
  std::uint32_t trace_id = 0;  ///< 0 when the dispatch was untraced
  bool control = false;
  bool faulted = false;
  char component[kNameCap] = {};
  char event_type[kNameCap] = {};
};

/// Packs (trace id, parent span id) into the event's single-word envelope
/// slot (event.hpp: Event::kompics_trace_word).
inline std::uint64_t pack_trace_word(std::uint32_t trace_id, std::uint32_t parent_span) {
  return (static_cast<std::uint64_t>(trace_id) << 32) | parent_span;
}
inline std::uint32_t trace_of_word(std::uint64_t w) { return static_cast<std::uint32_t>(w >> 32); }
inline std::uint32_t parent_of_word(std::uint64_t w) { return static_cast<std::uint32_t>(w); }

/// Trace and span ids are globalized with an 8-bit node component in the top
/// byte ((node & 0xFF) << 24 | 24-bit local counter), so ids allocated on
/// different nodes never collide and any id names its minting node.
inline std::uint32_t node_of_id(std::uint32_t id) { return id >> 24; }

// ---------------------------------------------------------------------------
// Telemetry — one instance per Runtime
// ---------------------------------------------------------------------------

class Telemetry {
 public:
  Telemetry();
  ~Telemetry() = default;
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  // ---- gates (all default off: zero-cost black box) ---------------------
  void enable_metrics(bool on) { metrics_.store(on, std::memory_order_relaxed); }
  bool metrics_enabled() const { return metrics_.load(std::memory_order_relaxed); }

  /// probability in [0,1]; 0 disables tracing entirely.
  void set_trace_sampling(double probability);
  bool tracing_enabled() const {
    return trace_threshold_.load(std::memory_order_relaxed) != 0;
  }

  void enable_flight_recorder(bool on) { recorder_.store(on, std::memory_order_relaxed); }
  bool recorder_enabled() const { return recorder_.load(std::memory_order_relaxed); }

  /// Convenience: metrics + recorder on, tracing at `sample`.
  void enable_all(double sample = 0.01) {
    enable_metrics(true);
    enable_flight_recorder(true);
    set_trace_sampling(sample);
  }

  // ---- tracing ----------------------------------------------------------
  /// 8-bit node component folded into the top byte of every trace and span
  /// id this instance allocates (config key telemetry.node_id). Node 0 (the
  /// default) leaves ids bare, so single-process deployments are unchanged.
  void set_node_id(std::uint32_t id) {
    node_id_.store(id & 0xFFu, std::memory_order_relaxed);
  }
  std::uint32_t node_id() const { return node_id_.load(std::memory_order_relaxed); }

  /// Stamps an untraced event at trigger() time: inherit the executing
  /// handler's trace (parent = its span), else sample a fresh trace.
  void stamp_event(const Event& e);

  /// Stamps the event with a fresh trace regardless of the sampling rate
  /// (the event must not already carry one — then the existing trace id is
  /// returned). Campaign runs use this to trace the violating key's ops at
  /// 100%. Tracing must still be enabled (sampling > 0) for handler spans to
  /// be recorded downstream.
  std::uint32_t force_trace(const Event& e);

  /// Allocates a span id outside open_span (net hops mint their span ids
  /// eagerly so the id can travel in the wire trailer before the span is
  /// recorded).
  std::uint32_t alloc_span_id() { return alloc_id(next_span_id_); }

  /// The executing worker's current span, inherited by events it triggers.
  struct ActiveSpan {
    std::uint32_t trace_id = 0;
    std::uint32_t span_id = 0;
  };
  /// Opens a span for a traced dispatch: allocates the span id and installs
  /// it as the thread's active span. Returns the span id.
  std::uint32_t open_span(std::uint64_t trace_word);
  /// Restores the previous active span (run_item is re-entrant through
  /// synchronous lifecycle triggers).
  void close_span(ActiveSpan previous);
  ActiveSpan active_span() const;

  void record_span(std::uint64_t trace_word, std::uint32_t span_id,
                   const ComponentCore& component, const char* event_type,
                   std::uint64_t start_ns, std::uint64_t dur_ns);

  /// Net-hop span (SpanKind::kNetSend / kNetRecv): not tied to a component,
  /// labelled with the local endpoint and the hop description instead.
  /// Callable from any thread — spans land in the calling thread's ring.
  void record_net_span(SpanKind kind, std::uint32_t trace_id, std::uint32_t span_id,
                       std::uint32_t parent_span, const char* endpoint, const char* hop,
                       std::uint32_t bytes, std::int64_t link_delta_ns,
                       std::uint64_t start_ns, std::uint64_t dur_ns);

  /// Merged snapshot of every thread's span ring, oldest first.
  std::vector<SpanRecord> trace_snapshot() const;

  /// Span-ring occupancy across all registered threads (for /metrics and the
  /// §4.1 kernel.* status fields).
  struct RingStats {
    std::size_t rings = 0;     ///< threads that have recorded at least once
    std::size_t spans = 0;     ///< live span records across all rings
    std::size_t capacity = 0;  ///< rings * kSpanRingCap
  };
  RingStats span_ring_stats() const;

  // ---- flight recorder --------------------------------------------------
  void record_dispatch(const ComponentCore& component, const char* event_type,
                       bool control, bool faulted, std::uint32_t trace_id,
                       std::uint64_t ts_ns, std::uint64_t dur_ns);

  std::vector<DispatchRecord> flight_snapshot() const;

  /// §2.5: merges all per-worker rings into a formatted crash-context dump,
  /// stores it (last_crash_dump) and returns it. Called by fault escalation.
  std::string capture_crash_dump(const std::string& reason, const ComponentCore* source);
  std::string last_crash_dump() const;

  // ---- global counters --------------------------------------------------
  ShardedCounter& events_published() { return events_published_; }
  ShardedCounter& traces_started() { return traces_started_; }
  ShardedCounter& spans_recorded() { return spans_recorded_; }
  ShardedCounter& crash_dumps() { return crash_dumps_; }
  const ShardedCounter& events_published() const { return events_published_; }
  const ShardedCounter& traces_started() const { return traces_started_; }
  const ShardedCounter& spans_recorded() const { return spans_recorded_; }
  const ShardedCounter& crash_dumps() const { return crash_dumps_; }

  /// Ring capacities (per thread). Fixed: bounded memory however long the
  /// process runs.
  static constexpr std::size_t kSpanRingCap = 2048;
  static constexpr std::size_t kFlightRingCap = 256;

 private:
  struct ThreadLog {
    std::thread::id owner;  ///< registry key: one ring pair per thread
    std::mutex mu;  ///< uncontended on the hot path (owner thread) — the
                    ///< scraper takes it briefly per ring
    std::vector<SpanRecord> spans;
    std::size_t span_next = 0;
    bool span_wrapped = false;
    std::vector<DispatchRecord> flight;
    std::size_t flight_next = 0;
    bool flight_wrapped = false;
  };
  ThreadLog& local_log();

  bool sample();  ///< per-thread xorshift vs. trace_threshold_

  /// 24-bit wrapping counter with the node id in the top byte; the low 24
  /// bits never come out 0, so a composed id is never 0 (= "untraced").
  std::uint32_t alloc_id(std::atomic<std::uint32_t>& counter) {
    std::uint32_t low = counter.fetch_add(1, std::memory_order_relaxed) & 0xFFFFFFu;
    if (low == 0) low = counter.fetch_add(1, std::memory_order_relaxed) & 0xFFFFFFu;
    return (node_id_.load(std::memory_order_relaxed) << 24) | low;
  }

  std::atomic<bool> metrics_{false};
  std::atomic<bool> recorder_{false};
  std::atomic<std::uint64_t> trace_threshold_{0};  ///< 0 = off, 2^64-1 ≈ always
  std::atomic<std::uint32_t> node_id_{0};
  std::atomic<std::uint32_t> next_trace_id_{1};
  std::atomic<std::uint32_t> next_span_id_{1};

  const std::uint64_t instance_id_;  ///< distinguishes runtimes in TL caches

  mutable std::mutex logs_mu_;
  std::vector<std::shared_ptr<ThreadLog>> logs_;

  mutable std::mutex crash_mu_;
  std::string last_crash_dump_;

  ShardedCounter events_published_;
  ShardedCounter traces_started_;
  ShardedCounter spans_recorded_;
  ShardedCounter crash_dumps_;
};

/// RAII for a traced dispatch: open_span on construction (when the event is
/// traced), close_span on destruction.
class SpanScope {
 public:
  SpanScope() = default;
  std::uint32_t open(Telemetry& tel, std::uint64_t trace_word) {
    tel_ = &tel;
    previous_ = tel.active_span();
    span_id_ = tel.open_span(trace_word);
    return span_id_;
  }
  ~SpanScope() {
    if (tel_ != nullptr) tel_->close_span(previous_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Telemetry* tel_ = nullptr;
  Telemetry::ActiveSpan previous_{};
  std::uint32_t span_id_ = 0;
};

// ---------------------------------------------------------------------------
// Rendering (monitoring-stack surface)
// ---------------------------------------------------------------------------

/// Prometheus text exposition of the runtime's kernel metrics: scheduler
/// counters, per-component dispatch counters and latency histograms,
/// per-port publish counts, channel queue depths, trace/recorder counters.
std::string render_prometheus(Runtime& rt);

/// JSON dump of the merged span buffer (plus recorder summary):
/// { "spans": [...], "traces": N, ... }. Spans carry parent ids, so a
/// consumer can reassemble each causal chain.
std::string render_trace_json(Runtime& rt);

/// Flat key/value snapshot of kernel counters for the §4.1 monitoring
/// rounds (MonitorClient ships these as "kernel.*" status fields).
std::vector<std::pair<std::string, std::string>> kernel_status_fields(Runtime& rt);

/// Prometheus label-value escaping (backslash, quote, newline). Exposed so
/// application renderers (cats_web, monitor rollups) escape identically.
std::string escape_label_value(const std::string& s);

/// Clamps a string to the Prometheus metric-name grammar
/// [a-zA-Z_:][a-zA-Z0-9_:]* (offending characters become '_').
std::string sanitize_metric_name(const std::string& s);

// ---------------------------------------------------------------------------
// Cross-node trace assembly (MonitorServer /trace/<id> surface)
// ---------------------------------------------------------------------------

/// One node's span shard, as pulled from its /trace endpoint.
struct NodeSpans {
  std::string node;  ///< display label (e.g. "127.0.0.1:31401")
  std::vector<SpanRecord> spans;
};

/// Parses the span array out of render_trace_json output (the exact format
/// this module emits — both ends are ours). Appends to *out; returns false
/// on malformed input.
bool parse_trace_spans(const std::string& json, std::vector<SpanRecord>* out);

/// Merges per-node shards into one causal tree for `trace_id`: spans dedup
/// by span id (loss/dup links and overlapping scrapes can surface the same
/// record twice), children link to parents across nodes, and each node gets
/// a clock-offset annotation (min link_delta_ns over its net-recv spans — an
/// upper bound on local-minus-sender skew, since it still contains the wire
/// latency). Returns a JSON document: {"trace":..,"nodes":[..],"roots":[..]}.
std::string assemble_trace_json(std::uint32_t trace_id, const std::vector<NodeSpans>& shards);

/// Copies a (possibly long) name into a fixed record field, truncating.
inline void copy_name(char (&dst)[kNameCap], const char* src) {
  std::size_t i = 0;
  if (src != nullptr) {
    for (; i + 1 < kNameCap && src[i] != '\0'; ++i) dst[i] = src[i];
  }
  dst[i] = '\0';
}

}  // namespace kompics::telemetry
