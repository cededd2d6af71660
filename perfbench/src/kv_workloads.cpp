// kv-latency and kv-throughput: CATS clusters in one process, driven by a
// closed-loop load engine. Each client slot keeps exactly one op in flight
// and issues its next op from the previous op's completion callback, so the
// load generator owns no threads; the scheduler's workers, the per-node
// ThreadTimers and (for TCP) the per-node I/O threads are what is measured.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>

#include "cats/bootstrap.hpp"
#include "cats/cats_client.hpp"
#include "cats/cats_node.hpp"
#include "kompics/kompics.hpp"
#include "kompics/telemetry.hpp"
#include "net/loopback.hpp"
#include "net/tcp_network.hpp"
#include "timing/thread_timer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace kompics;
using namespace kompics::cats;
using net::Address;

constexpr int kSetups = 3;              // setup_s is the median of this many
constexpr std::int64_t kProbePeriodMs = 5;
constexpr double kTraceSampling = 0.05;

struct KvSpec {
  std::string name;
  bool tcp = false;
  int nodes = 0;
  int clients = 0;    ///< load-issuing clients, spread evenly over the nodes
  int in_flight = 0;  ///< ops in flight per client
  int keys = 0;
  std::size_t value_bytes = 1024;
  bool paired = false;      ///< put then get of the same key (else a get/put mix)
  double put_fraction = 0;  ///< mix: share of puts
  double latency_slice_s = 0;  ///< see report_latency; 0 is the whole window
  CatsParams params;
};

CatsParams kv_params(std::size_t replication, DurationMs fd_timeout_ms) {
  CatsParams p;
  p.replication_degree = replication;
  p.stabilization_period_ms = 200;
  p.shuffle_period_ms = 200;
  p.fd_ping_period_ms = 200;
  p.fd_initial_timeout_ms = fd_timeout_ms;
  p.op_timeout_ms = 2000;
  // Nacks during a view change retry after 50 ms; ten retries ride out a
  // change instead of failing the op.
  p.op_max_retries = 10;
  p.keepalive_period_ms = 500;
  p.bootstrap_eviction_ms = 5000;
  return p;
}

// ---- values ------------------------------------------------------------------

constexpr std::uint32_t kTagMagic = 0x4b565450;  // "KVTP"

void put_u32(Value& v, std::size_t at, std::uint32_t x) {
  for (std::size_t i = 0; i < 4; ++i) v[at + i] = static_cast<std::uint8_t>(x >> (8 * i));
}
std::uint32_t get_u32(const Value& v, std::size_t at) {
  std::uint32_t x = 0;
  for (std::size_t i = 0; i < 4; ++i) x |= static_cast<std::uint32_t>(v[at + i]) << (8 * i);
  return x;
}

/// kv-throughput value: magic, key index, writer, write sequence number,
/// then pseudo-random filler.
Value tagged_value(std::size_t key_idx, std::uint32_t writer, std::uint32_t seq, std::size_t n,
                   Rng& rng) {
  Value v = random_value(rng, n);
  put_u32(v, 0, kTagMagic);
  put_u32(v, 4, static_cast<std::uint32_t>(key_idx));
  put_u32(v, 8, writer);
  put_u32(v, 12, seq);
  return v;
}

bool tagged_for(const Value& v, std::size_t key_idx, std::size_t n) {
  return v.size() == n && get_u32(v, 0) == kTagMagic &&
         get_u32(v, 4) == static_cast<std::uint32_t>(key_idx);
}

// ---- cluster -------------------------------------------------------------------

class KvMachine : public ComponentDefinition {
 public:
  KvMachine(const KvSpec& spec, NodeRef self, Address boot, net::LoopbackHubPtr hub,
            bool with_probe) {
    if (spec.tcp) {
      net = create<net::TcpNetwork>();
      net::TcpNetwork::Options opts;
      opts.compress = true;
      trigger(make_event<net::TcpNetwork::Init>(self.addr, opts), net.control());
    } else {
      net = create<net::LoopbackNetwork>();
      trigger(make_event<net::LoopbackNetwork::Init>(self.addr, hub), net.control());
    }
    timer = create<timing::ThreadTimer>();
    node = create<CatsNode>(self, boot, Address{}, spec.params);
    client = create<CatsClient>();
    connect(node.required<net::Network>(), net.provided<net::Network>());
    connect(node.required<timing::Timer>(), timer.provided<timing::Timer>());
    connect(node.provided<PutGet>(), client.required<PutGet>());
    if (with_probe) {
      probe = create<LatenessProbe>(kProbePeriodMs);
      connect(probe.required<timing::Timer>(), timer.provided<timing::Timer>());
    }
  }
  Component net, timer, node, client, probe;
};

class KvClusterMain : public ComponentDefinition {
 public:
  KvClusterMain(const KvSpec& spec, const std::vector<std::uint16_t>& ports) {
    auto hub = std::make_shared<net::LoopbackHub>();
    const Address boot = spec.tcp ? Address::loopback(ports[0]) : Address::node(1);
    if (spec.tcp) {
      boot_net = create<net::TcpNetwork>();
      trigger(make_event<net::TcpNetwork::Init>(boot), boot_net.control());
    } else {
      boot_net = create<net::LoopbackNetwork>();
      trigger(make_event<net::LoopbackNetwork::Init>(boot, hub), boot_net.control());
    }
    boot_timer = create<timing::ThreadTimer>();
    boot_server = create<BootstrapServer>();
    trigger(make_event<BootstrapServer::Init>(boot, spec.params), boot_server.control());
    connect(boot_server.required<net::Network>(), boot_net.provided<net::Network>());
    connect(boot_server.required<timing::Timer>(), boot_timer.provided<timing::Timer>());
    for (int i = 0; i < spec.nodes; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      const Address addr = spec.tcp ? Address::loopback(ports[idx + 1])
                                    : Address::node(10 + static_cast<std::uint32_t>(i));
      const NodeRef self{static_cast<RingKey>(i) * (~0ull / static_cast<RingKey>(spec.nodes)),
                         addr};
      machines.push_back(create<KvMachine>(spec, self, boot, hub, i == 0));
    }
  }
  Component boot_net, boot_timer, boot_server;
  std::vector<Component> machines;
};

bool loopback_port_free(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  a.sin_port = htons(port);
  const bool ok = ::bind(fd, reinterpret_cast<sockaddr*>(&a), sizeof(a)) == 0;
  ::close(fd);
  return ok;
}

/// `n` bindable loopback ports below the usual ephemeral range, so that no
/// outgoing connection can take one between this probe and the node's bind.
std::vector<std::uint16_t> pick_ports(int n) {
  static std::uint32_t cursor = 20000 + (static_cast<std::uint32_t>(::getpid()) * 7919u) % 9000u;
  std::vector<std::uint16_t> out;
  for (int tries = 0; static_cast<int>(out.size()) < n && tries < 10000; ++tries) {
    cursor = cursor >= 29999 ? 20000 : cursor + 1;
    if (loopback_port_free(static_cast<std::uint16_t>(cursor))) {
      out.push_back(static_cast<std::uint16_t>(cursor));
    }
  }
  if (static_cast<int>(out.size()) < n) throw std::runtime_error("no free loopback ports");
  return out;
}

struct Cluster {
  std::unique_ptr<Runtime> rt;
  Component main;
  const KvClusterMain& def() const { return main.definition_as<KvClusterMain>(); }
  const KvMachine& machine(std::size_t i) const {
    return def().machines[i].definition_as<KvMachine>();
  }
  std::size_t size() const { return def().machines.size(); }
  CatsNode& node(std::size_t i) const { return machine(i).node.definition_as<CatsNode>(); }
  CatsClient& client(std::size_t i) const {
    return machine(i).client.definition_as<CatsClient>();
  }
  LatenessProbe& probe() const { return machine(0).probe.definition_as<LatenessProbe>(); }
};

std::unique_ptr<Cluster> start_cluster(const KvSpec& spec, std::size_t workers,
                                       std::uint64_t seed) {
  auto c = std::make_unique<Cluster>();
  c->rt = Runtime::threaded(Config{}, workers, seed);
  const std::vector<std::uint16_t> ports = spec.tcp ? pick_ports(spec.nodes + 1)
                                                    : std::vector<std::uint16_t>{};
  c->main = c->rt->bootstrap<KvClusterMain>(spec, ports);
  return c;
}

bool wait_ready(const Cluster& c, double timeout_s) {
  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(timeout_s * 1e9);
  while (now_ns() < deadline) {
    std::size_t ready = 0;
    for (std::size_t i = 0; i < c.size(); ++i) ready += c.node(i).ready() ? 1 : 0;
    if (ready == c.size()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

/// Puts expected[i] under keys[i] for every key, 32 at a time over all the
/// clients, retrying failed puts; then reads every key back and compares.
/// The readiness gate: measuring starts only once this returns true.
bool seed_and_confirm(const Cluster& c, const std::vector<RingKey>& keys,
                      const std::vector<Value>& expected, std::uint64_t* retried,
                      std::string* why) {
  struct Batch {
    std::mutex mu;
    std::condition_variable cv;
    std::size_t outstanding = 0;
    std::vector<char> ok;
  };
  constexpr std::size_t kBatch = 32;
  constexpr int kRounds = 6;
  const std::size_t n = keys.size();
  auto run = [&](bool puts, std::vector<char>& done) -> bool {
    for (int round = 0; round < kRounds; ++round) {
      std::vector<std::size_t> todo;
      for (std::size_t i = 0; i < n; ++i) {
        if (!done[i]) todo.push_back(i);
      }
      if (todo.empty()) return true;
      if (round > 0 && puts) *retried += todo.size();
      for (std::size_t start = 0; start < todo.size(); start += kBatch) {
        auto b = std::make_shared<Batch>();
        b->ok.assign(n, 0);
        const std::size_t end = std::min(todo.size(), start + kBatch);
        b->outstanding = end - start;
        for (std::size_t j = start; j < end; ++j) {
          const std::size_t i = todo[j];
          CatsClient& client = c.client(j % c.size());
          auto finish = [b, i](bool ok) {
            std::lock_guard<std::mutex> g(b->mu);
            b->ok[i] = ok ? 1 : 0;
            if (--b->outstanding == 0) b->cv.notify_all();
          };
          if (puts) {
            client.put(keys[i], expected[i], finish);
          } else {
            const Value* want = &expected[i];
            client.get(keys[i], [finish, want](bool ok, bool found, const Value& v) {
              finish(ok && found && v == *want);
            });
          }
        }
        std::unique_lock<std::mutex> lock(b->mu);
        if (!b->cv.wait_for(lock, std::chrono::seconds(60), [&] { return b->outstanding == 0; })) {
          *why = puts ? "seed puts did not complete" : "confirming gets did not complete";
          return false;
        }
        for (std::size_t j = start; j < end; ++j) done[todo[j]] = b->ok[todo[j]];
      }
    }
    return std::all_of(done.begin(), done.end(), [](char x) { return x != 0; });
  };
  std::vector<char> put_done(n, 0), get_done(n, 0);
  if (!run(true, put_done)) {
    if (why->empty()) *why = "seed puts kept failing";
    return false;
  }
  if (!run(false, get_done)) {
    if (why->empty()) *why = "a seeded key did not read back its value";
    return false;
  }
  return true;
}

// ---- counters ------------------------------------------------------------------

struct Snap {
  std::uint64_t t_ns = 0;
  double cpu_s = 0;
  std::map<std::string, double> sched;
  double msgs = 0;
  double wire_bytes = 0;
  LayerSnap layers;
};

void add_net(const Component& net, bool tcp, Snap& s) {
  if (tcp) {
    const auto k = net.definition_as<net::TcpNetwork>().counters();
    s.msgs += static_cast<double>(k.messages_sent);
    s.wire_bytes += static_cast<double>(k.bytes_sent);
  } else {
    const auto& lb = net.definition_as<net::LoopbackNetwork>();
    s.msgs += static_cast<double>(lb.sent());
    s.wire_bytes += static_cast<double>(lb.bytes_on_wire());
  }
}

Snap snapshot(const Cluster& c, bool tcp) {
  Snap s;
  s.t_ns = now_ns();
  s.cpu_s = process_cpu_s();
  for (const auto& [k, v] : c.rt->scheduler().telemetry_counters()) {
    s.sched[k] = static_cast<double>(v);
  }
  add_net(c.def().boot_net, tcp, s);
  for (std::size_t i = 0; i < c.size(); ++i) add_net(c.machine(i).net, tcp, s);
  s.layers = layer_snapshot(c.main.core());
  return s;
}

struct AbdSnap {
  double retries = 0, views = 0, reconfigs = 0;
};

/// ABD counters summed over the nodes. The counters are plain fields
/// written by the ABD handlers, so callers read them with no client load
/// running (only the slow maintenance timers can touch them meanwhile).
AbdSnap abd_snapshot(const Cluster& c) {
  AbdSnap s;
  for (std::size_t i = 0; i < c.size(); ++i) {
    const auto k = c.node(i).abd.definition_as<ConsistentABD>().counters();
    s.retries += static_cast<double>(k.retries);
    s.views += static_cast<double>(k.views_installed);
    s.reconfigs += static_cast<double>(k.reconfigs_decided);
  }
  return s;
}

/// The last step of the readiness gate: no view installed anywhere for a
/// second, so a view change left over from the joins cannot land inside
/// the measured window.
bool wait_views_stable(const Cluster& c, double timeout_s) {
  constexpr int kQuietPolls = 4;
  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(timeout_s * 1e9);
  double views = abd_snapshot(c).views;
  for (int quiet = 0; quiet < kQuietPolls;) {
    if (now_ns() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    const double now_views = abd_snapshot(c).views;
    quiet = now_views == views ? quiet + 1 : 0;
    views = now_views;
  }
  return true;
}

// ---- load engine -----------------------------------------------------------------

/// The benchmark's own span around one client op: issue, completion
/// callback entry, and the end of the callback's bookkeeping.
struct OpSpan {
  std::uint64_t issue_ns = 0, done_ns = 0, callback_end_ns = 0;
  std::uint32_t slot = 0;
  bool is_put = false, ok = false;
};

class Engine : public std::enable_shared_from_this<Engine> {
 public:
  struct Slot {
    std::uint32_t id = 0;
    CatsClient* client = nullptr;
    Rng rng{0};
    bool get_next = false;  // paired: the put succeeded, read it back next
    std::size_t key_idx = 0;
    Value last_put;
    std::uint32_t seq = 0;
    std::vector<OpSample> samples;
    std::vector<OpSpan> spans;
    std::uint64_t attempted = 0, failed = 0, wrong = 0;
  };

  Engine(const KvSpec& spec, const Cluster& c, const std::vector<RingKey>& keys,
         std::uint64_t seed, bool record_spans)
      : spec_(spec), keys_(keys), record_spans_(record_spans) {
    const std::size_t stride = c.size() / static_cast<std::size_t>(spec.clients);
    for (int cl = 0; cl < spec.clients; ++cl) {
      for (int w = 0; w < spec.in_flight; ++w) {
        Slot s;
        s.id = static_cast<std::uint32_t>(slots_.size());
        s.client = &c.client(static_cast<std::size_t>(cl) * stride);
        s.rng = Rng(seed * 0x100000001b3ULL + s.id);
        slots_.push_back(std::move(s));
      }
    }
  }

  void start() {
    {
      std::lock_guard<std::mutex> g(mu_);
      inflight_ = slots_.size();
    }
    for (Slot& s : slots_) issue(s);
  }

  /// Stops issuing and waits for every slot's last op to complete.
  bool stop_and_drain(std::chrono::seconds timeout) {
    stop_.store(true, std::memory_order_release);
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [this] { return inflight_ == 0; });
  }
  std::size_t inflight() {
    std::lock_guard<std::mutex> g(mu_);
    return inflight_;
  }

  const std::vector<Slot>& slots() const { return slots_; }
  double issue_us_mean() const {
    const double n = static_cast<double>(issues_.load());
    return n > 0 ? static_cast<double>(issue_ns_.load()) / 1e3 / n : 0;
  }

 private:
  // Everything a slot needs is written before the client call: its
  // completion callback may run on a worker before the call returns.
  void issue(Slot& s) {
    if (stop_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> g(mu_);
      if (--inflight_ == 0) cv_.notify_all();
      return;
    }
    bool is_put;
    if (spec_.paired) {
      is_put = !s.get_next;
      if (is_put) {
        s.key_idx = s.rng.below(keys_.size());
        s.last_put = random_value(s.rng, spec_.value_bytes);
      }
    } else {
      is_put = s.rng.unit() < spec_.put_fraction;
      s.key_idx = s.rng.below(keys_.size());
    }
    ++s.attempted;
    auto self = shared_from_this();
    Slot* sp = &s;
    const RingKey key = keys_[s.key_idx];
    const std::uint64_t t0 = now_ns();
    if (is_put) {
      Value v = spec_.paired ? s.last_put
                             : tagged_value(s.key_idx, s.id, ++s.seq, spec_.value_bytes, s.rng);
      s.client->put(key, std::move(v),
                    [self, sp, t0](bool ok) { self->complete(*sp, true, ok, ok, t0); });
    } else {
      const std::size_t key_idx = s.key_idx;
      s.client->get(key, [self, sp, t0, key_idx](bool ok, bool found, const Value& v) {
        const bool right = ok && found &&
                           (self->spec_.paired ? v == sp->last_put
                                               : tagged_for(v, key_idx, self->spec_.value_bytes));
        self->complete(*sp, false, ok, right, t0);
      });
    }
    issue_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
    issues_.fetch_add(1, std::memory_order_relaxed);
  }

  void complete(Slot& s, bool is_put, bool ok, bool right, std::uint64_t t0) {
    const std::uint64_t t1 = now_ns();
    if (right) {
      s.samples.push_back(OpSample{t1, static_cast<double>(t1 - t0) / 1e3, is_put});
    } else {
      ++s.failed;
      if (ok) ++s.wrong;
    }
    if (spec_.paired) s.get_next = is_put && right;
    if (record_spans_) s.spans.push_back(OpSpan{t0, t1, now_ns(), s.id, is_put, right});
    issue(s);
  }

  const KvSpec spec_;
  const std::vector<RingKey> keys_;
  const bool record_spans_;
  std::vector<Slot> slots_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> issue_ns_{0}, issues_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t inflight_ = 0;  // guarded by mu_
};

// ---- one measured window -------------------------------------------------------

struct Window {
  std::uint64_t start_ns = 0, end_ns = 0;
  Snap before, after;
  std::vector<OpSample> samples;
  std::vector<OpSpan> spans;
  std::vector<double> lateness_us;
  std::vector<double> queue_depth;
  std::uint64_t attempted = 0, failed = 0, wrong = 0, stuck = 0;
  double issue_us = 0;
  double peak_rss_mib = 0;  ///< VmHWM when measuring starts
  int threads = 0;

  double ok_in_window() const {
    double n = 0;
    for (const auto& s : samples) n += (s.done_ns >= start_ns && s.done_ns < end_ns) ? 1 : 0;
    return n;
  }
  double mean_latency_us() const {
    std::vector<double> v;
    for (const auto& s : samples) {
      if (s.done_ns >= start_ns && s.done_ns < end_ns) v.push_back(s.latency_us);
    }
    return mean(v);
  }
};

void sleep_s(double s) { std::this_thread::sleep_for(std::chrono::duration<double>(s)); }

/// Runs the closed-loop load for `warmup_s`, then measures `measure_s`.
/// `detail` also samples the run queue and records client spans.
Window run_window(const Cluster& c, const KvSpec& spec, const std::vector<RingKey>& keys,
                  std::uint64_t seed, double warmup_s, double measure_s, bool detail) {
  Window w;
  auto engine = std::make_shared<Engine>(spec, c, keys, seed, detail);
  engine->start();
  sleep_s(warmup_s);
  c.probe().take_samples_us();
  c.probe().set_recording(true);
  w.peak_rss_mib = peak_rss_mib();
  w.before = snapshot(c, spec.tcp);
  w.start_ns = w.before.t_ns;
  std::atomic<bool> sampling{detail};
  std::thread sampler;
  if (detail) {
    sampler = std::thread([&] {
      while (sampling.load()) {
        w.queue_depth.push_back(static_cast<double>(c.rt->scheduler().run_queue_depth()));
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  sleep_s(measure_s);
  w.after = snapshot(c, spec.tcp);
  w.end_ns = w.after.t_ns;
  w.threads = os_threads();
  sampling.store(false);
  if (sampler.joinable()) sampler.join();
  c.probe().set_recording(false);
  w.lateness_us = c.probe().take_samples_us();
  if (!engine->stop_and_drain(std::chrono::seconds(60))) w.stuck = engine->inflight();
  for (const auto& s : engine->slots()) {
    w.samples.insert(w.samples.end(), s.samples.begin(), s.samples.end());
    w.spans.insert(w.spans.end(), s.spans.begin(), s.spans.end());
    w.attempted += s.attempted;
    w.failed += s.failed;
    w.wrong += s.wrong;
  }
  w.failed += w.stuck;
  w.issue_us = engine->issue_us_mean();
  return w;
}

void account(Report& r, const Window& w) {
  r.attempted += w.attempted;
  r.failed += w.failed;
  r.counts["ops_wrong_result"] += static_cast<double>(w.wrong);
  r.counts["ops_never_completed"] += static_cast<double>(w.stuck);
}

double sched_delta(const Window& w, const std::string& k) {
  auto a = w.after.sched.find(k);
  auto b = w.before.sched.find(k);
  return (a == w.after.sched.end() ? 0 : a->second) - (b == w.before.sched.end() ? 0 : b->second);
}

/// Process CPU time per successful op. On kv-latency most of it is idle
/// workers spinning before they park, which co-tenant load cuts short, so
/// it is a per-layer figure.
double cpu_us_per_op(const Window& w) {
  return (w.after.cpu_s - w.before.cpu_s) * 1e6 / std::max(1.0, w.ok_in_window());
}

/// Headline metrics of one window, without touching the run's report.
Report window_metrics(const KvSpec& spec, const Window& w) {
  Report t;
  report_latency(t, w.samples, w.start_ns, w.end_ns, spec.latency_slice_s);
  return t;
}

void write_spans(const Args& args, const Window& w, Runtime& rt) {
  if (args.out_dir.empty()) return;
  std::ofstream out(args.out_dir + "/spans-" + args.workload + ".json");
  out << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
      << ", \"client_span_fields\": [\"slot\", \"put\", \"issue_ns\", \"done_ns\", "
         "\"callback_end_ns\", \"ok\"], \"client_spans\": [";
  for (std::size_t i = 0; i < w.spans.size(); ++i) {
    const OpSpan& s = w.spans[i];
    out << (i == 0 ? "" : ",") << '[' << s.slot << ',' << (s.is_put ? 1 : 0) << ',' << s.issue_ns
        << ',' << s.done_ns << ',' << s.callback_end_ns << ',' << (s.ok ? 1 : 0) << ']';
  }
  out << "], \"kernel\": " << telemetry::render_trace_json(rt) << "}\n";
}

double span_p50_us(const std::vector<telemetry::SpanRecord>& spans, telemetry::SpanKind kind) {
  std::vector<double> v;
  for (const auto& s : spans) {
    if (s.kind == static_cast<std::uint8_t>(kind)) v.push_back(static_cast<double>(s.dur_ns) / 1e3);
  }
  return percentile(v, 0.50);
}

/// Per-layer metrics of the traced window `w` (telemetry metrics and
/// tracing were on for all of it).
void report_traced_window(Report& r, const KvSpec& spec, const Window& w, const AbdSnap& abd0,
                          const AbdSnap& abd1, Runtime& rt, std::uint64_t seed) {
  const double ops = std::max(1.0, w.ok_in_window());
  r.metric("kompics.dispatch.items_per_op", sched_delta(w, "executed") / ops, "count");
  r.metric("kompics.scheduler.parks_per_op", sched_delta(w, "parks") / ops, "count");
  r.metric("kompics.scheduler.wakes_per_op", sched_delta(w, "wakes") / ops, "count");
  r.metric("kompics.scheduler.steals_per_op", sched_delta(w, "steals") / ops, "count");
  r.metric("kompics.scheduler.run_queue_depth_mean", mean(w.queue_depth), "count");
  const double handler_us = report_layers(r, w.before.layers, w.after.layers, ops);
  r.metric("kompics.residual_us_per_op", w.mean_latency_us() - handler_us, "us");
  r.metric("client.issue_us", w.issue_us, "us");
  r.metric("net.msgs_per_op", (w.after.msgs - w.before.msgs) / ops, "count");
  const double user_bytes = ops * static_cast<double>(spec.value_bytes);
  r.metric("net.wire_bytes_per_user_byte", (w.after.wire_bytes - w.before.wire_bytes) / user_bytes,
           "ratio");
  r.metric("net.codec_us_per_msg", codec_us_per_msg(spec.value_bytes, seed), "us");
  const auto spans = rt.telemetry().trace_snapshot();
  r.metric("net.send_span_us_p50", span_p50_us(spans, telemetry::SpanKind::kNetSend), "us");
  r.metric("net.recv_span_us_p50", span_p50_us(spans, telemetry::SpanKind::kNetRecv), "us");
  r.metric("timing.lateness_us_p50", percentile(w.lateness_us, 0.50), "us");
  r.metric("timing.lateness_us_p99", percentile(w.lateness_us, 0.99), "us");
  r.metric("process.threads", w.threads, "count");
  r.metric("cats.abd.retries_per_op", (abd1.retries - abd0.retries) / ops, "count");
  r.metric("cats.abd.views_installed", abd1.views - abd0.views, "count");
  r.metric("cats.abd.reconfigs_decided", abd1.reconfigs - abd0.reconfigs, "count");
  // The simulator layer is not on this path.
  r.metric("sim.events_per_virtual_s", 0, "1/s");
  r.metric("sim.ns_per_event", 0, "ns");
  r.metric("sim.pending_events_mean", 0, "count");
  r.metric("sim.compression", 0, "x");
}

/// Always-on counters of an untraced window, kept beside the end-to-end
/// metrics so the two passes can be compared.
void record_window_counts(Report& r, const Window& w, const AbdSnap& abd0, const AbdSnap& abd1) {
  const double ops = std::max(1.0, w.ok_in_window());
  for (const char* k : {"executed", "parks", "wakes", "steals"}) {
    r.counts[std::string("sched.") + k + "_per_op"] = sched_delta(w, k) / ops;
  }
  r.counts["net.msgs_per_op"] = (w.after.msgs - w.before.msgs) / ops;
  r.counts["process.cpu_us_per_op"] = cpu_us_per_op(w);
  r.counts["timing.lateness_us_p50"] = percentile(w.lateness_us, 0.50);
  r.counts["timing.lateness_us_p99"] = percentile(w.lateness_us, 0.99);
  r.counts["process.threads"] = w.threads;
  r.counts["window.abd_retries"] = abd1.retries - abd0.retries;
  r.counts["window.views_installed"] = abd1.views - abd0.views;
  r.counts["window.reconfigs_decided"] = abd1.reconfigs - abd0.reconfigs;
}

void run_kv(const KvSpec& spec, const Args& args, Report& r) {
  std::vector<RingKey> keys;
  std::vector<Value> seeded;
  Rng value_rng(args.seed ^ 0x5eed);
  for (int i = 0; i < spec.keys; ++i) {
    keys.push_back(hash_to_ring(spec.name + "-" + std::to_string(args.seed) + "-" +
                                std::to_string(i)));
    seeded.push_back(spec.paired ? random_value(value_rng, spec.value_bytes)
                                 : tagged_value(static_cast<std::size_t>(i), 0xffffffffu, 0,
                                                spec.value_bytes, value_rng));
  }

  auto boot = [&](std::size_t workers, std::unique_ptr<Cluster>& out) -> bool {
    out = start_cluster(spec, workers, args.seed);
    if (!wait_ready(*out, 60)) {
      r.notes["setup"] = "nodes did not all become ready";
      return false;
    }
    std::uint64_t retried = 0;
    std::string why;
    const bool ok = seed_and_confirm(*out, keys, seeded, &retried, &why);
    r.counts["seed_puts_retried"] += static_cast<double>(retried);
    if (!ok) {
      r.notes["setup"] = why;
      return false;
    }
    if (!wait_views_stable(*out, 15)) {
      r.notes["setup"] = "consistent-quorum views kept changing";
      return false;
    }
    return true;
  };

  std::unique_ptr<Cluster> cluster;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    cluster.reset();  // one cluster at a time
    const std::uint64_t t0 = now_ns();
    const bool ok = boot(0, cluster);
    r.check("readiness_gate", ok);
    if (!ok) return;
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  r.metric("setup_s", median(setup_s), "s");

  const double warmup = std::min(1.0, 0.1 * args.seconds);
  bool drained = true;
  std::uint64_t wrong = 0;
  if (!args.trace) {
    const AbdSnap abd0 = abd_snapshot(*cluster);
    const Window w = run_window(*cluster, spec, keys, args.seed, warmup, args.seconds, false);
    const AbdSnap abd1 = abd_snapshot(*cluster);
    account(r, w);
    drained = w.stuck == 0;
    wrong += w.wrong;
    report_latency(r, w.samples, w.start_ns, w.end_ns, spec.latency_slice_s);
    r.metric("peak_rss_mib", w.peak_rss_mib, "MiB");
    record_window_counts(r, w, abd0, abd1);
  } else {
    // Three equal parts: untraced, traced, and untraced on a 1-worker runtime.
    // The client.* and process.* figures come from the untraced part.
    const double part = args.seconds / 3;
    const Window a = run_window(*cluster, spec, keys, args.seed, warmup, part, false);
    account(r, a);
    report_latency(r, a.samples, a.start_ns, a.end_ns, spec.latency_slice_s);
    r.metric("process.cpu_us_per_op", cpu_us_per_op(a), "us");
    Runtime& rt = *cluster->rt;
    rt.telemetry().enable_metrics(true);
    rt.telemetry().set_trace_sampling(kTraceSampling);
    const AbdSnap abd0 = abd_snapshot(*cluster);
    const Window b = run_window(*cluster, spec, keys, args.seed + 1, warmup, part, true);
    const AbdSnap abd1 = abd_snapshot(*cluster);
    account(r, b);
    report_traced_window(r, spec, b, abd0, abd1, rt, args.seed);
    write_spans(args, b, rt);
    const Report rb = window_metrics(spec, b);
    const std::string headline = spec.paired ? "get_p50_us" : "client.ops_per_s";
    r.metric("trace.overhead_ratio",
             rb.metrics.at(headline).value / std::max(1e-9, r.metrics.at(headline).value),
             "ratio");
    r.notes["trace.overhead_ratio"] = "traced / untraced " + headline;

    cluster.reset();
    std::unique_ptr<Cluster> single;
    const bool ok = boot(1, single);
    r.check("readiness_gate", ok);
    if (!ok) return;
    const Window c1 = run_window(*single, spec, keys, args.seed + 2, warmup, part, false);
    account(r, c1);
    const Report rc = window_metrics(spec, c1);
    r.metric("kompics.scheduler.core_scaling",
             r.metrics.at("client.ops_per_s").value /
                 std::max(1e-9, rc.metrics.at("client.ops_per_s").value),
             "ratio");
    drained = a.stuck + b.stuck + c1.stuck == 0;
    wrong += a.wrong + b.wrong + c1.wrong;
  }
  r.check("ops_completed", drained);
  r.check(spec.paired ? "get_returns_last_put" : "get_returns_own_key", wrong == 0);
}

}  // namespace

void run_kv_latency(const Args& args, Report& r) {
  KvSpec spec;
  spec.name = "kv-latency";
  spec.tcp = true;
  spec.nodes = 6;
  spec.clients = 1;
  spec.in_flight = 1;
  spec.keys = 64;
  spec.paired = true;
  // Nothing queues with one op in flight, so co-tenant load can only add
  // latency: the best second repeats from run to run.
  spec.latency_slice_s = 1.0;
  spec.params = kv_params(5, 1000);
  run_kv(spec, args, r);
}

void run_kv_throughput(const Args& args, Report& r) {
  KvSpec spec;
  spec.name = "kv-throughput";
  spec.tcp = false;
  spec.nodes = 16;
  spec.clients = 8;
  spec.in_flight = 4;
  spec.keys = 512;
  spec.put_fraction = 0.05;
  // With the workers saturated, latency is mostly queueing. Under co-tenant
  // load the median over the whole window repeated from run to run; the
  // best second's did not.
  spec.latency_slice_s = 0;
  spec.params = kv_params(3, 2000);
  run_kv(spec, args, r);
}

}  // namespace perfbench
