// sim-ring: the deterministic simulator (Simulation, CatsSimulator,
// SimNetworkHub) with 512 peers. One thread, no codec, no wall-clock waits:
// kernel dispatch, protocol handler CPU, the simulator's event queue,
// component create/destroy and view changes are what is measured.
//
// After booting and seeding, a fixed virtual span runs 1 Hz maintenance, a
// seeded Poisson stream of gets and puts, and light churn (one fail and one
// fresh join every 20 virtual seconds). Ops are only issued at peers that
// never fail, so no op is lost with its coordinator. The span is stepped one
// virtual millisecond at a time, so each op's completion is stamped with
// the wall time of the step that delivered its response.

#include <time.h>

#include <cmath>
#include <fstream>
#include <memory>
#include <set>

#include "cats/cats_simulator.hpp"
#include "cats/linearizability.hpp"
#include "kompics/telemetry.hpp"
#include "sim/simulation.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace kompics;
using namespace kompics::cats;
using namespace kompics::sim;

constexpr int kPeers = 512;
// Joins 20 ms apart (as bench_table1 boots) leave some key range with views
// that never converge, so puts on it fail for minutes; 100 ms does not.
constexpr DurationMs kJoinSpacingMs = 100;
constexpr double kVirtualPerWallSecond = 5;  // virtual span = --seconds x this
constexpr double kOpsPerVirtualSecond = 300;
constexpr double kPutFraction = 0.10;
constexpr int kKeys = 256;
constexpr DurationMs kChurnEveryMs = 20000;
constexpr DurationMs kDrainMs = 60000;  // virtual time allowed for the last ops
constexpr int kSetups = 3;
constexpr double kTraceSampling = 0.05;
constexpr double kSliceSeconds = 2.0;  // best-slice latency and rate
constexpr std::uint32_t kValueMagic = 0x53494d52;  // "SIMR"

class SimMain : public ComponentDefinition {
 public:
  SimMain(SimulatorCore* core, SimNetworkHubPtr hub, CatsParams params) {
    simulator = create<CatsSimulator>(core, hub, params);
  }
  Component simulator;
};

struct World {
  explicit World(std::uint64_t seed) : sim(Config{}, seed) {
    hub = std::make_shared<SimNetworkHub>(&sim.core(), seed * 31 + 7, LinkModel{1, 10, 0.0, false});
    CatsParams params;  // 1 Hz maintenance
    // 13 attempts of 3 s: after a peer fails, lookups into its range can
    // stall for over 20 virtual seconds (failure detection, then the view
    // change); client ops must outlast that to survive the churn.
    params.op_max_retries = 12;
    main = sim.bootstrap<SimMain>(&sim.core(), hub, params);
    sim.run_until(1);
    cats = &main.definition_as<SimMain>().simulator.definition_as<CatsSimulator>();
  }
  Simulation sim;
  SimNetworkHubPtr hub;
  Component main;
  CatsSimulator* cats = nullptr;
};

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

std::uint64_t node_id(int i) { return static_cast<std::uint64_t>(i) * (65536 / kPeers); }

/// 16-byte value: magic, key index, write sequence number (unique per put).
Value sim_value(std::uint32_t key_idx, std::uint32_t seq) {
  Value v(16, 0);
  for (int i = 0; i < 4; ++i) {
    v[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(kValueMagic >> (8 * i));
    v[static_cast<std::size_t>(4 + i)] = static_cast<std::uint8_t>(key_idx >> (8 * i));
    v[static_cast<std::size_t>(8 + i)] = static_cast<std::uint8_t>(seq >> (8 * i));
  }
  return v;
}

bool value_for(const Value& v, std::uint32_t key_idx) {
  if (v.size() != 16) return false;
  std::uint32_t magic = 0, key = 0;
  for (int i = 0; i < 4; ++i) {
    magic |= static_cast<std::uint32_t>(v[static_cast<std::size_t>(i)]) << (8 * i);
    key |= static_cast<std::uint32_t>(v[static_cast<std::size_t>(4 + i)]) << (8 * i);
  }
  return magic == kValueMagic && key == key_idx;
}

/// What the seed fixes before anything runs: the churn victims and the
/// peers that carry client ops (all peers that never fail).
struct Plan {
  std::vector<RingKey> keys;
  std::vector<std::uint64_t> victims;
  std::vector<std::uint64_t> fresh;
  std::vector<std::uint64_t> stable;
};

Plan make_plan(std::uint64_t seed, DurationMs span_ms) {
  Plan p;
  for (int i = 0; i < kKeys; ++i) {
    p.keys.push_back(hash_to_ring("sim-ring-" + std::to_string(seed) + "-" + std::to_string(i)));
  }
  Rng rng(seed ^ 0xc4a2);
  const auto churns = static_cast<std::size_t>(span_ms / kChurnEveryMs);
  std::set<std::uint64_t> victims;
  while (victims.size() < churns) victims.insert(node_id(static_cast<int>(rng.below(kPeers))));
  p.victims.assign(victims.begin(), victims.end());
  // Fail in a seeded order, not in ring order.
  for (std::size_t i = p.victims.size(); i > 1; --i) {
    std::swap(p.victims[i - 1], p.victims[rng.below(i)]);
  }
  for (int i = 0; i < kPeers; ++i) {
    if (victims.count(node_id(i)) == 0) p.stable.push_back(node_id(i));
  }
  for (std::size_t k = 0; k < churns; ++k) {
    p.fresh.push_back(node_id(static_cast<int>(rng.below(kPeers))) + 65536 / kPeers / 2);
  }
  return p;
}

/// Boots every peer with spaced joins, waits for the whole ring to report
/// ready, then seeds every key (retrying failed puts).
bool boot_and_seed(World& w, const Plan& plan, std::string* why) {
  for (int i = 0; i < kPeers; ++i) {
    w.cats->join(node_id(i));
    w.sim.run_until(w.sim.now() + kJoinSpacingMs);
  }
  const TimeMs give_up = w.sim.now() + 120000;
  while (w.cats->ready_count() < static_cast<std::size_t>(kPeers)) {
    if (w.sim.now() >= give_up) {
      *why = "ring did not converge";
      return false;
    }
    w.sim.run_until(w.sim.now() + 250);
  }
  std::vector<std::uint32_t> todo(kKeys);
  for (int i = 0; i < kKeys; ++i) todo[static_cast<std::size_t>(i)] = static_cast<std::uint32_t>(i);
  for (std::uint32_t round = 0; round < 5 && !todo.empty(); ++round) {
    std::vector<std::pair<std::uint32_t, std::size_t>> issued;
    for (std::size_t j = 0; j < todo.size(); ++j) {
      const std::uint64_t at = plan.stable[(todo[j] + round * 97) % plan.stable.size()];
      if (auto idx = w.cats->put(at, plan.keys[todo[j]], sim_value(todo[j], round))) {
        issued.emplace_back(todo[j], *idx);
      }
      w.sim.run_until(w.sim.now() + 2);
    }
    const TimeMs wait_until = w.sim.now() + 60000;
    auto answered = [&] {
      for (const auto& [key, idx] : issued) {
        if (w.cats->history()[idx].responded < 0) return false;
      }
      return true;
    };
    while (!answered() && w.sim.now() < wait_until) w.sim.run_until(w.sim.now() + 100);
    todo.clear();
    for (const auto& [key, idx] : issued) {
      const OpRecord& rec = w.cats->history()[idx];
      if (rec.responded < 0 || !rec.ok) todo.push_back(key);
    }
  }
  if (!todo.empty()) *why = "seed puts kept failing";
  return todo.empty();
}

struct Issued {
  std::size_t hist = 0;
  std::uint64_t issue_ns = 0, done_ns = 0;
  TimeMs responded = -1;
  bool is_put = false;
  bool ok = false;
  std::uint32_t key_idx = 0;
};

/// The seeded Poisson op stream: each op schedules the next, so at most one
/// stream action is ever pending in the simulator's queue.
class Stream {
 public:
  Stream(World& w, const Plan& plan, std::uint64_t seed, TimeMs end)
      : w_(w), plan_(plan), rng_(seed ^ 0x0b5), seq_(kKeys, 100), end_(end) {}

  void schedule_next() {
    const double gap_ms = -std::log(1.0 - rng_.unit()) * 1000.0 / kOpsPerVirtualSecond;
    const auto delay = static_cast<DurationMs>(std::llround(gap_ms));
    if (w_.sim.now() + delay >= end_) return;
    w_.sim.core().schedule(delay, [this] {
      fire();
      schedule_next();
    });
  }

  std::vector<Issued> issued;
  std::uint64_t not_issued = 0;  // the chosen peer was not alive
  double issue_ns = 0;

 private:
  void fire() {
    const std::uint64_t at = plan_.stable[rng_.below(plan_.stable.size())];
    const auto key = static_cast<std::uint32_t>(rng_.below(kKeys));
    const bool is_put = rng_.unit() < kPutFraction;
    const std::uint64_t t0 = now_ns();
    const auto idx = is_put ? w_.cats->put(at, plan_.keys[key], sim_value(key, ++seq_[key]))
                            : w_.cats->get(at, plan_.keys[key]);
    issue_ns += static_cast<double>(now_ns() - t0);
    if (!idx) {
      ++not_issued;
      return;
    }
    Issued op;
    op.hist = *idx;
    op.issue_ns = t0;
    op.is_put = is_put;
    op.key_idx = key;
    issued.push_back(op);
  }

  World& w_;
  const Plan& plan_;
  Rng rng_;
  std::vector<std::uint32_t> seq_;
  TimeMs end_;
};

struct AbdSum {
  double retries = 0, views = 0, reconfigs = 0;
  double failed_in_lookup = 0, failed_in_read = 0, failed_in_write = 0;
};

std::map<std::uint64_t, ConsistentABD::Counters> abd_by_node(World& w) {
  std::map<std::uint64_t, ConsistentABD::Counters> out;
  for (std::uint64_t id : w.cats->alive_ids()) {
    out[id] = w.cats->node(id).abd.definition_as<ConsistentABD>().counters();
  }
  return out;
}

/// Counter deltas of nodes alive at `after`; nodes that joined count from 0.
AbdSum abd_delta(const std::map<std::uint64_t, ConsistentABD::Counters>& before,
                 const std::map<std::uint64_t, ConsistentABD::Counters>& after) {
  AbdSum s;
  for (const auto& [id, a] : after) {
    auto b = before.find(id);
    const ConsistentABD::Counters base = b == before.end() ? ConsistentABD::Counters{} : b->second;
    s.retries += static_cast<double>(a.retries - base.retries);
    s.views += static_cast<double>(a.views_installed - base.views_installed);
    s.reconfigs += static_cast<double>(a.reconfigs_decided - base.reconfigs_decided);
    s.failed_in_lookup += static_cast<double>(a.failed_in_lookup - base.failed_in_lookup);
    s.failed_in_read += static_cast<double>(a.failed_in_read - base.failed_in_read);
    s.failed_in_write += static_cast<double>(a.failed_in_write - base.failed_in_write);
  }
  return s;
}

/// Snapshot of one point of the span (taken between two 1 ms steps).
struct Mark {
  TimeMs virt = 0;
  std::uint64_t wall_ns = 0;
  double cpu_s = 0;
  std::uint64_t events = 0;
  std::uint64_t msgs = 0;
  std::uint64_t dispatches = 0;
  LayerSnap layers;
  std::map<std::uint64_t, ConsistentABD::Counters> abd;
};

Mark mark(World& w, bool detail) {
  Mark m;
  m.virt = w.sim.now();
  m.wall_ns = now_ns();
  m.cpu_s = thread_cpu_s();
  m.events = w.sim.core().executed();
  m.msgs = w.hub->stats().sent;
  m.abd = abd_by_node(w);
  if (detail) {
    m.dispatches = tree_dispatches(w.main.core());
    m.layers = layer_snapshot(w.main.core());
  }
  return m;
}

double compression(const Mark& a, const Mark& b) {
  return static_cast<double>(b.virt - a.virt) / 1e3 /
         (static_cast<double>(b.wall_ns - a.wall_ns) / 1e9);
}

}  // namespace

void run_sim_ring(const Args& args, Report& r) {
  const auto span_ms = static_cast<DurationMs>(args.seconds * kVirtualPerWallSecond * 1000);
  const Plan plan = make_plan(args.seed, span_ms);

  std::unique_ptr<World> world;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    world.reset();  // one world at a time
    const double t0 = thread_cpu_s();
    world = std::make_unique<World>(args.seed);
    std::string why;
    const bool ok = boot_and_seed(*world, plan, &why);
    r.check("readiness_gate", ok);
    if (!ok) {
      r.notes["setup"] = why;
      return;
    }
    setup_s.push_back(thread_cpu_s() - t0);
  }
  r.metric("setup_s", median(setup_s), "s");
  r.notes["setup_s"] = "thread CPU seconds to boot, converge and seed";
  World& w = *world;

  // Churn: every kChurnEveryMs one victim fails, and half an interval
  // earlier a fresh peer joins at a seeded position. (A fresh peer joining
  // beside a peer that fails at the same moment stalls lookups into that
  // range for minutes, which is a protocol gap rather than churn.)
  const TimeMs start = w.sim.now();
  const TimeMs end = start + span_ms;
  for (std::size_t k = 0; k < plan.victims.size(); ++k) {
    const auto fail_at = static_cast<DurationMs>(k + 1) * kChurnEveryMs;
    const std::uint64_t victim = plan.victims[k], fresh = plan.fresh[k];
    w.sim.core().schedule(fail_at, [&w, victim] { w.cats->fail(victim); });
    w.sim.core().schedule(fail_at - kChurnEveryMs / 2, [&w, fresh] { w.cats->join(fresh); });
  }
  Stream stream(w, plan, args.seed, end);
  stream.schedule_next();

  const TimeMs half = start + span_ms / 2;
  r.metric("peak_rss_mib", peak_rss_mib(), "MiB");
  const Mark m0 = mark(w, args.trace);
  Mark mh, m1;
  std::vector<double> pending_events;
  std::vector<std::size_t> pending;
  std::size_t seen = 0;
  TimeMs t = start;
  while (true) {
    ++t;
    w.sim.run_until(t);
    for (; seen < stream.issued.size(); ++seen) pending.push_back(seen);
    const std::uint64_t wall = now_ns();
    for (std::size_t i = 0; i < pending.size();) {
      Issued& op = stream.issued[pending[i]];
      const OpRecord& rec = w.cats->history()[op.hist];
      if (rec.responded >= 0) {
        op.done_ns = wall;
        op.responded = rec.responded;
        op.ok = rec.ok && (op.is_put || (rec.found && value_for(rec.got_value, op.key_idx)));
        pending[i] = pending.back();
        pending.pop_back();
      } else {
        ++i;
      }
    }
    if (t <= end && t % 100 == 0) {
      pending_events.push_back(static_cast<double>(w.sim.core().pending_count()));
    }
    if (t == half) {
      if (args.trace) {
        w.sim.runtime().telemetry().enable_metrics(true);
        w.sim.runtime().telemetry().set_trace_sampling(kTraceSampling);
      }
      mh = mark(w, args.trace);
    }
    if (t == end) m1 = mark(w, args.trace);
    if (t >= end && (pending.empty() || t >= end + kDrainMs)) break;
  }

  // Accounting and correctness.
  std::vector<OpSample> samples;
  std::uint64_t failed = stream.not_issued, wrong = 0;
  for (const Issued& op : stream.issued) {
    if (op.ok) {
      samples.push_back(OpSample{op.done_ns, static_cast<double>(op.done_ns - op.issue_ns) / 1e3,
                                 op.is_put});
    } else {
      ++failed;
      const OpRecord& rec = w.cats->history()[op.hist];
      if (op.responded >= 0 && rec.ok) ++wrong;
    }
  }
  r.attempted = stream.issued.size() + stream.not_issued;
  r.failed = failed;
  r.counts["ops_wrong_result"] = static_cast<double>(wrong);
  r.counts["ops_never_completed"] = static_cast<double>(pending.size());
  r.check("ops_completed", pending.empty());
  r.check("get_returns_own_key", wrong == 0);
  const LinResult lin = check_history(w.cats->history());
  r.check("linearizable", lin.linearizable);
  if (!lin.linearizable) r.notes["linearizable"] = lin.explanation;
  const auto violations = w.cats->invariant_violations();
  r.check("invariants", violations.empty());
  if (!violations.empty()) r.notes["invariants"] = violations.front();

  // The traced pass reports latency from its untraced first half.
  report_latency(r, samples, m0.wall_ns, (args.trace ? mh : m1).wall_ns, kSliceSeconds);

  const double virt_s = static_cast<double>(span_ms) / 1e3;
  const double events_per_virtual_s = static_cast<double>(m1.events - m0.events) / virt_s;
  const AbdSum abd = abd_delta(m0.abd, m1.abd);
  r.counts["sim.events_per_virtual_s"] = events_per_virtual_s;
  r.counts["sim.compression"] = compression(m0, m1);
  r.counts["window.views_installed"] = abd.views;
  r.counts["window.reconfigs_decided"] = abd.reconfigs;
  r.counts["window.abd_retries"] = abd.retries;
  // Ops still running at the end of the span fail during the drain.
  const AbdSum run = abd_delta(m0.abd, abd_by_node(w));
  r.counts["ops_failed_in_lookup"] = run.failed_in_lookup;
  r.counts["ops_failed_in_read"] = run.failed_in_read;
  r.counts["ops_failed_in_write"] = run.failed_in_write;
  r.counts["churn_events"] = static_cast<double>(plan.victims.size());
  if (!args.trace) return;

  // Per-layer: the first half ran untraced, the second traced.
  double ops_untraced = 0, ops_traced = 0, latency_sum = 0;
  for (const Issued& op : stream.issued) {
    if (op.ok && op.responded > start && op.responded <= half) ++ops_untraced;
    if (op.ok && op.responded > half && op.responded <= end) {
      ++ops_traced;
      latency_sum += static_cast<double>(op.done_ns - op.issue_ns) / 1e3;
    }
  }
  ops_traced = std::max(1.0, ops_traced);
  r.metric("process.cpu_us_per_op", (mh.cpu_s - m0.cpu_s) * 1e6 / std::max(1.0, ops_untraced),
           "us");
  r.metric("kompics.dispatch.items_per_op",
           static_cast<double>(m1.dispatches - mh.dispatches) / ops_traced, "count");
  // One thread: no parks, wakes, steals or run queue; one worker by construction.
  r.metric("kompics.scheduler.parks_per_op", 0, "count");
  r.metric("kompics.scheduler.wakes_per_op", 0, "count");
  r.metric("kompics.scheduler.steals_per_op", 0, "count");
  r.metric("kompics.scheduler.run_queue_depth_mean", 0, "count");
  r.metric("kompics.scheduler.core_scaling", 1, "ratio");
  const double handler_us = report_layers(r, mh.layers, m1.layers, ops_traced);
  r.metric("kompics.residual_us_per_op", latency_sum / ops_traced - handler_us, "us");
  const double issued = std::max<double>(1, static_cast<double>(stream.issued.size()));
  r.metric("client.issue_us", stream.issue_ns / 1e3 / issued, "us");
  r.metric("net.msgs_per_op", static_cast<double>(m1.msgs - mh.msgs) / ops_traced, "count");
  r.metric("net.wire_bytes_per_user_byte", 0, "ratio");  // no wire: messages are shared
  r.metric("net.codec_us_per_msg", codec_us_per_msg(16, args.seed), "us");
  r.metric("net.send_span_us_p50", 0, "us");  // sim hops take no wall time
  r.metric("net.recv_span_us_p50", 0, "us");
  r.metric("timing.lateness_us_p50", 0, "us");  // virtual timers fire exactly on time
  r.metric("timing.lateness_us_p99", 0, "us");
  r.metric("process.threads", os_threads(), "count");
  const AbdSum abd_traced = abd_delta(mh.abd, m1.abd);
  r.metric("cats.abd.retries_per_op", abd_traced.retries / ops_traced, "count");
  r.metric("cats.abd.views_installed", abd_traced.views, "count");
  r.metric("cats.abd.reconfigs_decided", abd_traced.reconfigs, "count");
  r.metric("sim.events_per_virtual_s", events_per_virtual_s, "1/s");
  r.metric("sim.ns_per_event",
           static_cast<double>(mh.wall_ns - m0.wall_ns) /
               std::max<double>(1, static_cast<double>(mh.events - m0.events)),
           "ns");
  r.metric("sim.pending_events_mean", mean(pending_events), "count");
  r.metric("sim.compression", compression(m0, mh), "x");
  r.metric("trace.overhead_ratio", compression(mh, m1) / compression(m0, mh), "ratio");
  r.notes["trace.overhead_ratio"] = "traced / untraced sim compression";

  if (!args.out_dir.empty()) {
    std::ofstream out(args.out_dir + "/spans-" + args.workload + ".json");
    out << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
        << ", \"client_span_fields\": [\"put\", \"issue_ns\", \"done_ns\", \"virtual_invoked_ms\", "
           "\"virtual_responded_ms\", \"ok\"], \"client_spans\": [";
    bool first = true;
    for (const Issued& op : stream.issued) {
      if (op.responded <= half) continue;
      out << (first ? "" : ",") << '[' << (op.is_put ? 1 : 0) << ',' << op.issue_ns << ','
          << op.done_ns << ',' << w.cats->history()[op.hist].invoked << ',' << op.responded << ','
          << (op.ok ? 1 : 0) << ']';
      first = false;
    }
    out << "], \"kernel\": " << telemetry::render_trace_json(w.sim.runtime()) << "}\n";
  }
}

}  // namespace perfbench
