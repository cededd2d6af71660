#include "common.hpp"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <utility>

#include "cats/messages.hpp"
#include "kompics/telemetry.hpp"
#include "net/compression.hpp"
#include "net/serialization.hpp"

namespace perfbench {

using namespace kompics;

// ---- report ----------------------------------------------------------------

bool Report::correct() const {
  for (const auto& [name, ok] : checks) {
    if (!ok) return false;
  }
  return !checks.empty();
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// CPUs this process may run on, as "0-3" style ranges.
std::string affinity_list() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return "unknown";
  std::string out;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    int last = cpu;
    while (last + 1 < CPU_SETSIZE && CPU_ISSET(last + 1, &set)) ++last;
    if (!out.empty()) out += ',';
    out += std::to_string(cpu);
    if (last > cpu) out += '-' + std::to_string(last);
    cpu = last;
  }
  return out;
}

}  // namespace

std::string Report::to_json(const Args& args) const {
  std::ostringstream os;
  os << "{\"workload\": \"" << json_escape(args.workload) << "\", \"seed\": " << args.seed
     << ", \"seconds\": " << json_number(args.seconds) << ", \"trace\": " << (args.trace ? 1 : 0)
     << ", \"correct\": " << (correct() ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    os << (first ? "" : ", ") << '"' << json_escape(name) << "\": {\"value\": "
       << json_number(m.value) << ", \"unit\": \"" << json_escape(m.unit) << "\"}";
    first = false;
  }
  os << "}, \"checks\": {";
  first = true;
  for (const auto& [name, ok] : checks) {
    os << (first ? "" : ", ") << '"' << json_escape(name) << "\": " << (ok ? "true" : "false");
    first = false;
  }
  os << "}, \"counts\": {";
  first = true;
  for (const auto& [name, v] : counts) {
    os << (first ? "" : ", ") << '"' << json_escape(name) << "\": " << json_number(v);
    first = false;
  }
  os << "}, \"notes\": {";
  first = true;
  for (const auto& [name, v] : notes) {
    os << (first ? "" : ", ") << '"' << json_escape(name) << "\": \"" << json_escape(v) << '"';
    first = false;
  }
  os << "}, \"context\": {\"num_cpus\": " << std::thread::hardware_concurrency()
     << ", \"online_cpus\": " << sysconf(_SC_NPROCESSORS_ONLN) << ", \"affinity\": \""
     << affinity_list() << "\", \"compiler\": \"" << json_escape(PERFBENCH_COMPILER)
     << "\", \"build_type\": \"" << json_escape(PERFBENCH_BUILD_TYPE) << "\"}}";
  return os.str();
}

// ---- statistics ------------------------------------------------------------

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  return v[idx];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

namespace {

struct SliceStats {
  double put50 = 0, put99 = 0, get50 = 0, get99 = 0, rate = 0;
  std::size_t puts = 0, gets = 0;
};

SliceStats slice_stats(const std::vector<OpSample>& samples, std::uint64_t from, std::uint64_t to) {
  std::vector<double> puts, gets;
  for (const OpSample& s : samples) {
    if (s.done_ns >= from && s.done_ns < to) (s.is_put ? puts : gets).push_back(s.latency_us);
  }
  SliceStats st;
  st.puts = puts.size();
  st.gets = gets.size();
  st.put50 = percentile(puts, 0.50);
  st.put99 = percentile(puts, 0.99);
  st.get50 = percentile(gets, 0.50);
  st.get99 = percentile(gets, 0.99);
  st.rate = static_cast<double>(puts.size() + gets.size()) / (static_cast<double>(to - from) / 1e9);
  return st;
}

}  // namespace

void report_latency(Report& r, const std::vector<OpSample>& samples, std::uint64_t start_ns,
                    std::uint64_t end_ns, double slice_s) {
  constexpr std::size_t kMinSamples = 20;  // a slice's percentile needs this many
  const std::uint64_t window_ns = end_ns - start_ns;
  const auto slice_ns =
      slice_s > 0 ? static_cast<std::uint64_t>(slice_s * 1e9) : std::max<std::uint64_t>(1, window_ns);
  const std::uint64_t slices = std::max<std::uint64_t>(1, window_ns / slice_ns);
  const double inf = std::numeric_limits<double>::infinity();
  double put50 = inf, put99 = inf, get50 = inf, get99 = inf, rate = 0;
  for (std::uint64_t i = 0; i < slices; ++i) {
    const std::uint64_t from = start_ns + i * slice_ns;
    const SliceStats st = slice_stats(samples, from, i + 1 == slices ? end_ns : from + slice_ns);
    if (st.puts >= kMinSamples) {
      put50 = std::min(put50, st.put50);
      put99 = std::min(put99, st.put99);
    }
    if (st.gets >= kMinSamples) {
      get50 = std::min(get50, st.get50);
      get99 = std::min(get99, st.get99);
    }
    rate = std::max(rate, st.rate);
  }
  auto finite = [](double v) { return std::isfinite(v) ? v : 0.0; };
  r.metric("put_p50_us", finite(put50), "us");
  r.metric("get_p50_us", finite(get50), "us");
  r.metric("client.put_p99_us", finite(put99), "us");
  r.metric("client.get_p99_us", finite(get99), "us");
  r.metric("client.ops_per_s", rate, "1/s");
  const SliceStats all = slice_stats(samples, start_ns, end_ns);
  r.counts["pooled.put_p50_us"] = all.put50;
  r.counts["pooled.put_p99_us"] = all.put99;
  r.counts["pooled.get_p50_us"] = all.get50;
  r.counts["pooled.get_p99_us"] = all.get99;
  r.counts["pooled.ops_per_s"] = all.rate;
  r.counts["put_samples"] = static_cast<double>(all.puts);
  r.counts["get_samples"] = static_cast<double>(all.gets);
  r.counts["latency_slices"] = static_cast<double>(slices);
}

// ---- process ---------------------------------------------------------------

namespace {

/// First number after `key` in /proc/self/status, or -1.
long proc_status_field(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::char_traits<char>::length(key);
  while (std::getline(in, line)) {
    if (line.compare(0, n, key) == 0) return std::strtol(line.c_str() + n, nullptr, 10);
  }
  return -1;
}

}  // namespace

double peak_rss_mib() { return static_cast<double>(proc_status_field("VmHWM:")) / 1024.0; }
int os_threads() { return static_cast<int>(proc_status_field("Threads:")); }

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// ---- per-layer handler time ------------------------------------------------

const std::vector<std::string>& layer_names() {
  static const std::vector<std::string> names{"abd",    "router",    "ring",   "fd",
                                              "cyclon", "bootstrap", "client", "net"};
  return names;
}

namespace {

/// Layer index of a component by its definition's (mangled) type name.
int layer_of(const std::string& type_name) {
  static const std::vector<std::pair<const char*, int>> kinds{
      {"ConsistentABD", 0},   {"OneHopRouter", 1},    {"CatsRing", 2},
      {"PingFailureDetector", 3}, {"CyclonOverlay", 4}, {"BootstrapServer", 5},
      {"BootstrapClient", 5}, {"CatsClient", 6},      {"CatsSimulator", 6},
      {"TcpNetwork", 7},      {"LoopbackNetwork", 7}, {"NetworkEmulator", 7}};
  for (const auto& [needle, layer] : kinds) {
    if (type_name.find(needle) != std::string::npos) return layer;
  }
  return -1;
}

void collect_layers(const ComponentCore* core, LayerSnap& out) {
  const int layer = layer_of(core->name());
  if (layer >= 0) {
    const telemetry::ComponentStats* st = core->telemetry_stats();
    out.by_id[core->id()] = LayerSnap::Entry{
        static_cast<std::size_t>(layer),
        st == nullptr ? 0.0 : static_cast<double>(st->handler_ns.snapshot().sum_ns)};
  }
  for (const auto& child : core->children()) collect_layers(child.get(), out);
}

}  // namespace

LayerSnap layer_snapshot(const ComponentCore* root) {
  LayerSnap s;
  if (root != nullptr) collect_layers(root, s);
  return s;
}

double report_layers(Report& r, const LayerSnap& before, const LayerSnap& after, double ops) {
  std::vector<double> ns(layer_names().size(), 0.0);
  for (const auto& [id, e] : after.by_id) {
    auto b = before.by_id.find(id);
    ns[e.layer] += e.ns - (b == before.by_id.end() ? 0.0 : b->second.ns);
  }
  double total_us = 0;
  for (std::size_t i = 0; i < ns.size(); ++i) {
    const double us = ops > 0 ? ns[i] / 1e3 / ops : 0;
    r.metric("handler_us_per_op." + layer_names()[i], us, "us");
    total_us += us;
  }
  return total_us;
}

std::uint64_t tree_dispatches(const ComponentCore* root) {
  if (root == nullptr) return 0;
  const telemetry::ComponentStats* st = root->telemetry_stats();
  std::uint64_t n = st == nullptr ? 0 : st->dispatches.load(std::memory_order_relaxed);
  for (const auto& child : root->children()) n += tree_dispatches(child.get());
  return n;
}

// ---- timer lateness --------------------------------------------------------

namespace {

class ProbeTick : public timing::Timeout {
  KOMPICS_EVENT(ProbeTick, timing::Timeout);

 public:
  using Timeout::Timeout;
};

}  // namespace

LatenessProbe::LatenessProbe(std::int64_t period_ms) : period_ms_(period_ms) {
  subscribe<Start>(control(), [this](const Start&) { arm(); });
  subscribe<ProbeTick>(timer_, [this](const ProbeTick&) {
    const double late_us = static_cast<double>(now_ns()) / 1e3 - static_cast<double>(due_ms_) * 1e3;
    if (recording_.load(std::memory_order_relaxed)) {
      std::lock_guard<std::mutex> g(mu_);
      samples_us_.push_back(late_us);
    }
    arm();
  });
}

void LatenessProbe::arm() {
  due_ms_ = now() + period_ms_;
  trigger(timing::schedule<ProbeTick>(period_ms_), timer_);
}

void LatenessProbe::set_recording(bool on) { recording_.store(on, std::memory_order_relaxed); }

std::vector<double> LatenessProbe::take_samples_us() {
  std::lock_guard<std::mutex> g(mu_);
  return std::exchange(samples_us_, {});
}

// ---- codec -----------------------------------------------------------------

double codec_us_per_msg(std::size_t value_bytes, std::uint64_t seed) {
  using namespace kompics::cats;
  register_cats_serializers();
  Rng rng(seed ^ 0xc0dec);
  const net::Address a = net::Address::loopback(40001), b = net::Address::loopback(40002);
  const RingKey key = rng.next();
  const VersionTag tag{7, key};
  std::vector<std::shared_ptr<const net::Message>> shapes{
      std::make_shared<AbdReadMsg>(a, b, 11, key, 3),
      std::make_shared<AbdReadAckMsg>(b, a, 11, key, 3, tag, true,
                                      random_value(rng, value_bytes)),
      std::make_shared<AbdWriteMsg>(a, b, 12, key, 3, tag, true, random_value(rng, value_bytes)),
      std::make_shared<AbdWriteAckMsg>(b, a, 12, key, 3)};
  const auto& registry = net::SerializationRegistry::instance();
  constexpr int kRounds = 1000;
  std::size_t sink = 0;
  const std::uint64_t t0 = now_ns();
  for (int i = 0; i < kRounds; ++i) {
    for (const auto& m : shapes) {
      net::Bytes wire, packed;
      registry.serialize(*m, wire);
      net::kz::compress(wire, packed);
      const net::Bytes unpacked = net::kz::decompress(packed);
      sink += registry.deserialize(unpacked)->destination().port;
    }
  }
  const double us = static_cast<double>(now_ns() - t0) / 1e3;
  if (sink == 0) std::fprintf(stderr, "codec: empty round trip\n");
  return us / (kRounds * static_cast<double>(shapes.size()));
}

// ---- inputs ----------------------------------------------------------------

Value random_value(Rng& rng, std::size_t n) {
  Value v(n);
  for (std::size_t i = 0; i < n; i += 8) {
    const std::uint64_t w = rng.next();
    for (std::size_t j = 0; j < 8 && i + j < n; ++j) {
      v[i + j] = static_cast<std::uint8_t>(w >> (8 * j));
    }
  }
  return v;
}

}  // namespace perfbench
