#pragma once

// Shared pieces of the benchmark driver: the run report, sample statistics,
// /proc readers, per-layer handler-time snapshots, the timer-lateness probe
// and the codec microbenchmark. Everything here reads the runtime through
// its public API only.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "cats/cats_node.hpp"
#include "cats/ports.hpp"
#include "kompics/component.hpp"
#include "kompics/kompics.hpp"
#include "timing/timer_port.hpp"

namespace perfbench {

using kompics::cats::Value;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  ///< where span dumps go (empty: none)
};

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// Everything one run reports. The driver prints it as one JSON line.
struct Report {
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::map<std::string, bool> checks;      ///< correctness checks that ran
  std::map<std::string, double> counts;    ///< always-on counters and window deltas
  std::map<std::string, std::string> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void check(const std::string& name, bool ok) { checks[name] = ok; }
  bool correct() const;
  std::string to_json(const Args& args) const;
};

// ---- statistics ------------------------------------------------------------

/// Nearest-rank percentile (q in [0,1]) of an unsorted sample; 0 when empty.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// One latency sample; its completion time places it in or out of the window.
struct OpSample {
  std::uint64_t done_ns = 0;
  double latency_us = 0;
  bool is_put = false;
};

/// Reports put/get p50 (end-to-end) and p99 and successful ops per second
/// (client.*) over the samples completing in [start_ns, end_ns). The window
/// is cut into slices of `slice_s` seconds (0: one slice, the whole window)
/// and each metric is its best value over the slices (lowest latency,
/// highest rate). The pooled whole-window figures go to the report's counts
/// for reference.
void report_latency(Report& r, const std::vector<OpSample>& samples, std::uint64_t start_ns,
                    std::uint64_t end_ns, double slice_s);

// ---- process ---------------------------------------------------------------

double peak_rss_mib();
int os_threads();
/// CPU seconds used so far by every thread of the process.
double process_cpu_s();

// ---- per-layer handler time ------------------------------------------------

/// Names of the layers in handler_us_per_op.<layer>.
const std::vector<std::string>& layer_names();

/// Handler nanoseconds of every component below a root whose definition
/// belongs to a layer, keyed by component id (telemetry metrics must be on
/// for handler time to accrue). Components are told apart by their
/// definition's type name, which the runtime records for each component.
struct LayerSnap {
  struct Entry {
    std::size_t layer = 0;  ///< index into layer_names()
    double ns = 0;
  };
  std::map<std::uint64_t, Entry> by_id;
};
LayerSnap layer_snapshot(const kompics::ComponentCore* root);

/// Emits handler_us_per_op.<layer> = handler time accrued between the two
/// snapshots / ops, and returns the sum over layers. Components created in
/// between count from zero; components destroyed in between drop out.
double report_layers(Report& r, const LayerSnap& before, const LayerSnap& after, double ops);

/// Sum of `dispatches` over every component in the tree below `root`.
std::uint64_t tree_dispatches(const kompics::ComponentCore* root);

// ---- timer lateness --------------------------------------------------------

/// Benchmark-owned component on a node's Timer port: it keeps one one-shot
/// timeout of `period_ms` armed and records, for each delivery, how late it
/// ran against the millisecond tick it was due at.
class LatenessProbe : public kompics::ComponentDefinition {
 public:
  explicit LatenessProbe(std::int64_t period_ms);

  /// Starts/stops sampling (thread-safe).
  void set_recording(bool on);
  /// Moves out the samples recorded so far, in µs.
  std::vector<double> take_samples_us();

 private:
  void arm();

  kompics::Positive<kompics::timing::Timer> timer_ =
      require<kompics::timing::Timer>();
  std::int64_t period_ms_;
  std::int64_t due_ms_ = 0;  // runtime-clock tick the pending timeout is due at
  std::atomic<bool> recording_{false};
  mutable std::mutex mu_;
  std::vector<double> samples_us_;
};

// ---- codec -----------------------------------------------------------------

/// Mean µs per message of serialize -> kz::compress -> kz::decompress ->
/// deserialize over the four ABD phase message shapes carrying
/// `value_bytes`-byte values drawn from `seed`.
double codec_us_per_msg(std::size_t value_bytes, std::uint64_t seed);

// ---- inputs ----------------------------------------------------------------

/// splitmix64: the one generator every workload input is drawn from.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

/// `n` pseudo-random bytes drawn from `rng`.
Value random_value(Rng& rng, std::size_t n);

}  // namespace perfbench
