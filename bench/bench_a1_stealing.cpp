// A1 — work-stealing ablation (paper §3): "Workers may run out of ready
// components to execute, in which case they engage in work stealing ...
// From our experiments, batching shows a considerable performance
// improvement over stealing small numbers of ready components."
//
// Workload: a single spreader component fans events out to many worker
// components, so every ready-token is born on one worker's queue — the
// other workers make progress only by stealing. Configurations:
//   no-steal      — stealing disabled (upper bound on imbalance cost)
//   steal-1       — steal one component per steal
//   steal-half    — the paper's batch of half the victim's queue
//   steal-quarter — intermediate batch size

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>

#include "kompics/kompics.hpp"
#include "kompics/work_stealing_scheduler.hpp"

using namespace kompics;

namespace {

class Job : public Event {
  KOMPICS_EVENT(Job, Event);
};

class JobPort : public PortType {
 public:
  JobPort() {
    set_name("JobPort");
    negative<Job>();
    positive<Job>();
  }
};

class Crunch : public ComponentDefinition {
 public:
  explicit Crunch(std::atomic<long>* done) : done_(done) {
    subscribe<Job>(in_, [this](const Job&) {
      volatile double x = 1.0;
      for (int i = 0; i < 2000; ++i) x = x * 1.0000001 + 0.25;
      (void)x;
      done_->fetch_add(1, std::memory_order_relaxed);
    });
  }
  Positive<JobPort> in_ = require<JobPort>();

 private:
  std::atomic<long>* done_;
};

class Spreader : public ComponentDefinition {
 public:
  void burst() { trigger(make_event<Job>(), out_); }
  Negative<JobPort> out_ = provide<JobPort>();
};

class Main : public ComponentDefinition {
 public:
  Main(int workers, std::atomic<long>* done) {
    spreader = create<Spreader>();
    for (int i = 0; i < workers; ++i) {
      sinks.push_back(create<Crunch>(done));
      connect(spreader.provided<JobPort>(), sinks.back().required<JobPort>());
    }
  }
  Component spreader;
  std::vector<Component> sinks;
};

struct Result {
  double jobs_per_second;
  std::uint64_t steals;
  std::uint64_t stolen;
};

Result run_config(bool stealing, std::size_t divisor, int components, int bursts) {
  std::atomic<long> done{0};
  WorkStealingScheduler::Options opts;
  opts.workers = 4;
  opts.stealing = stealing;
  opts.steal_divisor = divisor;
  // steal-1 emulation: divisor so large that size/divisor == 0 -> min_steal.
  auto scheduler = std::make_unique<WorkStealingScheduler>(opts);
  auto* sched = scheduler.get();
  Runtime rt(Config{}, std::move(scheduler), std::make_unique<WallClock>(), 1);
  auto main = rt.bootstrap<Main>(components, &done);
  auto& def = main.definition_as<Main>();
  rt.await_quiescence();

  const long total = static_cast<long>(components) * bursts;
  const auto t0 = std::chrono::steady_clock::now();
  for (int b = 0; b < bursts; ++b) {
    def.spreader.definition_as<Spreader>().burst();
    rt.await_quiescence();
  }
  const double dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  const auto stats = sched->stats();
  return Result{total / dt, stats.steals, stats.stolen_components};
}

}  // namespace

int main(int argc, char** argv) {
  const int bursts = argc > 1 ? std::atoi(argv[1]) : 300;
  constexpr int kComponents = 64;
  std::printf("=== A1: work-stealing ablation (4 workers, %d components, fan-out bursts) ===\n",
              kComponents);
  std::printf("%-14s %14s %10s %14s %12s\n", "Config", "Jobs/s", "Steals", "StolenComps",
              "Batch/steal");

  struct Config {
    const char* name;
    bool stealing;
    std::size_t divisor;
  };
  const Config configs[] = {
      {"no-steal", false, 2},
      {"steal-1", true, 1u << 30},  // size/divisor == 0 => min_steal = 1
      {"steal-quarter", true, 4},
      {"steal-half", true, 2},  // the paper's choice
  };
  double base = 0;
  for (const auto& c : configs) {
    const Result r = run_config(c.stealing, c.divisor, kComponents, bursts);
    if (base == 0) base = r.jobs_per_second;
    std::printf("%-14s %14.0f %10llu %14llu %12.1f   (%.2fx vs no-steal)\n", c.name,
                r.jobs_per_second, static_cast<unsigned long long>(r.steals),
                static_cast<unsigned long long>(r.stolen),
                r.steals != 0 ? static_cast<double>(r.stolen) / r.steals : 0.0,
                r.jobs_per_second / base);
    std::fflush(stdout);
  }
  std::printf("\nPaper claim: steal-half batching considerably outperforms stealing\n"
              "single components. On multi-core hosts stealing also beats no-steal on\n"
              "imbalanced load; on a single-core host (no parallelism to win) the\n"
              "batching ordering steal-half > steal-quarter > steal-1 still shows,\n"
              "because batching amortizes the per-steal synchronization.\n");
  return 0;
}
