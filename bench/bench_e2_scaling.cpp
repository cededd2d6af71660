// E2 — reproduces the paper's §4.1 scaling claim shape: "for read-intensive
// workloads, reading 1KB values, CATS scaled on Rackspace to 96 machines
// providing just over 100,000 reads/sec."
//
// Substitution (DESIGN.md §2.7): Rackspace machines become in-process CATS
// nodes over the LoopbackNetwork (fast path — the cluster's aggregate
// throughput question is about coordination cost, not wire bytes). We sweep
// the node count and drive a read-intensive open-ish workload from multiple
// closed-loop clients with pipelining. The reproduced *shape*: aggregate
// reads/s grows with node count until the host's cores saturate — i.e.,
// adding storage nodes does not collapse throughput (coordination is O(1)
// per read regardless of system size).
//
// A read that fails is not a read served: every op's ok flag is counted,
// and the program exits non-zero if any seeding put or read failed.
// Seeding and reads start only once no view has been installed anywhere
// for a second, so the view changes that follow the joins land in neither.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "cats/bootstrap.hpp"
#include "cats/cats_client.hpp"
#include "cats/cats_node.hpp"
#include "kompics/kompics.hpp"
#include "net/loopback.hpp"
#include "timing/thread_timer.hpp"

using namespace kompics;
using namespace kompics::cats;
using net::Address;
using net::LoopbackHubPtr;
using net::LoopbackNetwork;

namespace {

CatsParams bench_params() {
  CatsParams params;
  params.replication_degree = 3;
  params.stabilization_period_ms = 500;
  params.shuffle_period_ms = 500;
  params.fd_ping_period_ms = 500;
  params.fd_initial_timeout_ms = 2000;
  params.op_timeout_ms = 4000;
  params.keepalive_period_ms = 1000;
  params.bootstrap_eviction_ms = 10000;
  return params;
}

class Machine : public ComponentDefinition {
 public:
  Machine(NodeRef self, LoopbackHubPtr hub, Address boot) {
    net = create<LoopbackNetwork>();
    trigger(make_event<LoopbackNetwork::Init>(self.addr, hub), net.control());
    timer = create<timing::ThreadTimer>();
    node = create<CatsNode>(self, boot, Address{}, bench_params());
    client = create<CatsClient>();
    connect(node.required<net::Network>(), net.provided<net::Network>());
    connect(node.required<timing::Timer>(), timer.provided<timing::Timer>());
    connect(node.provided<PutGet>(), client.required<PutGet>());
  }
  Component net, timer, node, client;
};

class BenchMain : public ComponentDefinition {
 public:
  explicit BenchMain(int n) {
    auto hub = std::make_shared<net::LoopbackHub>();
    const Address boot_addr = Address::node(1);
    boot_net = create<LoopbackNetwork>();
    trigger(make_event<LoopbackNetwork::Init>(boot_addr, hub), boot_net.control());
    boot_timer = create<timing::ThreadTimer>();
    boot_server = create<BootstrapServer>();
    trigger(make_event<BootstrapServer::Init>(boot_addr, bench_params()),
            boot_server.control());
    connect(boot_server.required<net::Network>(), boot_net.provided<net::Network>());
    connect(boot_server.required<timing::Timer>(), boot_timer.provided<timing::Timer>());
    for (int i = 0; i < n; ++i) {
      const NodeRef self{static_cast<RingKey>(i) * (~0ull / static_cast<RingKey>(n)),
                         Address::node(10 + i)};
      machines.push_back(create<Machine>(self, hub, boot_addr));
    }
  }
  Component boot_net, boot_timer, boot_server;
  std::vector<Component> machines;
};

/// Views installed so far, summed over every node's ABD. The counters are
/// plain fields written by the ABD handlers; they are read here with no
/// client load running, when only the maintenance timers can touch them.
std::uint64_t views_installed(BenchMain& bench) {
  std::uint64_t views = 0;
  for (auto& m : bench.machines) {
    const auto& node = m.definition_as<Machine>().node.definition_as<CatsNode>();
    views += node.abd.definition_as<ConsistentABD>().counters().views_installed;
  }
  return views;
}

/// Waits until no view has been installed anywhere for one second (four
/// quiet 250 ms polls); returns the seconds waited, or -1 when the views
/// were still changing after `timeout_s`.
double wait_views_stable(BenchMain& bench, double timeout_s) {
  constexpr int kQuietPolls = 4;
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };
  std::uint64_t views = views_installed(bench);
  for (int quiet = 0; quiet < kQuietPolls;) {
    if (elapsed() > timeout_s) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    const std::uint64_t now_views = views_installed(bench);
    quiet = now_views == views ? quiet + 1 : 0;
    views = now_views;
  }
  return elapsed();
}

struct ReadResult {
  double reads_per_s = 0;
  int failed = 0;
};

/// Runs `total` reads spread across all nodes' clients with `window`
/// outstanding requests per client; returns aggregate reads/s (failed reads
/// included: each one still ends its op) and the failure count. All shared
/// state is heap-allocated and captured by value: late callbacks from the
/// final window must stay safe after the measurement completes.
ReadResult run_reads(BenchMain& bench, int total, int window) {
  struct Shared {
    std::atomic<int> completed{0};
    std::atomic<int> failed{0};
    std::atomic<int> issued{0};
    std::atomic<int> inflight{0};
    std::mutex mu;
    std::condition_variable cv;
    std::function<void(BenchMain*, int)> issue;
  };
  auto shared = std::make_shared<Shared>();
  const int n = static_cast<int>(bench.machines.size());

  const auto t0 = std::chrono::steady_clock::now();
  shared->issue = [shared, total](BenchMain* b, int machine) {
    const int my = shared->issued.fetch_add(1);
    if (my >= total) return;
    shared->inflight.fetch_add(1);
    auto& client = b->machines[static_cast<std::size_t>(machine)]
                       .definition_as<Machine>()
                       .client.definition_as<CatsClient>();
    client.get(hash_to_ring("data-" + std::to_string(my % 512)),
               [shared, b, machine](bool ok, bool, const Value&) {
                 if (!ok) shared->failed.fetch_add(1);
                 shared->completed.fetch_add(1);
                 shared->inflight.fetch_sub(1);
                 shared->issue(b, machine);
                 std::lock_guard<std::mutex> g(shared->mu);
                 shared->cv.notify_all();
               });
  };
  for (int m = 0; m < n; ++m) {
    for (int w = 0; w < window; ++w) shared->issue(&bench, m);
  }
  double dt = 0;
  {
    std::unique_lock<std::mutex> lock(shared->mu);
    shared->cv.wait(lock, [&] { return shared->completed.load() >= total; });
    dt = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    // Drain the tail so no callback outlives this round's BenchMain use.
    shared->cv.wait(lock, [&] { return shared->inflight.load() == 0; });
  }
  shared->issue = nullptr;  // break the self-reference cycle
  return {total / dt, shared->failed.load()};
}

}  // namespace

int main(int argc, char** argv) {
  const int reads_per_point = argc > 1 ? std::atoi(argv[1]) : 8000;
  std::printf("=== E2: read-intensive scaling, 1 KB values (reads/s vs node count) ===\n");
  std::printf("%8s %14s %16s %13s %12s %10s\n", "Nodes", "Reads/s", "vs previous",
              "Failed gets", "Failed puts", "Settle s");

  double prev = 0;
  long failures = 0;
  for (int n : {3, 6, 12, 24, 48, 96}) {
    auto runtime = Runtime::threaded();
    auto main_c = runtime->bootstrap<BenchMain>(n);
    auto& bench = main_c.definition_as<BenchMain>();
    for (int waited = 0; waited < 30000; waited += 100) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      int ready = 0;
      for (auto& m : bench.machines) {
        ready += m.definition_as<Machine>().node.definition_as<CatsNode>().ready() ? 1 : 0;
      }
      if (ready == n) break;
    }
    const double settle_s = wait_views_stable(bench, 300);
    // Seed 512 keys of 1 KB.
    auto& seeder =
        bench.machines[0].definition_as<Machine>().client.definition_as<CatsClient>();
    std::atomic<int> seeded{0};
    std::atomic<int> seed_failed{0};
    for (int k = 0; k < 512; ++k) {
      seeder.put(hash_to_ring("data-" + std::to_string(k)), Value(1024, 0x11), [&](bool ok) {
        if (!ok) seed_failed.fetch_add(1);
        seeded.fetch_add(1);
      });
    }
    while (seeded.load() < 512) std::this_thread::sleep_for(std::chrono::milliseconds(5));

    const int warm_failed = run_reads(bench, reads_per_point / 4, 4).failed;
    const ReadResult measured = run_reads(bench, reads_per_point, 8);
    const int get_failed = warm_failed + measured.failed;
    const double rps = measured.reads_per_s;
    std::printf("%8d %14.0f %15.2fx %13d %12d %10.1f%s\n", n, rps,
                prev > 0 ? rps / prev : 1.0, get_failed, seed_failed.load(), settle_s,
                settle_s < 0 ? "  (views still changing after 300 s)" : "");
    std::fflush(stdout);
    failures += get_failed + seed_failed.load();
    prev = rps;
    runtime->shutdown();
  }
  std::printf("\nPaper shape: on their 96-machine testbed aggregate reads/s grew with\n"
              "node count (~100k reads/s at 96). In one process the ceiling is the\n"
              "host's cores: with many cores throughput grows until they saturate; on\n"
              "few cores it stays bounded while per-node maintenance grows, so the\n"
              "meaningful check is graceful degradation (no collapse) out to 96 nodes.\n");
  if (failures > 0) {
    std::printf("\nFAIL: %ld operation(s) failed (Failed gets counts warm-up and measured "
                "reads)\n",
                failures);
    return 1;
  }
  return 0;
}
