#include "kompics.hpp"

#include <chrono>
#include <cstdio>
#include <thread>

#include "work_stealing_scheduler.hpp"

namespace kompics {

namespace detail {

namespace {
thread_local ComponentCore* tl_current_core = nullptr;
}  // namespace

CurrentCoreGuard::CurrentCoreGuard(ComponentCore* core) : previous_(tl_current_core) {
  tl_current_core = core;
}

CurrentCoreGuard::~CurrentCoreGuard() { tl_current_core = previous_; }

ComponentCore* current_core() { return tl_current_core; }

}  // namespace detail

Runtime::Runtime(Config config, std::unique_ptr<Scheduler> scheduler, std::unique_ptr<Clock> clock,
                 std::uint64_t seed)
    : config_(std::move(config)),
      scheduler_(std::move(scheduler)),
      clock_(std::move(clock)),
      seed_(seed) {
  // Deploy-time telemetry gates (paper §3: composition through config, not
  // code). Absent keys leave everything off — a zero-cost black box.
  telemetry_.enable_metrics(config_.get_or<bool>("telemetry.metrics", false));
  telemetry_.set_trace_sampling(config_.get_or<double>("telemetry.trace_sampling", 0.0));
  telemetry_.enable_flight_recorder(config_.get_or<bool>("telemetry.flight_recorder", false));
  telemetry_.set_node_id(static_cast<std::uint32_t>(
      config_.get_or<std::int64_t>("telemetry.node_id", 0)));
}

Runtime::~Runtime() {
  shutdown();
  if (root_.core() != nullptr) root_.core()->destroy_tree();
  root_ = Component{};
}

std::unique_ptr<Runtime> Runtime::threaded(Config config, std::size_t workers,
                                           std::uint64_t seed) {
  WorkStealingScheduler::Options opts;
  opts.workers = workers;
  return std::make_unique<Runtime>(std::move(config),
                                   std::make_unique<WorkStealingScheduler>(opts),
                                   std::make_unique<WallClock>(), seed);
}

void Runtime::shutdown() {
  scheduler_->shutdown();
  reactor_.shutdown();
}

void Runtime::await_quiescence() {
  while (!await_quiescence_for(3'600'000)) {
  }
}

bool Runtime::await_quiescence_for(DurationMs timeout) {
  using namespace std::chrono;
  // Fast path: a burst of work usually drains within microseconds, so a
  // bounded yield-spin resolves most waits without ever registering as a
  // waiter — which also keeps pending_sub() off its notify slow path. The
  // yields hand the CPU to the workers doing the draining.
  for (int i = 0; i < 256; ++i) {
    if (quiescent_or_halted()) return true;
    std::this_thread::yield();
  }
  const auto deadline = steady_clock::now() + milliseconds(timeout);
  waiters_.fetch_add(1, std::memory_order_acq_rel);
  std::unique_lock<std::mutex> lock(quiesce_mu_);
  const bool ok = quiesce_cv_.wait_until(lock, deadline, [this] { return quiescent_or_halted(); });
  waiters_.fetch_sub(1, std::memory_order_acq_rel);
  return ok;
}

void Runtime::pending_sub(std::int64_t k) {
  const std::int64_t now = pending_.fetch_sub(k, std::memory_order_acq_rel) - k;
  if (now == 0 && waiters_.load(std::memory_order_acquire) > 0) {
    std::lock_guard<std::mutex> g(quiesce_mu_);
    quiesce_cv_.notify_all();
  }
}

void Runtime::set_fault_policy(FaultPolicy policy) {
  std::lock_guard<std::mutex> g(fault_mu_);
  fault_policy_ = std::move(policy);
}

void Runtime::on_unhandled_fault(const Fault& fault) {
  faulted_.store(true, std::memory_order_release);
  FaultPolicy policy;
  {
    std::lock_guard<std::mutex> g(fault_mu_);
    policy = fault_policy_;
  }
  if (policy) {
    policy(fault);
    return;
  }
  // Paper §2.5: the system fault handler dumps the exception to standard
  // error and halts the execution. We mark the runtime faulted and stop
  // scheduling instead of aborting the whole process, so embedding
  // applications (and tests) can observe the failure.
  std::fprintf(stderr, "[kompics] unhandled fault in component %llu: %s\n",
               static_cast<unsigned long long>(fault.source() != nullptr ? fault.source()->id() : 0),
               fault.what().c_str());
  // When the flight recorder was on, escalate_fault captured the dispatch
  // history leading up to the fault — surface it with the report.
  const std::string dump = telemetry_.last_crash_dump();
  if (!dump.empty()) std::fprintf(stderr, "%s", dump.c_str());
  scheduler_->shutdown();
  // The abandoned work never drains pending_, so release the quiescence
  // waiters explicitly: they return and can observe faulted().
  std::lock_guard<std::mutex> g(quiesce_mu_);
  halted_.store(true, std::memory_order_release);
  quiesce_cv_.notify_all();
}

// The quiescence wait above observes pending_ without the producer holding
// quiesce_mu_; waiters re-check the predicate on every wakeup and
// pending_sub only notifies when the count reaches zero while a waiter is
// registered, so a waiter can block for at most one timeout slice spuriously.

}  // namespace kompics
