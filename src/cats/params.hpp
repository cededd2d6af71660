#pragma once

// Tunable protocol parameters for one CATS node. Defaults are sized for the
// simulated scenarios (milliseconds of virtual time); deployments override
// per Init event.

#include "kompics/clock.hpp"

#include <cstddef>

namespace kompics::cats {

struct CatsParams {
  // Replication (paper §4.1 used degree 5 on the LAN deployment).
  std::size_t replication_degree = 3;

  // CATS Ring.
  DurationMs stabilization_period_ms = 1000;
  static constexpr std::size_t kSuccessorListSize = 8;

  // Cyclon overlay.
  DurationMs shuffle_period_ms = 1000;
  std::size_t cyclon_cache_size = 16;
  std::size_t cyclon_shuffle_length = 8;
  // Entries older than this many shuffle rounds are purged: bounds how long
  // gossip keeps echoing descriptors of dead nodes (live nodes re-inject
  // themselves with age 0 on every shuffle they initiate).
  static constexpr std::uint32_t kCyclonMaxAge = 5;

  // Ping failure detector.
  DurationMs fd_ping_period_ms = 1000;
  DurationMs fd_initial_timeout_ms = 4000;
  DurationMs fd_timeout_increment_ms = 1000;

  // ABD operations.
  DurationMs op_timeout_ms = 3000;
  int op_max_retries = 3;
  // When replicas nack enough of a phase that a quorum is impossible (the
  // view is being reconfigured), the coordinator retries after this short
  // backoff instead of the full op timeout. Instant retry would burn every
  // attempt inside the fence window of a single in-flight view change.
  // A lookup answered without an installed view (or with no group) is
  // re-asked after the same backoff, within the same attempt.
  static constexpr DurationMs kFastRetryBackoffMs = 50;

  // Consistent-quorum view reconfiguration: how often a node re-evaluates
  // whether the views it is responsible for match the ring (drives splits on
  // join, member changes after eviction, catch-up fetches, and retransmits
  // of stalled proposals).
  static constexpr DurationMs kViewReconfigPeriodMs = 500;

  // Bootstrap.
  DurationMs keepalive_period_ms = 5000;
  DurationMs bootstrap_eviction_ms = 15000;
  static constexpr std::size_t kBootstrapSampleSize = 8;
  // Periodic re-bootstrap: fresh peer samples re-seed the gossip overlay,
  // which is what lets disjoint rings (after a healed partition) or an
  // orphaned node (all neighbors suspected) find each other again and merge.
  DurationMs bootstrap_refresh_ms = 10000;

  // Monitoring.
  DurationMs monitor_period_ms = 5000;

  // Fault injection for the campaign harness' own regression test
  // (tests/campaign_shrink_test.cpp): re-opens the pre-consistent-quorums
  // divergence window that PR 6 closed. With this set, replicas acknowledge
  // ABD phase messages regardless of view version/fencing/membership,
  // coordinators accept unversioned lookups and count stale-view acks
  // toward quorums, and the router bypasses its installed-view cache —
  // exactly the "gate disabled" emulation measured in EXPERIMENTS.md
  // (13/50 sweep seeds produce divergent commits). MUST stay false outside
  // the harness self-test; the campaign asserts it catches and shrinks the
  // resulting violations.
  bool inject_stale_view_bug = false;
};

}  // namespace kompics::cats
