#pragma once

// The three workloads. Each fills `r` with its metrics, correctness checks
// and op accounting; `args.trace` selects the traced (per-layer) pass.

#include "common.hpp"

namespace perfbench {

/// 6 CATS nodes over TcpNetwork (compression on), replication degree 5, one
/// client alternating put and get of the same key over 64 keys.
void run_kv_latency(const Args& args, Report& r);

/// 16 nodes over the LoopbackNetwork fast path, replication degree 3, 8
/// clients with 4 ops in flight each, 95% get / 5% put over 512 keys.
void run_kv_throughput(const Args& args, Report& r);

/// 512 simulated peers: 1 Hz maintenance, a Poisson get/put stream and
/// light churn over a fixed virtual span, checked by Wing & Gong.
void run_sim_ring(const Args& args, Report& r);

}  // namespace perfbench
