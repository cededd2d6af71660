#pragma once

// Monitoring service (paper §4.1): "a client component at each node
// periodically inspects the status of various internal components ... and
// sends reports to a monitoring server that can aggregate the status of
// nodes and present a global view of the system."
//
// MonitorClient's required Status port is connected to every functional
// component of the node; a StatusRequest fans out to all of them and the
// responses for one round are aggregated into a single StatusReportMsg.

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "cats/messages.hpp"
#include "cats/params.hpp"
#include "cats/ports.hpp"
#include "kompics/component.hpp"
#include "kompics/kompics.hpp"
#include "net/network_port.hpp"
#include "timing/timer_port.hpp"

namespace kompics::cats {

class MonitorClient : public ComponentDefinition {
 public:
  struct Init : kompics::Init {
    KOMPICS_EVENT(Init, kompics::Init);

    Init(NodeRef self, Address server, CatsParams params)
        : self(self), server(server), params(params) {}
    NodeRef self;
    Address server;
    CatsParams params;
  };

  MonitorClient();

 private:
  struct ReportRound : timing::Timeout {
    KOMPICS_EVENT(ReportRound, timing::Timeout);

    using Timeout::Timeout;
  };
  struct RoundClose : timing::Timeout {
    KOMPICS_EVENT(RoundClose, timing::Timeout);

    RoundClose(timing::TimeoutId id, OpId round) : Timeout(id), round(round) {}
    OpId round;
  };

  Positive<Status> status_ = require<Status>();
  Positive<net::Network> network_ = require<net::Network>();
  Positive<timing::Timer> timer_ = require<timing::Timer>();

  NodeRef self_;
  Address server_;
  CatsParams params_;
  OpId round_ = 0;
  std::map<std::string, std::string> collected_;
};

/// Aggregates per-node reports into a global view (queried by tests, the
/// web front-end, and examples).
class MonitorServer : public ComponentDefinition {
 public:
  struct Init : kompics::Init {
    KOMPICS_EVENT(Init, kompics::Init);

    explicit Init(Address self, DurationMs stale_after_ms = 2000)
        : self(self), stale_after_ms(stale_after_ms) {}
    Address self;
    /// A node whose last report is older than this is flagged STALE in
    /// render_text() — the global view says so instead of silently showing
    /// the last snapshot of a node that stopped reporting.
    DurationMs stale_after_ms;
  };

  MonitorServer();

  struct NodeReport {
    NodeRef node;
    TimeMs received = 0;
    std::map<std::string, std::string> fields;
  };

  /// Snapshot of the aggregated view. Returns a copy: callers poll this
  /// from outside the component (status pages, examples, tests) while the
  /// report handler keeps mutating the map on a worker thread.
  std::map<Address, NodeReport> global_view() const {
    std::lock_guard<std::mutex> g(view_mu_);
    return view_;
  }
  std::string render_text() const;

  // ---- cluster tracing & metrics rollup (DESIGN.md §7) -------------------
  /// Pulls one node's /trace span shard given its kernel.trace_addr field
  /// ("host:port"). Default: a blocking HTTP GET with 1s timeouts.
  /// Replaceable for tests and non-HTTP deployments.
  using TraceFetcher = std::function<std::string(const std::string& trace_addr)>;
  void set_trace_fetcher(TraceFetcher f);

  /// Merges the span shards of every node that advertised a trace endpoint
  /// in its §4.1 report (plus this runtime's own shard) into one causal
  /// tree for `trace_id` — the /trace/<id> surface. Blocking (one HTTP GET
  /// per distinct node endpoint).
  std::string assemble_trace(std::uint32_t trace_id) const;

  /// Prometheus rollup of the numeric kernel.*/component status fields of
  /// every reporting node, labelled by node — the cluster /metrics surface.
  std::string render_cluster_metrics() const;

 private:
  Negative<Status> status_ = provide<Status>();
  Positive<net::Network> network_ = require<net::Network>();

  Address self_;
  DurationMs stale_after_ms_ = 2000;
  // Guards view_ and reports_received_ against external readers; handlers
  // are already serialized per component but render_text()/global_view()
  // run on whatever thread owns the MonitorServer handle.
  mutable std::mutex view_mu_;
  std::map<Address, NodeReport> view_;
  std::uint64_t reports_received_ = 0;

  mutable std::mutex fetcher_mu_;
  TraceFetcher trace_fetcher_;  // empty = default HTTP fetcher
};

}  // namespace kompics::cats
