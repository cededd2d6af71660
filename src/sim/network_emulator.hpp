#pragma once

// NetworkEmulator (paper §4.2): the simulated Network provider. Every
// simulated node embeds one NetworkEmulator component; all instances share
// a SimNetworkHub that models the network: per-message latency sampled from
// a configurable distribution, probabilistic loss, and named partitions —
// the "partially synchronous, lossy, partitionable" environment CATS is
// specified for (§4).
//
// Determinism: latency/loss draws come from one seeded stream owned by the
// hub, and delivery is ordered by the SimulatorCore's (time, sequence) key,
// so a given seed replays the exact same run.

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "kompics/component.hpp"
#include "kompics/kompics.hpp"
#include "kompics/telemetry.hpp"
#include "net/address.hpp"
#include "net/network_port.hpp"
#include "sim/simulator_core.hpp"

namespace kompics::sim {

class NetworkEmulator;

struct LinkModel {
  DurationMs min_latency = 1;
  DurationMs max_latency = 1;  ///< uniform in [min, max]
  double loss = 0.0;           ///< iid drop probability
  bool fifo = false;           ///< clamp delays so each (src,dst) link is FIFO
  double duplicate = 0.0;      ///< iid probability of a second, independent delivery
};

class SimNetworkHub {
 public:
  SimNetworkHub(SimulatorCore* core, std::uint64_t seed, LinkModel model = {})
      : core_(core), rng_(seed), model_(model) {}

  void attach(const net::Address& a, NetworkEmulator* node) { nodes_[a] = node; }
  void detach(const net::Address& a) { nodes_.erase(a); }

  /// Telemetry of the simulation runtime, wired by the first NetworkEmulator
  /// that attaches. The hub emits net-hop spans for traced messages through
  /// it (the sim is single-threaded, so one instance serves all nodes).
  void set_telemetry(telemetry::Telemetry* tel) { tel_ = tel; }
  bool attached(const net::Address& a) const { return nodes_.count(a) != 0; }
  std::size_t size() const { return nodes_.size(); }

  void set_model(LinkModel m) { model_ = m; }
  const LinkModel& model() const { return model_; }

  /// Splits hosts into partitions: nodes can talk only within their group.
  /// Hosts not mentioned stay in group 0.
  void partition(const std::vector<std::vector<std::uint32_t>>& groups) {
    group_.clear();
    int gid = 1;
    for (const auto& g : groups) {
      for (std::uint32_t host : g) group_[host] = gid;
      ++gid;
    }
  }
  /// Asymmetric cut: every message from a host in `from` to a host in `to`
  /// is dropped; the reverse direction still flows. Models one-directional
  /// link failures (misconfigured firewalls, asymmetric routes) — the
  /// classic trap for failure detectors and quorum protocols, where A hears
  /// B but B never hears A. Composes with partition(): a message must pass
  /// both the group check and every directional rule. Cumulative until
  /// heal().
  void partition_oneway(const std::vector<std::uint32_t>& from,
                        const std::vector<std::uint32_t>& to) {
    for (std::uint32_t f : from) {
      for (std::uint32_t t : to) {
        if (f != t) oneway_blocked_.insert((static_cast<std::uint64_t>(f) << 32) | t);
      }
    }
  }

  void heal() {
    group_.clear();
    oneway_blocked_.clear();
  }

  /// Drops every message `drop` selects (counted as lost): targeted faults
  /// such as one coordinator's writes to chosen replicas. An empty function
  /// clears it.
  void set_drop_filter(std::function<bool(const net::Message&)> drop) {
    drop_ = std::move(drop);
  }

  void send(const net::MessagePtr& m);

  struct Stats {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t lost = 0;
    std::uint64_t unroutable = 0;
    std::uint64_t partitioned = 0;
    std::uint64_t duplicated = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  /// Directional: reachable(a, b) asks whether a message FROM a TO b gets
  /// through. Symmetric partitions check group membership; one-way rules
  /// are checked in the send direction only.
  bool reachable(const net::Address& a, const net::Address& b) const {
    if (!oneway_blocked_.empty() &&
        oneway_blocked_.count((static_cast<std::uint64_t>(a.host) << 32) | b.host) != 0) {
      return false;
    }
    if (group_.empty()) return true;
    auto ga = group_.find(a.host);
    auto gb = group_.find(b.host);
    const int va = ga == group_.end() ? 0 : ga->second;
    const int vb = gb == group_.end() ? 0 : gb->second;
    return va == vb;
  }

  SimulatorCore* core_;
  RngStream rng_;
  LinkModel model_;
  telemetry::Telemetry* tel_ = nullptr;
  std::unordered_map<net::Address, NetworkEmulator*> nodes_;
  std::unordered_map<std::uint32_t, int> group_;
  std::unordered_set<std::uint64_t> oneway_blocked_;  // (from << 32 | to) host pairs
  std::unordered_map<std::uint64_t, TimeMs> last_delivery_;  // (src,dst) key -> time, for fifo
  std::function<bool(const net::Message&)> drop_;
  Stats stats_;
};

using SimNetworkHubPtr = std::shared_ptr<SimNetworkHub>;

class NetworkEmulator : public ComponentDefinition {
 public:
  struct Init : kompics::Init {
    KOMPICS_EVENT(Init, kompics::Init);

    Init(net::Address self, SimNetworkHubPtr hub) : self(self), hub(std::move(hub)) {}
    net::Address self;
    SimNetworkHubPtr hub;
  };

  NetworkEmulator() {
    subscribe<Init>(control(), [this](const Init& init) {
      self_ = init.self;
      hub_ = init.hub;
      hub_->attach(self_, this);
      hub_->set_telemetry(&runtime().telemetry());
    });
    subscribe<Stop>(control(), [this](const Stop&) {
      if (hub_ != nullptr) hub_->detach(self_);
    });
    subscribe<net::Message>(network_, [this](const net::Message&) {
      hub_->send(current_event_as<net::Message>());
    });
  }

  ~NetworkEmulator() override {
    if (hub_ != nullptr && hub_->attached(self_)) hub_->detach(self_);
  }

  void deliver(const net::MessagePtr& m) { trigger(m, network_); }
  const net::Address& self() const { return self_; }

 private:
  Negative<net::Network> network_ = provide<net::Network>();
  net::Address self_;
  SimNetworkHubPtr hub_;
};

inline void SimNetworkHub::send(const net::MessagePtr& m) {
  ++stats_.sent;
  // Traced messages get explicit net-hop spans. The in-process MessagePtr is
  // shared and keeps its original trace word (first stamp wins), so the hub
  // brackets the hop out-of-band: one net-send span per send() — recorded
  // even when the message is then partitioned away or lost, leaving a
  // send-with-no-recv marker — and one net-recv span per delivery, so
  // duplicated messages surface as distinct recv spans under one send.
  std::uint32_t trace = 0, send_span = 0;
  if (tel_ != nullptr && tel_->tracing_enabled()) {
    const std::uint64_t word = m->kompics_trace_word();
    if (word != 0) {
      trace = telemetry::trace_of_word(word);
      send_span = tel_->alloc_span_id();
      const auto active = tel_->active_span();
      const std::uint32_t parent =
          active.trace_id == trace ? active.span_id : telemetry::parent_of_word(word);
      const std::string hop =
          "net.send " + m->source().to_node_string() + " -> " + m->destination().to_node_string();
      tel_->record_net_span(telemetry::SpanKind::kNetSend, trace, send_span, parent, "sim-hub",
                            hop.c_str(), 0, 0, telemetry::now_ns(), 0);
    }
  }
  if (!reachable(m->source(), m->destination())) {
    ++stats_.partitioned;
    return;
  }
  if (drop_ && drop_(*m)) {
    ++stats_.lost;
    return;
  }
  if (model_.loss > 0.0 && rng_.next_double() < model_.loss) {
    ++stats_.lost;
    return;
  }
  auto schedule_delivery = [this, &m, trace, send_span] {
    DurationMs delay = model_.min_latency;
    if (model_.max_latency > model_.min_latency) {
      delay += static_cast<DurationMs>(rng_.next_below(
          static_cast<std::uint64_t>(model_.max_latency - model_.min_latency) + 1));
    }
    if (model_.fifo) {
      const std::uint64_t link = m->source().key() * 0x1000003ULL ^ m->destination().key();
      TimeMs& last = last_delivery_[link];
      const TimeMs at = core_->now() + delay;
      if (at < last) delay = last - core_->now();
      last = core_->now() + delay;
    }
    core_->schedule(delay, [this, m, trace, send_span, delay] {
      auto it = nodes_.find(m->destination());
      if (it == nodes_.end()) {
        ++stats_.unroutable;  // node failed/destroyed while in flight
        return;
      }
      ++stats_.delivered;
      if (send_span != 0 && tel_ != nullptr && tel_->tracing_enabled()) {
        const std::int64_t wire_ns = static_cast<std::int64_t>(delay) * 1000000;
        const std::string hop = "net.recv <- " + m->source().to_node_string();
        tel_->record_net_span(telemetry::SpanKind::kNetRecv, trace, tel_->alloc_span_id(),
                              send_span, "sim-hub", hop.c_str(), 0, wire_ns,
                              telemetry::now_ns(), 0);
      }
      it->second->deliver(m);
    });
  };
  schedule_delivery();
  // Duplicate delivery: the same message arrives twice, at independently
  // drawn delays — models retransmission by a lower layer. Quorum counting
  // must deduplicate by replica, not count raw acks.
  if (model_.duplicate > 0.0 && rng_.next_double() < model_.duplicate) {
    ++stats_.duplicated;
    schedule_delivery();
  }
}

}  // namespace kompics::sim
