#include "cats/bootstrap.hpp"

#include <algorithm>

namespace kompics::cats {

// ---------------------------------------------------------------------------
// BootstrapServer
// ---------------------------------------------------------------------------

BootstrapServer::BootstrapServer() {
  register_cats_serializers();

  subscribe<Init>(control(), [this](const Init& init) {
    self_ = init.self;
    params_ = init.params;
  });

  subscribe<Start>(control(), [this](const Start&) {
    trigger(timing::schedule_periodic<EvictionRound>(params_.bootstrap_eviction_ms,
                                                     params_.bootstrap_eviction_ms),
            timer_);
  });

  subscribe<BootstrapRequestMsg>(network_, [this](const BootstrapRequestMsg& req) {
    ++requests_served_;
    // Return a bounded random sample of alive peers (excluding the asker).
    std::vector<NodeRef> peers;
    for (const auto& [addr, entry] : alive_) {
      if (addr != req.self.addr) peers.push_back(entry.node);
    }
    for (std::size_t i = 0; i < peers.size(); ++i) {
      std::swap(peers[i], peers[i + rng().next_below(peers.size() - i)]);
    }
    if (peers.size() > CatsParams::kBootstrapSampleSize) {
      peers.resize(CatsParams::kBootstrapSampleSize);
    }
    trigger(make_event<BootstrapResponseMsg>(self_, req.source(), std::move(peers)), network_);
    // Register the requester provisionally: a node that asks right after is
    // then guaranteed to learn about it, so only the very first requester
    // ever bootstraps a fresh (lone) ring. Keep-alives (or eviction) take
    // over from here.
    AliveEntry& e = alive_[req.self.addr];
    e.node = req.self;
    e.last_seen = now();
  });

  subscribe<KeepAliveMsg>(network_, [this](const KeepAliveMsg& ka) {
    AliveEntry& e = alive_[ka.self.addr];
    e.node = ka.self;
    e.last_seen = now();
  });

  subscribe<EvictionRound>(timer_, [this](const EvictionRound&) {
    const TimeMs cutoff = now() - params_.bootstrap_eviction_ms;
    for (auto it = alive_.begin(); it != alive_.end();) {
      if (it->second.last_seen < cutoff) {
        ++evictions_;
        it = alive_.erase(it);
      } else {
        ++it;
      }
    }
  });

  subscribe<StatusRequest>(status_, [this](const StatusRequest& req) {
    std::map<std::string, std::string> fields;
    fields["alive"] = std::to_string(alive_.size());
    fields["requests_served"] = std::to_string(requests_served_);
    fields["evictions"] = std::to_string(evictions_);
    trigger(make_event<StatusResponse>(req.id, "BootstrapServer", std::move(fields)), status_);
  });
}

std::vector<NodeRef> BootstrapServer::alive_nodes() const {
  std::vector<NodeRef> out;
  out.reserve(alive_.size());
  for (const auto& [addr, e] : alive_) out.push_back(e.node);
  return out;
}

// ---------------------------------------------------------------------------
// BootstrapClient
// ---------------------------------------------------------------------------

BootstrapClient::BootstrapClient() {
  register_cats_serializers();

  subscribe<Init>(control(), [this](const Init& init) {
    self_ = init.self;
    server_ = init.server;
    params_ = init.params;
  });

  subscribe<BootstrapRequest>(bootstrap_, [this](const BootstrapRequest& req) {
    self_ = req.self;
    if (handshaking_) return;  // retransmission loop already running
    handshaking_ = true;
    protocol::spawn(run_handshake());
  });

  subscribe<BootstrapDone>(bootstrap_, [this](const BootstrapDone&) {
    if (done_) return;
    done_ = true;
    protocol::spawn(run_keepalive());
  });
}

protocol::Proto<void> BootstrapClient::run_handshake() {
  struct Flag {  // allow a fresh handshake once this one ends, however it ends
    bool* f;
    ~Flag() { *f = false; }
  } guard{&handshaking_};
  auto responses = co_await network_.open<BootstrapResponseMsg>();
  for (;;) {
    trigger(make_event<BootstrapRequestMsg>(self_.addr, server_, self_), network_);
    auto got = co_await protocol::when_any(
        responses.next(), protocol::sleep(timer_, params_.keepalive_period_ms));
    if (got.index() == 0) {  // index 1: server silent — retransmit
      trigger(make_event<BootstrapResponse>(std::get<0>(got)->peers), bootstrap_);
      co_return;
    }
  }
}

protocol::Proto<void> BootstrapClient::run_keepalive() {
  // First keep-alive immediately (registers us with the server), then
  // periodically, until the component is halted.
  for (;;) {
    trigger(make_event<KeepAliveMsg>(self_.addr, server_, self_), network_);
    co_await protocol::sleep(timer_, params_.keepalive_period_ms);
  }
}

}  // namespace kompics::cats
