#pragma once

// LoopbackNetwork: an in-process Network provider for single-process
// multi-node deployments — the substrate for the paper's "local,
// interactive, stress-test execution" mode (§4.3) and for latency
// experiments that should exclude kernel sockets.
//
// Every node component tree embeds one LoopbackNetwork; all instances in a
// process share a LoopbackHub that routes by destination address. When
// `exercise_codec` is set, each message is serialized, optionally
// kz-compressed, decompressed, and deserialized on the way through — the
// same 4x serialize / 4x compress / 4x decompress / 4x deserialize path the
// paper's sub-millisecond latency figure includes (§4.1).

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "kompics/component.hpp"
#include "kompics/kompics.hpp"
#include "net/address.hpp"
#include "net/compression.hpp"
#include "net/network_port.hpp"
#include "net/serialization.hpp"

namespace kompics::net {

class LoopbackNetwork;

/// Shared in-process switch: address -> node network component.
class LoopbackHub {
 public:
  void attach(const Address& a, LoopbackNetwork* node) {
    std::lock_guard<std::mutex> g(mu_);
    nodes_[a] = node;
  }
  void detach(const Address& a) {
    std::lock_guard<std::mutex> g(mu_);
    nodes_.erase(a);
  }
  LoopbackNetwork* route(const Address& a) const {
    std::lock_guard<std::mutex> g(mu_);
    auto it = nodes_.find(a);
    return it == nodes_.end() ? nullptr : it->second;
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> g(mu_);
    return nodes_.size();
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<Address, LoopbackNetwork*> nodes_;
};

using LoopbackHubPtr = std::shared_ptr<LoopbackHub>;

class LoopbackNetwork : public ComponentDefinition {
 public:
  struct Init : kompics::Init {
    KOMPICS_EVENT(Init, kompics::Init);

    Init(Address self, LoopbackHubPtr hub, bool exercise_codec = false, bool compress = false)
        : self(self), hub(std::move(hub)), exercise_codec(exercise_codec), compress(compress) {}
    Address self;
    LoopbackHubPtr hub;
    bool exercise_codec;
    bool compress;
  };

  LoopbackNetwork() {
    subscribe<Init>(control(), [this](const Init& init) {
      self_ = init.self;
      hub_ = init.hub;
      exercise_codec_ = init.exercise_codec;
      compress_ = init.compress;
      hub_->attach(self_, this);
    });
    subscribe<Stop>(control(), [this](const Stop&) {
      if (hub_ != nullptr) hub_->detach(self_);
    });
    subscribe<Message>(network_, [this](const Message& m) { send(m); });
  }

  ~LoopbackNetwork() override {
    if (hub_ != nullptr) hub_->detach(self_);
  }

  /// Called by the hub path (possibly from another node's worker thread).
  void deliver(const MessagePtr& m) { trigger(m, network_); }

  std::uint64_t sent() const { return sent_.load(std::memory_order_relaxed); }
  std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  std::uint64_t bytes_on_wire() const { return wire_bytes_.load(std::memory_order_relaxed); }

 private:
  void send(const Message& m) {
    LoopbackNetwork* dest = hub_->route(m.destination());
    if (dest == nullptr) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      trigger(make_event<SendFailed>(nullptr, "no route to " + m.destination().to_string()),
              control_port_);
      return;
    }
    sent_.fetch_add(1, std::memory_order_relaxed);
    if (!exercise_codec_) {
      // Fast path: share the immutable event directly with the peer node.
      dest->deliver(current_event_as<Message>());
      return;
    }
    // Full wire path: serialize -> (compress) -> (decompress) -> deserialize.
    Bytes wire;
    SerializationRegistry::instance().serialize(m, wire);
    if (compress_) {
      Bytes packed;
      kz::compress(wire, packed);
      wire_bytes_.fetch_add(packed.size(), std::memory_order_relaxed);
      wire = kz::decompress(packed);
    } else {
      wire_bytes_.fetch_add(wire.size(), std::memory_order_relaxed);
    }
    dest->deliver(SerializationRegistry::instance().deserialize(wire));
  }

  Negative<Network> network_ = provide<Network>();
  Negative<NetworkControl> control_port_ = provide<NetworkControl>();

  Address self_;
  LoopbackHubPtr hub_;
  bool exercise_codec_ = false;
  bool compress_ = false;
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> wire_bytes_{0};
};

}  // namespace kompics::net
