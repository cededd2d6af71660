#pragma once

// CyclonOverlay (Fig. 11): the peer-sampling service. Maintains a small
// cache of node descriptors and periodically shuffles a random subset with
// the oldest cached peer; after every exchange it publishes a NodeSample on
// its NodeSampling port. The One-Hop Router consumes these samples to learn
// the global node set (paper §4.1: "a node sampling service called Cyclon
// Overlay to periodically provide random samples of nodes in the system").

#include <vector>

#include "cats/messages.hpp"
#include "cats/params.hpp"
#include "cats/ports.hpp"
#include "kompics/component.hpp"
#include "kompics/kompics.hpp"
#include "net/network_port.hpp"
#include "timing/timer_port.hpp"

namespace kompics::cats {

class CyclonOverlay : public ComponentDefinition {
 public:
  struct Init : kompics::Init {
    KOMPICS_EVENT(Init, kompics::Init);

    Init(NodeRef self, CatsParams params) : self(self), params(params) {}
    NodeRef self;
    CatsParams params;
  };

  CyclonOverlay();

  const std::vector<CyclonEntry>& cache() const { return cache_; }

 private:
  struct ShuffleRound : timing::Timeout {
    KOMPICS_EVENT(ShuffleRound, timing::Timeout);

    using Timeout::Timeout;
  };

  void on_shuffle_round();
  void merge(const std::vector<CyclonEntry>& received, const std::vector<CyclonEntry>& sent);
  std::vector<CyclonEntry> select_subset(std::size_t n, bool include_self);
  void publish_sample();
  bool known(const Address& a) const;

  Negative<NodeSampling> sampling_ = provide<NodeSampling>();
  Negative<Status> status_ = provide<Status>();
  Positive<net::Network> network_ = require<net::Network>();
  Positive<timing::Timer> timer_ = require<timing::Timer>();

  NodeRef self_;
  CatsParams params_;
  std::vector<CyclonEntry> cache_;
  std::vector<CyclonEntry> last_sent_;  // entries offered in the active shuffle
  CyclonEntry target_entry_{};          // the evicted target, re-added if it answers
  Address shuffle_target_{};
  std::uint64_t shuffles_ = 0;
};

}  // namespace kompics::cats
