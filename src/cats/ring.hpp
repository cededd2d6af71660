#pragma once

// CatsRing (Fig. 11): builds and maintains the consistent-hashing ring.
// Chord-style protocol: a joiner resolves its successor with a ring-level
// FindSuccessor lookup sent to a bootstrap contact, adopts the successor's
// list, and announces itself with Notify; periodic stabilization reconciles
// predecessor/successor pointers and refreshes the successor list; the ping
// failure detector evicts dead neighbors. The ring emits RingView
// indications consumed by the router and ABD (responsibility intervals,
// replica groups) and RingReady once the join completes.

#include <map>
#include <string>
#include <vector>

#include "cats/messages.hpp"
#include "cats/params.hpp"
#include "cats/ports.hpp"
#include "cats/router.hpp"
#include "kompics/component.hpp"
#include "kompics/kompics.hpp"
#include "net/network_port.hpp"
#include "timing/timer_port.hpp"

namespace kompics::cats {

class CatsRing : public ComponentDefinition {
 public:
  struct Init : kompics::Init {
    KOMPICS_EVENT(Init, kompics::Init);

    Init(NodeRef self, CatsParams params) : self(self), params(params) {}
    NodeRef self;
    CatsParams params;
  };

  CatsRing();

  // Introspection for tests / monitoring.
  const std::vector<NodeRef>& successors() const { return succs_; }
  bool has_predecessor() const { return has_pred_; }
  const NodeRef& predecessor() const { return pred_; }
  bool ready() const { return ready_; }
  std::uint64_t epoch() const { return epoch_; }

  /// Campaign-harness invariants (ISSUE 7): the successor list never
  /// contains this node itself and never holds duplicate addresses. Empty
  /// on healthy runs.
  std::vector<std::string> invariant_violations() const {
    std::vector<std::string> out;
    for (std::size_t i = 0; i < succs_.size(); ++i) {
      if (succs_[i].addr == self_.addr) {
        out.push_back("ring: successor list contains self at index " + std::to_string(i));
      }
      for (std::size_t j = i + 1; j < succs_.size(); ++j) {
        if (succs_[i].addr == succs_[j].addr) {
          out.push_back("ring: duplicate successor " + succs_[i].addr.to_string());
        }
      }
    }
    return out;
  }

 private:
  struct StabilizeRound : timing::Timeout {
    KOMPICS_EVENT(StabilizeRound, timing::Timeout);

    using Timeout::Timeout;
  };
  struct JoinRetry : timing::Timeout {
    KOMPICS_EVENT(JoinRetry, timing::Timeout);

    using Timeout::Timeout;
  };

  void send_join_lookup();
  void complete_join(const std::vector<NodeRef>& group);
  void become_ready();
  void on_stabilize();
  void adopt_successor_list(const NodeRef& head, const std::vector<NodeRef>& rest);
  void set_monitoring();
  void publish_view();
  void remove_node(const Address& a);

  Negative<Ring> ring_ = provide<Ring>();
  Negative<Status> status_ = provide<Status>();
  Positive<net::Network> network_ = require<net::Network>();
  Positive<timing::Timer> timer_ = require<timing::Timer>();
  Positive<EventuallyPerfectFD> fd_ = require<EventuallyPerfectFD>();
  Positive<NodeSampling> sampling_ = require<NodeSampling>();

  NodeRef self_;
  CatsParams params_;
  bool joining_ = false;
  bool ready_ = false;
  bool lone_ = false;  ///< bootstrapped fresh and never saw a peer
  std::size_t join_attempt_ = 0;
  std::vector<Address> join_contacts_;
  Address placed_joiner_{};  ///< last joiner whose FindSuccessor this node answered
  bool has_pred_ = false;
  NodeRef pred_{};
  std::vector<NodeRef> succs_;       // nearest first; never contains self
  std::vector<Address> monitored_;   // current FD watch set
  // Quarantine for sample-driven merge: gossip keeps echoing descriptors of
  // a dead node for a few shuffle rounds, and re-adopting one as successor
  // right after the FD evicted it would make the ring flap.
  std::map<Address, TimeMs> recently_suspected_;
  std::uint64_t stabilizations_ = 0;
  std::uint64_t epoch_ = 0;  ///< bumped on every published view change
};

}  // namespace kompics::cats
