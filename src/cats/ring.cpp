#include "cats/ring.hpp"

#include <algorithm>

namespace kompics::cats {

CatsRing::CatsRing() {
  register_cats_serializers();

  subscribe<Init>(control(), [this](const Init& init) {
    self_ = init.self;
    params_ = init.params;
  });

  subscribe<Start>(control(), [this](const Start&) {
    trigger(timing::schedule_periodic<StabilizeRound>(params_.stabilization_period_ms,
                                                      params_.stabilization_period_ms),
            timer_);
  });

  subscribe<JoinRing>(ring_, [this](const JoinRing& join) {
    if (ready_) return;
    if (joining_) {
      // Refreshed contact list (e.g., the node re-bootstrapped because its
      // original contacts died): adopt it; the retry timer keeps cycling.
      if (!join.contacts.empty()) join_contacts_ = join.contacts;
      return;
    }
    join_contacts_ = join.contacts;
    if (join_contacts_.empty()) {
      // First node: a lone ring, responsible for the whole key space.
      ready_ = true;
      lone_ = true;
      publish_view();
      trigger(make_event<RingReady>(self_), ring_);
      return;
    }
    joining_ = true;
    send_join_lookup();
  });

  subscribe<JoinRetry>(timer_, [this](const JoinRetry&) {
    if (!joining_) return;
    if (!succs_.empty() || has_pred_) {
      // The ring already wove us in: a ready node adopted us from a gossip
      // sample and notified us, so FindSuccessor lookups for our key now
      // end here, where they are dropped until we are ready. The Notify
      // gave us neighbors, so the join is complete; waiting for a
      // FoundSuccessor would retry forever.
      become_ready();
      return;
    }
    ++join_attempt_;  // rotate to the next bootstrap contact
    send_join_lookup();
  });

  subscribe<StabilizeRound>(timer_, [this](const StabilizeRound&) { on_stabilize(); });

  // Ring-level successor lookup — the join path. Unlike the router's
  // table-driven forwarding (which can be poisoned by descriptors of dead
  // nodes still circulating in gossip), this only traverses successor
  // lists, which the failure detector keeps live.
  subscribe<FindSuccessorMsg>(network_, [this](const FindSuccessorMsg& msg) {
    if (!ready_) return;  // not a member: cannot answer or route
    // Not RingNeighborhood::responsible_for: a ready node with no successor
    // must answer here, since nobody else can place the joiner (the first
    // node of a ring, or one whose neighbors all died), and a wrong answer
    // only costs stabilization rounds. The router must refuse there unless
    // it is a sole member: its answers pick the replica group that quorum
    // writes commit to.
    const bool responsible =
        succs_.empty() || (has_pred_ && in_interval_oc(pred_.key, self_.key, msg.target));
    if (responsible) {
      placed_joiner_ = msg.joiner.addr;
      trigger(make_event<FoundSuccessorMsg>(self_.addr, msg.joiner.addr, self_, succs_),
              network_);
      return;
    }
    if (msg.hops_left == 0) return;  // hop budget spent: drop, joiner retries
    // Forward to the farthest successor that still precedes the target
    // (monotonic progress along the ring — but only while successor lists
    // agree, hence the hop budget above).
    NodeRef next = succs_[0];
    for (const auto& s : succs_) {
      if (in_interval_oo(self_.key, msg.target, s.key)) {
        next = s;
      } else {
        break;
      }
    }
    trigger(make_event<FindSuccessorMsg>(self_.addr, next.addr, msg.joiner, msg.target,
                                         msg.hops_left - 1),
            network_);
  });

  subscribe<FoundSuccessorMsg>(network_, [this](const FoundSuccessorMsg& msg) {
    if (!joining_ || msg.successor.addr == self_.addr) return;
    std::vector<NodeRef> group{msg.successor};
    group.insert(group.end(), msg.successor_list.begin(), msg.successor_list.end());
    complete_join(group);
  });

  subscribe<GetRingStateMsg>(network_, [this](const GetRingStateMsg& msg) {
    trigger(make_event<RingStateMsg>(self_.addr, msg.source(), self_, has_pred_, pred_, succs_),
            network_);
  });

  subscribe<RingStateMsg>(network_, [this](const RingStateMsg& msg) {
    if (succs_.empty() || msg.self.addr != succs_[0].addr) return;  // stale probe answer
    ++stabilizations_;
    if (msg.has_pred && msg.pred.addr != self_.addr &&
        in_interval_oo(self_.key, msg.self.key, msg.pred.key)) {
      // A node slipped in between us and our successor: adopt it.
      std::vector<NodeRef> rest{msg.self};
      rest.insert(rest.end(), msg.succs.begin(), msg.succs.end());
      adopt_successor_list(msg.pred, rest);
    } else {
      adopt_successor_list(msg.self, msg.succs);
    }
    if (!succs_.empty()) {
      trigger(make_event<NotifyMsg>(self_.addr, succs_[0].addr, self_), network_);
    }
  });

  // Ring merge / orphan recovery: random samples of live nodes let a node
  // (re)discover peers that its successor chain cannot reach — e.g. after a
  // healed partition left two disjoint rings, or after a node lost every
  // neighbor to suspicion. Stabilization then reconciles the pointers.
  subscribe<NodeSample>(sampling_, [this](const NodeSample& sample) {
    if (!ready_) return;
    // Drop expired quarantine entries.
    const TimeMs quarantine = 3 * params_.fd_initial_timeout_ms;
    for (auto it = recently_suspected_.begin(); it != recently_suspected_.end();) {
      it = now() - it->second > quarantine ? recently_suspected_.erase(it) : std::next(it);
    }
    bool changed = false;
    for (const auto& n : sample.nodes) {
      if (n.addr == self_.addr || !n.addr.valid()) continue;
      if (recently_suspected_.count(n.addr) != 0) continue;  // quarantined
      if (succs_.empty()) {
        succs_.push_back(n);
        changed = true;
      } else if (in_interval_oo(self_.key, succs_[0].key, n.key) &&
                 n.addr != succs_[0].addr) {
        // After churn the tail of the list can be stale enough that n
        // already sits deeper in it — drop that entry before promoting,
        // or the list ends up holding the node twice.
        succs_.erase(std::remove_if(succs_.begin(), succs_.end(),
                                    [&n](const NodeRef& s) { return s.addr == n.addr; }),
                     succs_.end());
        succs_.insert(succs_.begin(), n);
        if (succs_.size() > CatsParams::kSuccessorListSize) succs_.pop_back();
        changed = true;
      }
    }
    if (changed) {
      lone_ = false;
      set_monitoring();
      publish_view();
      if (!succs_.empty()) {
        trigger(make_event<NotifyMsg>(self_.addr, succs_[0].addr, self_), network_);
      }
    }
  });

  subscribe<NotifyMsg>(network_, [this](const NotifyMsg& msg) {
    bool changed = false;
    if (!has_pred_ || in_interval_oo(pred_.key, self_.key, msg.from.key)) {
      if (has_pred_ && ready_ && msg.from.addr == placed_joiner_) {
        // A joiner we placed announces itself: answer the old predecessor's
        // next stabilization probe now, so it adopts the joiner at once.
        // A join completes after one lookup round trip, so under bulk joins
        // a predecessor that waited for its next round would skip ahead
        // past every node that joined meanwhile, leaving overlapping
        // responsibility intervals whose owners duel over replica groups.
        trigger(make_event<RingStateMsg>(self_.addr, pred_.addr, self_, true, msg.from, succs_),
                network_);
      }
      has_pred_ = true;
      pred_ = msg.from;
      changed = true;
    }
    if (succs_.empty() && msg.from.addr != self_.addr) {
      // Lone ring learning of its first peer: it is also our successor.
      succs_.push_back(msg.from);
      lone_ = false;
      changed = true;
    }
    if (changed) {
      set_monitoring();
      publish_view();
    }
  });

  subscribe<Suspect>(fd_, [this](const Suspect& s) { remove_node(s.node); });

  subscribe<StatusRequest>(status_, [this](const StatusRequest& req) {
    std::map<std::string, std::string> fields;
    fields["key"] = ring_key_str(self_.key);
    fields["ready"] = ready_ ? "true" : "false";
    fields["predecessor"] = has_pred_ ? ring_key_str(pred_.key) : "(none)";
    std::string succs;
    for (const auto& s : succs_) succs += ring_key_str(s.key) + " ";
    fields["successors"] = succs;
    fields["stabilizations"] = std::to_string(stabilizations_);
    fields["ring_epoch"] = std::to_string(epoch_);
    trigger(make_event<StatusResponse>(req.id, "CatsRing", std::move(fields)), status_);
  });
}

void CatsRing::send_join_lookup() {
  // The joiner is not a ring member yet, so it cannot rely on (or pollute)
  // any routing table: a ring-level FindSuccessor for its own key is
  // shipped directly to one of the bootstrap contacts. Retries rotate
  // contacts.
  const Address contact = join_contacts_[join_attempt_ % join_contacts_.size()];
  trigger(make_event<FindSuccessorMsg>(self_.addr, contact, self_, self_.key,
                                       OneHopRouter::kMaxHops),
          network_);
  trigger(timing::schedule<JoinRetry>(params_.stabilization_period_ms / 2 + 1), timer_);
}

void CatsRing::complete_join(const std::vector<NodeRef>& group) {
  succs_.clear();
  for (const auto& n : group) {
    if (n.addr == self_.addr) continue;
    const bool dup = std::any_of(succs_.begin(), succs_.end(),
                                 [&n](const NodeRef& s) { return s.addr == n.addr; });
    if (!dup) succs_.push_back(n);  // lookup answers may repeat the head
  }
  if (!succs_.empty()) {
    trigger(make_event<NotifyMsg>(self_.addr, succs_[0].addr, self_), network_);
  }
  become_ready();
}

void CatsRing::become_ready() {
  joining_ = false;
  ready_ = true;
  lone_ = false;
  set_monitoring();
  publish_view();
  trigger(make_event<RingReady>(self_), ring_);
}

void CatsRing::on_stabilize() {
  if (!ready_ || succs_.empty()) return;
  trigger(make_event<GetRingStateMsg>(self_.addr, succs_[0].addr, self_), network_);
}

void CatsRing::adopt_successor_list(const NodeRef& head, const std::vector<NodeRef>& rest) {
  std::vector<NodeRef> fresh;
  auto push = [this, &fresh](const NodeRef& n) {
    if (n.addr == self_.addr || !n.addr.valid()) return;
    if (fresh.size() >= CatsParams::kSuccessorListSize) return;
    const bool dup = std::any_of(fresh.begin(), fresh.end(),
                                 [&n](const NodeRef& f) { return f.addr == n.addr; });
    if (!dup) fresh.push_back(n);
  };
  push(head);
  for (const auto& n : rest) push(n);
  if (fresh != succs_) {
    succs_ = std::move(fresh);
    set_monitoring();
    publish_view();
  }
}

void CatsRing::remove_node(const Address& a) {
  recently_suspected_[a] = now();
  bool changed = false;
  if (has_pred_ && pred_.addr == a) {
    has_pred_ = false;
    changed = true;
  }
  const auto before = succs_.size();
  succs_.erase(std::remove_if(succs_.begin(), succs_.end(),
                              [&a](const NodeRef& n) { return n.addr == a; }),
               succs_.end());
  changed = changed || succs_.size() != before;
  if (succs_.empty() && has_pred_) {
    // Last-resort repair: close the ring through our predecessor.
    succs_.push_back(pred_);
    changed = true;
  }
  if (changed) {
    set_monitoring();
    publish_view();
  }
}

void CatsRing::set_monitoring() {
  std::vector<Address> desired;
  if (has_pred_) desired.push_back(pred_.addr);
  for (const auto& s : succs_) desired.push_back(s.addr);
  for (const auto& a : desired) {
    if (std::find(monitored_.begin(), monitored_.end(), a) == monitored_.end()) {
      trigger(make_event<MonitorNode>(a), fd_);
    }
  }
  for (const auto& a : monitored_) {
    if (std::find(desired.begin(), desired.end(), a) == desired.end()) {
      trigger(make_event<UnmonitorNode>(a), fd_);
    }
  }
  monitored_ = std::move(desired);
}

void CatsRing::publish_view() {
  ++epoch_;
  trigger(make_event<RingView>(self_, pred_, has_pred_, succs_,
                               /*sole_member=*/lone_ && succs_.empty(), epoch_),
          ring_);
}

}  // namespace kompics::cats
