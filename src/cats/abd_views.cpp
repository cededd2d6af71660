// ConsistentABD's view manager: the consistent-quorum half of the component
// (CATS tech report [11]). Replica groups are versioned views over key
// ranges; changing one runs a single-decree consensus per (range, version)
// over the OLD view's members, fencing the old view on promise so a partial
// partition can never assemble quorums under two views at once. The ABD
// register protocol itself — coordinator coroutines and replica handlers —
// lives in abd.cpp; this file owns everything about views: the acceptor and
// proposer sides of the consensus, installs and catch-up transfers, and the
// ring-driven reconfiguration policy.

#include <algorithm>

#include "cats/abd.hpp"
#include "cats/ring_key.hpp"

namespace kompics::cats {

void ConsistentABD::subscribe_view_protocol() {
  // ---- acceptor side -------------------------------------------------------

  subscribe<ViewPrepareMsg>(network_, [this](const ViewPrepareMsg& msg) {
    auto refuse = [&](Ballot promised, std::vector<GroupView> catchup,
                      std::vector<KeyState> state) {
      trigger(make_event<ViewPromiseMsg>(self_.addr, msg.source(), msg.range_hi, msg.target,
                                         msg.ballot, false, promised, false, Ballot{},
                                         std::vector<GroupView>{}, std::move(catchup),
                                         std::move(state)),
              network_);
    };
    RangeState* r = ranges_.find(msg.range_hi);
    if (r == nullptr || r->view.version + 1 != msg.target) {
      // Not an acceptor for this decree. If the view covering the proposer's
      // hi is at or past the target (this range was reconfigured already, or
      // superseded by a split), ship it so the stale proposer can catch up.
      const RangeState* cover = ranges_.covering(msg.range_hi);
      if (cover != nullptr && cover->view.version >= msg.target) {
        refuse(Ballot{}, {cover->view}, dump_range(cover->view));
      } else {
        refuse(Ballot{}, {}, {});
      }
      return;
    }
    Slot& slot = slots_[{msg.range_hi, msg.target}];
    if (msg.ballot < slot.promised) {
      refuse(slot.promised, {}, {});
      return;
    }
    slot.promised = msg.ballot;
    // THE FENCE: from this promise on, the old view refuses ABD phases for
    // the range. Once a majority of the old view has promised, the old view
    // can never again assemble a quorum — which is the precondition for the
    // new view taking over without a divergence window.
    if (!r->fenced) {
      r->fenced = true;
      r->fenced_at = now();
      ++counters_.view_fences;
    }
    trigger(make_event<ViewPromiseMsg>(self_.addr, msg.source(), msg.range_hi, msg.target,
                                       msg.ballot, true, slot.promised, slot.has_accepted,
                                       slot.accepted_ballot, slot.accepted_children,
                                       std::vector<GroupView>{}, dump_range(r->view)),
            network_);
  });

  subscribe<ViewAcceptMsg>(network_, [this](const ViewAcceptMsg& msg) {
    RangeState* r = ranges_.find(msg.range_hi);
    Slot* slot = r != nullptr && r->view.version + 1 == msg.target
                     ? &slots_[{msg.range_hi, msg.target}]
                     : nullptr;
    const bool ok = slot != nullptr && !(msg.ballot < slot->promised);
    if (ok) {
      slot->promised = msg.ballot;
      slot->has_accepted = true;
      slot->accepted_ballot = msg.ballot;
      slot->accepted_children = msg.children;
      if (!r->fenced) {
        r->fenced = true;
        r->fenced_at = now();
        ++counters_.view_fences;
      }
    }
    trigger(make_event<ViewAcceptedMsg>(self_.addr, msg.source(), msg.range_hi, msg.target,
                                        msg.ballot, ok),
            network_);
  });

  // ---- proposer side -------------------------------------------------------

  subscribe<ViewPromiseMsg>(network_, [this](const ViewPromiseMsg& msg) {
    // A catch-up hint is useful whether or not the proposal it answers is
    // still current (install_view keeps it only if it supersedes ours).
    if (!msg.ok && !msg.catchup.empty()) {
      install_view(msg.catchup[0], msg.state);
    }
    auto it = reconfigs_.find(msg.range_hi);
    if (it == reconfigs_.end()) return;
    Reconfig& rec = it->second;
    if (rec.target != msg.target || !(rec.ballot == msg.ballot) ||
        rec.stage != Reconfig::Stage::kPrepare) {
      return;
    }
    if (!msg.ok) {
      if (!msg.catchup.empty()) {
        reconfigs_.erase(it);  // superseded; re-evaluated from the new view
      } else {
        rec.highest_rejection = std::max(rec.highest_rejection, msg.promised.round);
      }
      return;  // next tick re-proposes with a higher ballot if still needed
    }
    if (!rec.parent.has_member(msg.source())) return;
    if (!note_address(rec.promises, msg.source())) return;
    // Paxos adopt rule: if any acceptor already accepted children for this
    // decree, the highest-ballot such proposal is the only one we may pass.
    if (msg.has_accepted && (!rec.adopted || rec.max_accepted < msg.accepted_ballot)) {
      rec.adopted = true;
      rec.max_accepted = msg.accepted_ballot;
      rec.children = msg.accepted_children;
    }
    merge_promise_state(rec, msg.state);
    if (rec.promises.size() >= rec.parent.members.size() / 2 + 1) {
      if (!rec.adopted) rec.children = rec.proposed;
      rec.stage = Reconfig::Stage::kAccept;
      for (const auto& m : rec.parent.members) {
        trigger(make_event<ViewAcceptMsg>(self_.addr, m.addr, rec.parent.lo, rec.parent.hi,
                                          rec.target, rec.ballot, rec.children),
                network_);
      }
    }
  });

  subscribe<ViewAcceptedMsg>(network_, [this](const ViewAcceptedMsg& msg) {
    auto it = reconfigs_.find(msg.range_hi);
    if (it == reconfigs_.end()) return;
    Reconfig& rec = it->second;
    if (rec.target != msg.target || !(rec.ballot == msg.ballot) ||
        rec.stage != Reconfig::Stage::kAccept) {
      return;
    }
    if (!msg.ok) {
      rec.highest_rejection = std::max(rec.highest_rejection, rec.ballot.round);
      return;
    }
    if (!rec.parent.has_member(msg.source())) return;
    if (!note_address(rec.accepts, msg.source())) return;
    if (rec.accepts.size() >= rec.parent.members.size() / 2 + 1) {
      // Decided: the children replace the parent. Activate them by shipping
      // installs (with the max-tag state merged from the promise dumps) to
      // every child member; retransmitted each tick until all ack.
      rec.stage = Reconfig::Stage::kInstall;
      ++counters_.reconfigs_decided;
      send_installs(rec);
    }
  });

  // ---- installation & catch-up ---------------------------------------------

  subscribe<ViewInstallMsg>(network_, [this](const ViewInstallMsg& msg) {
    install_view(msg.child, msg.state);
    trigger(make_event<ViewInstallAckMsg>(self_.addr, msg.source(), msg.parent_hi, msg.child.hi,
                                          msg.child.version),
            network_);
  });

  subscribe<ViewInstallAckMsg>(network_, [this](const ViewInstallAckMsg& msg) {
    auto it = reconfigs_.find(msg.parent_hi);
    if (it == reconfigs_.end() || it->second.stage != Reconfig::Stage::kInstall) return;
    Reconfig& rec = it->second;
    const auto child = std::find_if(rec.children.begin(), rec.children.end(),
                                    [&](const GroupView& c) {
                                      return c.hi == msg.child_hi && c.version == msg.version;
                                    });
    if (child == rec.children.end()) return;
    note_address(rec.install_acks[msg.child_hi], msg.source());
    for (const auto& c : rec.children) {
      auto acked = rec.install_acks.find(c.hi);
      const std::size_t got = acked == rec.install_acks.end() ? 0 : acked->second.size();
      if (got < install_recipients(rec, c).size()) return;
    }
    reconfigs_.erase(it);  // every old and new member holds the view
  });

  subscribe<ViewFetchMsg>(network_, [this](const ViewFetchMsg& msg) {
    const GroupView wanted{msg.lo, msg.hi, 0, {}};
    for (const auto& [hi, r] : ranges_) {
      if (!r.view.overlaps(wanted)) continue;
      trigger(make_event<ViewInstallMsg>(self_.addr, msg.source(), r.view.hi, r.view,
                                         dump_range(r.view)),
              network_);
    }
  });
}

// ---- view state & policy ----------------------------------------------------

std::vector<KeyState> ConsistentABD::dump_range(const GroupView& range) const {
  std::vector<KeyState> out;
  for (const auto& [k, rep] : store_) {
    if (range.covers(k)) out.push_back(KeyState{k, rep.tag, rep.value});
  }
  return out;
}

bool ConsistentABD::same_member_set(const std::vector<NodeRef>& a,
                                    const std::vector<NodeRef>& b) {
  if (a.size() != b.size()) return false;
  for (const auto& n : a) {
    const bool found = std::any_of(b.begin(), b.end(),
                                   [&n](const NodeRef& m) { return m.addr == n.addr; });
    if (!found) return false;
  }
  return true;
}

std::uint64_t ConsistentABD::next_ballot_round(const Reconfig* prev) const {
  std::uint64_t round = ring_epoch_ > 0 ? ring_epoch_ : 1;
  if (prev != nullptr) {
    round = std::max(round, std::max(prev->ballot.round, prev->highest_rejection) + 1);
  }
  return round;
}

void ConsistentABD::install_view(const GroupView& view, const std::vector<KeyState>& state) {
  // A view already held is ignored (installing it again would drop its
  // fence); the ranges it supersedes take their slots and proposals along.
  const Supersede done = ranges_.supersede(view, Fence{}, [this, &view](const GroupView& old) {
    std::erase_if(slots_, [&](const auto& s) {
      return s.first.first == old.hi && s.first.second <= view.version;
    });
    auto rc = reconfigs_.find(old.hi);
    if (rc != reconfigs_.end() && rc->second.target < view.version) reconfigs_.erase(rc);
  });
  if (done != Supersede::kStored) return;
  // Merge the transferred state by max tag: never regress a replica.
  for (const auto& ks : state) merge_newer(store_, ks.key, ks.tag, ks.value);
  ++counters_.views_installed;
  trigger(make_event<ViewUpdate>(view), views_);
}

void ConsistentABD::evaluate_reconfigurations() {
  const RingNeighborhood& ring = ring_view_;
  // Genesis: the first node of a fresh ring installs the full-circle view
  // unilaterally — there is no old view to fence.
  if (ring.sole_member && ranges_.empty()) {
    install_view(GroupView{self_.key, self_.key, 1, {self_}}, {});
    return;
  }
  // Catch-up: ring-responsible for our own key but no installed view covers
  // it — e.g. a healed boundary node whose old group evicted it while it was
  // partitioned away. Pull copies from a successor (a replica of our
  // ranges); once installed, the member-change path below re-proposes us in.
  if (ring.has_predecessor && ranges_.covering(self_.key) == nullptr && !ring.successors.empty()) {
    const NodeRef& target = ring.successors[fetch_attempts_++ % ring.successors.size()];
    ++counters_.view_fetches;
    trigger(make_event<ViewFetchMsg>(self_.addr, target.addr, ring.predecessor.key, self_.key),
            network_);
  }
  // Drop proposals for ranges the ring no longer makes us responsible for.
  for (auto it = reconfigs_.begin(); it != reconfigs_.end();) {
    it = !ring.responsible_for(it->first) ? reconfigs_.erase(it) : std::next(it);
  }
  std::vector<RingKey> held;
  for (const auto& [hi, r] : ranges_) held.push_back(hi);
  for (RingKey hi : held) {
    const RangeState* range = ranges_.find(hi);
    if (range == nullptr || !ring.responsible_for(hi)) continue;
    const GroupView& cur = range->view;
    auto rc = reconfigs_.find(hi);
    // A decided reconfiguration keeps retransmitting installs until every
    // child member acked — even after our own install replaced the range.
    if (rc != reconfigs_.end() && rc->second.stage == Reconfig::Stage::kInstall) {
      if (now() - rc->second.last_driven >= CatsParams::kViewReconfigPeriodMs) {
        send_installs(rc->second);
        rc->second.last_driven = now();
      }
      continue;
    }
    const std::uint64_t target = cur.version + 1;
    std::vector<GroupView> want;
    const std::size_t rd = params_.replication_degree;
    if (ring.has_predecessor && in_interval_oo(cur.lo, cur.hi, ring.predecessor.key)) {
      // A node joined inside the range: split at the predecessor. The
      // predecessor heads the lower child; we keep the upper.
      const NodeRef& pred = ring.predecessor;
      want.push_back(GroupView{cur.lo, pred.key, target, ring.group_headed_by(pred, rd)});
      want.push_back(GroupView{pred.key, cur.hi, target, ring.group_headed_by(self_, rd)});
    } else {
      std::vector<NodeRef> desired = ring.group_headed_by(self_, rd);
      if (same_member_set(desired, cur.members)) {
        if (rc != reconfigs_.end() && rc->second.target == target) {
          // The ring flapped back to the current membership while a proposal
          // is in flight. Its Prepare may already have fenced acceptors, so
          // abandoning it would leave the range fenced with nobody driving
          // the decision that unfences it (observed as second-long
          // unavailability windows under failure-detector flapping). Keep
          // driving the existing goal to a decision; if the ring still
          // disagrees with the decided view afterwards, the next evaluation
          // proposes a correction. A proposal for an older version is not
          // resumed: another proposer's install of `cur` overtook it, and
          // its children carry a version no newer than `cur`, so deciding
          // them at `target` would install nothing and leave the range
          // fenced for good.
          want = rc->second.proposed;
        } else if (range->fenced &&
                   now() - range->fenced_at >= CatsParams::kViewReconfigPeriodMs) {
          // Fenced for a whole reconfiguration round with no local proposal:
          // a remote proposal stalled, or it decided and the install that
          // would supersede this range never reached us. Re-propose the
          // current membership at the next version — Paxos' adopt rule
          // completes the remote decision if any acceptor accepted one, and
          // either way the resulting install unfences the range.
          want.push_back(GroupView{cur.lo, cur.hi, target, std::move(desired)});
        } else {
          continue;  // view matches the ring; nothing to do
        }
      } else {
        want.push_back(GroupView{cur.lo, cur.hi, target, std::move(desired)});
      }
    }
    const bool same_goal =
        rc != reconfigs_.end() && rc->second.target == target &&
        rc->second.proposed.size() == want.size() &&
        std::equal(want.begin(), want.end(), rc->second.proposed.begin(),
                   [](const GroupView& a, const GroupView& b) {
                     return a.lo == b.lo && a.hi == b.hi && same_member_set(a.members, b.members);
                   });
    if (same_goal && now() - rc->second.last_driven < CatsParams::kViewReconfigPeriodMs) {
      continue;  // in flight; give it a tick before bumping the ballot
    }
    Reconfig fresh;
    fresh.target = target;
    fresh.parent = cur;
    fresh.proposed = std::move(want);
    if (rc != reconfigs_.end()) fresh.highest_rejection = rc->second.highest_rejection;
    fresh.ballot = Ballot{next_ballot_round(rc == reconfigs_.end() ? nullptr : &rc->second),
                          self_.key};
    reconfigs_[hi] = std::move(fresh);
    drive_reconfig(reconfigs_[hi]);
  }
}

void ConsistentABD::drive_reconfig(Reconfig& rec) {
  ++counters_.reconfigs_proposed;
  rec.last_driven = now();
  for (const auto& m : rec.parent.members) {
    trigger(make_event<ViewPrepareMsg>(self_.addr, m.addr, rec.parent.lo, rec.parent.hi,
                                       rec.target, rec.ballot),
            network_);
  }
}

std::vector<NodeRef> ConsistentABD::install_recipients(const Reconfig& rec,
                                                       const GroupView& child) const {
  std::vector<NodeRef> recipients = child.members;
  for (const auto& m : rec.parent.members) {
    const bool present = std::any_of(recipients.begin(), recipients.end(),
                                     [&](const NodeRef& n) { return n.addr == m.addr; });
    if (!present) recipients.push_back(m);
  }
  return recipients;
}

void ConsistentABD::send_installs(Reconfig& rec) {
  for (const auto& child : rec.children) {
    std::vector<KeyState> state;
    for (const auto& [k, rep] : rec.merged_state) {
      if (in_interval_oc(child.lo, child.hi, k)) state.push_back(KeyState{k, rep.tag, rep.value});
    }
    // Installs go to the old members too, not just the new ones: a member
    // evicted by this decision is fenced (it promised the decree) and stays
    // unavailable until it learns the view that superseded its own.
    for (const auto& m : install_recipients(rec, child)) {
      const auto acked = rec.install_acks.find(child.hi);
      const bool has_acked =
          acked != rec.install_acks.end() &&
          std::find(acked->second.begin(), acked->second.end(), m.addr) != acked->second.end();
      if (has_acked) continue;
      trigger(make_event<ViewInstallMsg>(self_.addr, m.addr, rec.parent.hi, child, state),
              network_);
    }
  }
}

void ConsistentABD::merge_promise_state(Reconfig& rec, const std::vector<KeyState>& state) {
  for (const auto& ks : state) merge_newer(rec.merged_state, ks.key, ks.tag, ks.value);
}

}  // namespace kompics::cats
