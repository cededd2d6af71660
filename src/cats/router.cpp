#include "cats/router.hpp"

#include <array>

namespace kompics::cats {

OneHopRouter::OneHopRouter() {
  register_cats_serializers();

  subscribe<Init>(control(), [this](const Init& init) {
    self_ = init.self;
    params_ = init.params;
  });

  subscribe<NodeSample>(sampling_, [this](const NodeSample& sample) {
    for (const auto& n : sample.nodes) learn(n);
  });

  subscribe<RingView>(ring_, [this](const RingView& view) {
    ring_view_ = view.neighborhood;
    self_ = ring_view_.self;
    if (ring_view_.has_predecessor) learn(ring_view_.predecessor);
    for (const auto& s : ring_view_.successors) learn(s);
  });

  // Mirror the local ABD's installed quorum views.
  subscribe<ViewUpdate>(quorum_views_, [this](const ViewUpdate& vu) {
    if (supersede(views_, vu.view, now())) {
      for (const auto& m : vu.view.members) learn(m);
    }
  });

  subscribe<LookupRequest>(router_, [this](const LookupRequest& req) {
    evict_stale();
    if (ring_view_.responsible_for(req.key)) {
      handle_lookup_at_responsible(self_, req.id, req.key);
      return;
    }
    auto hit = covering(learned_, req.key);
    if (hit != learned_.end() && req.fresh) {
      ++counters_.fresh_evictions;
      learned_.erase(hit);  // re-route; the answer refills the entry
    } else if (hit != learned_.end()) {
      // Safe however stale the entry is: an answer routed fresh is already
      // stale by the time the phase messages land, and the replica gate
      // (abd.cpp: version equal, unfenced, member) is what keeps quorums
      // consistent. A stale entry is nacked or times out, and the retry asks
      // fresh; the cache only lengthens a staleness the asynchronous model
      // already allows.
      ++counters_.lookups_cached;
      trigger(make_event<LookupResponse>(req.id, req.key, hit->second.view), router_);
      return;
    }
    protocol::spawn(relay_lookup(req.id, req.key, req.fresh));
  });

  subscribe<RouteLookupMsg>(network_, [this](const RouteLookupMsg& msg) {
    // Note: the origin is deliberately NOT learned here — a coordinator need
    // not be a ring member (ABD takes client operations before its node's
    // join completes, and after a partition cut it off), and routing to a
    // non-member can livelock a lookup for that node's own key.
    if (ring_view_.responsible_for(msg.key)) {
      handle_lookup_at_responsible(msg.origin, msg.op, msg.key);
      return;
    }
    // Intermediate hops always take the successor-side rule. With no closer
    // node to send it to, or its hop budget spent, the lookup is answered
    // empty at once: the origin re-asks instead of waiting out a timeout.
    if (msg.ttl == 0 || !forward(msg.origin, msg.op, msg.key, msg.ttl - 1, /*fresh=*/false)) {
      ++counters_.lookups_unroutable;
      answer(msg.origin, msg.op, msg.key, GroupView{});
    }
  });

  subscribe<StatusRequest>(status_, [this](const StatusRequest& req) {
    std::map<std::string, std::string> fields;
    fields["table_size"] = std::to_string(table_.size());
    fields["lookups_served"] = std::to_string(counters_.lookups_served);
    fields["lookups_forwarded"] = std::to_string(counters_.lookups_forwarded);
    fields["lookups_relayed"] = std::to_string(counters_.lookups_relayed);
    fields["lookups_unroutable"] = std::to_string(counters_.lookups_unroutable);
    fields["lookups_cached"] = std::to_string(counters_.lookups_cached);
    fields["views_cached"] = std::to_string(views_.size());
    fields["views_learned"] = std::to_string(counters_.views_learned);
    fields["fresh_evictions"] = std::to_string(counters_.fresh_evictions);
    trigger(make_event<StatusResponse>(req.id, "OneHopRouter", std::move(fields)), status_);
  });
}

protocol::Proto<void> OneHopRouter::relay_lookup(OpId op, RingKey key, bool fresh) {
  ++counters_.lookups_relayed;
  // Open the result stream BEFORE forwarding: a same-process responsible
  // node can answer inline.
  auto results = co_await network_.open<LookupResultMsg>(
      [op](const LookupResultMsg& m) { return m.op == op; });
  if (!forward(self_, op, key, kMaxHops, fresh)) {
    // Nowhere to route: answer with an empty group; the caller re-asks.
    ++counters_.lookups_unroutable;
    answer(self_, op, key, GroupView{});
    co_return;
  }
  auto got = co_await protocol::when_any(results.next(),
                                         protocol::sleep(timer_, params_.op_timeout_ms));
  if (got.index() == 1) co_return;  // no answer: the origin's deadline retries
  const LookupResultMsg& msg = *std::get<0>(got);
  for (const auto& n : msg.view.members) learn(n);
  // Unversioned (ring-successor) answers are never cached: no replica acks
  // phases under them, so they must be re-asked until a view is installed.
  // Bug emulation (params.hpp): the stale-view router had no cache, so
  // learned_ stays empty.
  if (msg.view.version != 0 && !params_.inject_stale_view_bug &&
      supersede(learned_, msg.view, now())) {
    ++counters_.views_learned;
  }
  trigger(make_event<LookupResponse>(msg.op, msg.key, msg.view), router_);
}

void OneHopRouter::learn(const NodeRef& n) {
  if (n.addr == self_.addr || !n.addr.valid()) return;
  Entry& e = table_[n.key];
  e.node = n;
  e.last_heard = now();
}

void OneHopRouter::evict_stale() {
  const TimeMs cutoff = now() - kEntryTtlMs;
  for (auto it = table_.begin(); it != table_.end();) {
    it = it->second.last_heard < cutoff ? table_.erase(it) : std::next(it);
  }
  for (auto it = learned_.begin(); it != learned_.end();) {
    it = it->second.since < cutoff ? learned_.erase(it) : std::next(it);
  }
}

namespace {
bool overlap(const GroupView& a, const GroupView& b) {
  // Two ring arcs intersect exactly when one contains the other's end.
  return a.covers(b.hi) || b.covers(a.hi);
}
}  // namespace

bool OneHopRouter::supersede(ViewMap& views, const GroupView& view, TimeMs at) {
  for (const auto& [hi, known] : views) {
    const GroupView& have = known.view;
    if (!overlap(have, view)) continue;
    const bool same_range = have.lo == view.lo && have.hi == view.hi;
    if (have.version > view.version || (have.version == view.version && !same_range)) {
      return false;
    }
  }
  for (auto it = views.begin(); it != views.end();) {
    it = overlap(it->second.view, view) ? views.erase(it) : std::next(it);
  }
  views.emplace(view.hi, KnownView{view, at});
  return true;
}

OneHopRouter::ViewMap::iterator OneHopRouter::covering(ViewMap& views, RingKey key) {
  // Entries are disjoint, so the only candidate is the first one ending at
  // or after the key, or else the first one overall (a range that wraps
  // past zero, or the full ring).
  auto it = views.lower_bound(key);
  if (it == views.end()) it = views.begin();
  return it != views.end() && it->second.view.covers(key) ? it : views.end();
}

GroupView OneHopRouter::authoritative_view(RingKey key) {
  // Bug emulation (params.hpp): the pre-consistent-quorums router answered
  // lookups from the raw ring neighborhood, never from installed views.
  if (!params_.inject_stale_view_bug) {
    auto it = covering(views_, key);
    if (it != views_.end()) return it->second.view;
  }
  const RingNeighborhood& v = ring_view_;
  return GroupView{v.has_predecessor ? v.predecessor.key : self_.key, self_.key, 0,
                   v.group_headed_by(self_, params_.replication_degree)};
}

std::vector<std::string> OneHopRouter::invariant_violations() const {
  std::vector<std::string> out;
  // Routing-table sanity: every entry must be keyed by its node's own ring
  // key, carry a routable address, and never describe this node itself
  // (learn() filters all three; an entry violating them would forward
  // lookups to the wrong place or loop them back here forever).
  for (const auto& [k, e] : table_) {
    if (e.node.key != k) {
      out.push_back("router: table entry keyed " + std::to_string(k) +
                    " holds node with key " + std::to_string(e.node.key));
    }
    if (!e.node.addr.valid()) {
      out.push_back("router: table entry " + std::to_string(k) + " has an invalid address");
    }
    if (e.node.addr == self_.addr) {
      out.push_back("router: table contains this node itself (key " + std::to_string(k) + ")");
    }
  }
  // Installed and learned views must each be pairwise disjoint: overlapping
  // entries would let two lookups for the same key resolve to different
  // replica groups (split-brain at the routing layer), and covering() relies
  // on it.
  auto check_disjoint = [&out](const ViewMap& views, const char* what) {
    for (auto a = views.begin(); a != views.end(); ++a) {
      for (auto b = std::next(a); b != views.end(); ++b) {
        const GroupView& x = a->second.view;
        const GroupView& y = b->second.view;
        if (!overlap(x, y)) continue;
        out.push_back(std::string("router: ") + what + " views overlap: (" +
                      std::to_string(x.lo) + ", " + std::to_string(x.hi) + "]@v" +
                      std::to_string(x.version) + " and (" + std::to_string(y.lo) + ", " +
                      std::to_string(y.hi) + "]@v" + std::to_string(y.version));
      }
    }
  };
  check_disjoint(views_, "installed");
  check_disjoint(learned_, "learned");
  return out;
}

std::optional<NodeRef> OneHopRouter::next_hop(RingKey key, bool fresh) {
  // Our ring view decides the arc its successor list covers: a key up to
  // our last successor goes to the first successor at or after it. The
  // failure detector drops a dead successor from that list within seconds,
  // while its table entries live on until Cyclon and the TTL forget it.
  for (const auto& s : ring_view_.successors) {
    if (s.addr != self_.addr && in_interval_oc(self_.key, s.key, key)) return s;
  }
  const TimeMs cutoff = now() - kEntryTtlMs;
  if (fresh) {
    // A retry picks randomly among the three closest live entries preceding
    // the key, in (self, key]: each attempt can leave through a different
    // node, so a stale entry for a dead successor cannot black-hole them all.
    std::array<NodeRef, 3> pool;
    std::size_t n = 0;
    auto it = table_.upper_bound(key);
    for (std::size_t seen = 0; seen < table_.size() && n < pool.size(); ++seen) {
      if (it == table_.begin()) it = table_.end();
      --it;
      if (!in_interval_oc(self_.key, key, it->first)) break;
      if (it->second.last_heard >= cutoff) pool[n++] = it->second.node;
    }
    if (n > 0) return pool[rng().next_below(n)];
    // Nothing live precedes the key: leave through the ring successor.
    for (const auto& s : ring_view_.successors) {
      if (s.addr != self_.addr) return s;
    }
    return std::nullopt;
  }
  // Elsewhere, the candidate nearest the key going clockwise from it, and
  // only one strictly nearer than this node (that is what bounds the walk):
  // the first live table entry at or after the key, or our predecessor.
  std::optional<NodeRef> best;
  std::uint64_t best_dist = ring_distance(key, self_.key);
  auto consider = [&](const NodeRef& node) {
    const std::uint64_t dist = ring_distance(key, node.key);
    if (dist < best_dist && node.addr != self_.addr && node.addr.valid()) {
      best_dist = dist;
      best = node;
    }
  };
  auto it = table_.lower_bound(key);
  for (std::size_t seen = 0; seen < table_.size(); ++seen, ++it) {
    if (it == table_.end()) it = table_.begin();
    if (it->second.last_heard >= cutoff) {
      consider(it->second.node);
      break;
    }
  }
  if (ring_view_.has_predecessor) consider(ring_view_.predecessor);
  return best;
}

bool OneHopRouter::forward(const NodeRef& origin, OpId op, RingKey key, std::uint32_t ttl,
                           bool fresh) {
  const std::optional<NodeRef> hop = next_hop(key, fresh);
  if (!hop) return false;
  ++counters_.lookups_forwarded;
  trigger(make_event<RouteLookupMsg>(self_.addr, hop->addr, origin, op, key, ttl), network_);
  return true;
}

void OneHopRouter::answer(const NodeRef& origin, OpId op, RingKey key, GroupView view) {
  if (origin.addr == self_.addr) {
    trigger(make_event<LookupResponse>(op, key, std::move(view)), router_);
  } else {
    trigger(make_event<LookupResultMsg>(self_.addr, origin.addr, op, key, std::move(view)),
            network_);
  }
}

void OneHopRouter::handle_lookup_at_responsible(const NodeRef& origin, OpId op, RingKey key) {
  ++counters_.lookups_served;
  answer(origin, op, key, authoritative_view(key));
}

}  // namespace kompics::cats
