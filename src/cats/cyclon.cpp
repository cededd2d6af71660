#include "cats/cyclon.hpp"

#include <algorithm>

namespace kompics::cats {

CyclonOverlay::CyclonOverlay() {
  register_cats_serializers();

  subscribe<Init>(control(), [this](const Init& init) {
    self_ = init.self;
    params_ = init.params;
  });

  subscribe<Start>(control(), [this](const Start&) {
    trigger(timing::schedule_periodic<ShuffleRound>(params_.shuffle_period_ms,
                                                    params_.shuffle_period_ms),
            timer_);
  });

  subscribe<SamplingSeed>(sampling_, [this](const SamplingSeed& seed) {
    self_ = seed.self;
    for (const auto& c : seed.contacts) {
      if (c.addr != self_.addr && !known(c.addr) && cache_.size() < params_.cyclon_cache_size) {
        cache_.push_back(CyclonEntry{c, 0});
      }
    }
    publish_sample();
  });

  subscribe<ShuffleRound>(timer_, [this](const ShuffleRound&) { on_shuffle_round(); });

  subscribe<ShuffleRequestMsg>(network_, [this](const ShuffleRequestMsg& req) {
    // Passive shuffle: answer with a random subset (not including self —
    // the requester obviously knows us) and merge the received entries.
    auto reply_entries = select_subset(params_.cyclon_shuffle_length, /*include_self=*/false);
    trigger(make_event<ShuffleResponseMsg>(self_.addr, req.source(), reply_entries), network_);
    merge(req.entries, reply_entries);
    publish_sample();
  });

  subscribe<ShuffleResponseMsg>(network_, [this](const ShuffleResponseMsg& resp) {
    if (resp.source() != shuffle_target_) return;  // stale response
    shuffle_target_ = Address{};
    merge(resp.entries, last_sent_);
    // The target answered, so it is alive: re-admit it with age 0 if there
    // is room. Without this, sparse caches (fresh joiners, tiny overlays)
    // can lose their last edge and disconnect.
    if (!known(target_entry_.node.addr) && target_entry_.node.addr.valid() &&
        cache_.size() < params_.cyclon_cache_size) {
      cache_.push_back(CyclonEntry{target_entry_.node, 0});
    }
    target_entry_ = CyclonEntry{};
    last_sent_.clear();
    publish_sample();
  });

  subscribe<StatusRequest>(status_, [this](const StatusRequest& req) {
    std::map<std::string, std::string> fields;
    fields["cache_size"] = std::to_string(cache_.size());
    fields["shuffles_total"] = std::to_string(shuffles_);
    trigger(make_event<StatusResponse>(req.id, "CyclonOverlay", std::move(fields)), status_);
  });
}

bool CyclonOverlay::known(const Address& a) const {
  return std::any_of(cache_.begin(), cache_.end(),
                     [&a](const CyclonEntry& e) { return e.node.addr == a; });
}

void CyclonOverlay::on_shuffle_round() {
  ++shuffles_;
  if (cache_.empty()) return;
  // Age all entries; purge those past the age cap (dead-descriptor bound);
  // pick the oldest survivor as the shuffle target and remove it (it is
  // replaced by the target's answer — Cyclon's implicit eviction of dead
  // peers).
  for (auto& e : cache_) ++e.age;
  cache_.erase(std::remove_if(cache_.begin(), cache_.end(),
                              [](const CyclonEntry& e) {
                                return e.age > CatsParams::kCyclonMaxAge;
                              }),
               cache_.end());
  if (cache_.empty()) return;
  std::size_t oldest = 0;
  for (std::size_t i = 0; i < cache_.size(); ++i) {
    if (cache_[i].age > cache_[oldest].age) oldest = i;
  }
  const NodeRef target = cache_[oldest].node;
  target_entry_ = cache_[oldest];
  cache_.erase(cache_.begin() + static_cast<long>(oldest));

  auto to_send = select_subset(params_.cyclon_shuffle_length - 1, /*include_self=*/true);
  shuffle_target_ = target.addr;
  last_sent_ = to_send;
  trigger(make_event<ShuffleRequestMsg>(self_.addr, target.addr, std::move(to_send)), network_);
}

std::vector<CyclonEntry> CyclonOverlay::select_subset(std::size_t n, bool include_self) {
  std::vector<CyclonEntry> out;
  if (include_self) out.push_back(CyclonEntry{self_, 0});
  // Random sample without replacement from the cache.
  std::vector<std::size_t> idx(cache_.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  for (std::size_t i = 0; i < idx.size() && out.size() < n + (include_self ? 1u : 0u); ++i) {
    const std::size_t j = i + rng().next_below(idx.size() - i);
    std::swap(idx[i], idx[j]);
    out.push_back(cache_[idx[i]]);
  }
  return out;
}

void CyclonOverlay::merge(const std::vector<CyclonEntry>& received,
                          const std::vector<CyclonEntry>& sent) {
  for (const auto& e : received) {
    if (e.node.addr == self_.addr || known(e.node.addr)) continue;
    if (cache_.size() < params_.cyclon_cache_size) {
      cache_.push_back(e);
      continue;
    }
    // Cache full: replace one of the entries we shipped to the peer.
    bool replaced = false;
    for (auto& mine : cache_) {
      const bool was_sent = std::any_of(sent.begin(), sent.end(), [&](const CyclonEntry& s) {
        return s.node.addr == mine.node.addr;
      });
      if (was_sent) {
        mine = e;
        replaced = true;
        break;
      }
    }
    if (!replaced) {
      // Fall back to replacing the oldest entry.
      auto oldest = std::max_element(
          cache_.begin(), cache_.end(),
          [](const CyclonEntry& a, const CyclonEntry& b) { return a.age < b.age; });
      *oldest = e;
    }
  }
}

void CyclonOverlay::publish_sample() {
  std::vector<NodeRef> nodes;
  nodes.reserve(cache_.size());
  for (const auto& e : cache_) nodes.push_back(e.node);
  trigger(make_event<NodeSample>(std::move(nodes)), sampling_);
}

}  // namespace kompics::cats
