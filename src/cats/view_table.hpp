#pragma once

// The one rule for which consistent-quorum view supersedes which. CATS stays
// linearizable through reconfiguration only while each node's views are
// pairwise disjoint (DESIGN.md §2.8); `supersede`, the only way into a
// ViewTable, keeps them so. ABD's and the router's views are ViewTables.

#include <map>
#include <string>
#include <vector>

#include "cats/ports.hpp"

namespace kompics::cats {

enum class Supersede {
  kStored,   ///< stored, after dropping every overlapping (older) view
  kSame,     ///< the identical view (same range and version) is held; nothing changed
  kRefused,  ///< an overlapping view is newer, or has the same version over another range
};

/// Views keyed by `hi`, pairwise disjoint. Each entry carries its owner's
/// per-view state: `Extra` is a base of `Entry`, so its fields read directly.
template <class Extra>
class ViewTable {
 public:
  struct Entry : Extra {
    GroupView view;
  };

  auto begin() const { return map_.begin(); }
  auto end() const { return map_.end(); }
  std::size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void erase(RingKey hi) { map_.erase(hi); }
  template <class Pred>
  void erase_if(Pred pred) {
    std::erase_if(map_, [&pred](const auto& kv) { return pred(kv.second); });
  }

  Entry* find(RingKey hi) {
    auto it = map_.find(hi);
    return it == map_.end() ? nullptr : &it->second;
  }

  /// The entry covering `key`: only the first one ending at or after the key
  /// can, or else the first one (a range wrapping past zero, or the full ring).
  const Entry* covering(RingKey key) const {
    auto it = map_.lower_bound(key);
    if (it == map_.end()) it = map_.begin();
    return it != map_.end() && it->second.view.covers(key) ? &it->second : nullptr;
  }

  /// Stores `view` unless an overlapping view is newer or has the same version
  /// over another range. It replaces every (older) view it overlaps: the same
  /// range before a member change, or the parent of a split; each goes to
  /// `on_drop` first.
  template <class OnDrop = void (*)(const GroupView&)>
  Supersede supersede(const GroupView& view, Extra extra,
                      OnDrop on_drop = [](const GroupView&) {}) {
    for (const auto& [hi, have] : map_) {
      if (!have.view.overlaps(view)) continue;
      const bool same_range = have.view.lo == view.lo && have.view.hi == view.hi;
      if (same_range && have.view.version == view.version) return Supersede::kSame;
      if (have.view.version >= view.version) return Supersede::kRefused;
    }
    std::erase_if(map_, [&](const auto& kv) {
      if (!kv.second.view.overlaps(view)) return false;
      on_drop(kv.second.view);
      return true;
    });
    map_.emplace(view.hi, Entry{std::move(extra), view});
    return Supersede::kStored;
  }

  /// The disjointness invariant: one line per pair of overlapping entries.
  void check_disjoint(const std::string& owner, std::vector<std::string>& out) const {
    auto str = [](const GroupView& v) {
      return "(" + std::to_string(v.lo) + ", " + std::to_string(v.hi) + "]@v" +
             std::to_string(v.version);
    };
    for (auto a = map_.begin(); a != map_.end(); ++a) {
      for (auto b = std::next(a); b != map_.end(); ++b) {
        if (!a->second.view.overlaps(b->second.view)) continue;
        out.push_back(owner + " views overlap: " + str(a->second.view) + " and " +
                      str(b->second.view));
      }
    }
  }

 private:
  std::map<RingKey, Entry> map_;  // keyed by view.hi
};

}  // namespace kompics::cats
