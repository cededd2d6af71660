// Unit tests of ViewTable, the one supersede rule for consistent-quorum
// views shared by ConsistentABD's installed ranges and the OneHopRouter's
// installed and learned views: a newer view replaces every older view it
// overlaps, an older view or a same-version view over another range is
// refused, an identical view is reported as "same" and changes nothing, and
// the covering lookup works across the zero wrap and for the full ring.

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "cats/view_table.hpp"

namespace kompics::cats::test {
namespace {

struct Tag {
  int id = 0;
};
using Table = ViewTable<Tag>;

GroupView view(RingKey lo, RingKey hi, std::uint64_t version) {
  return GroupView{lo, hi, version, {NodeRef{hi, Address::node(1)}}};
}

std::vector<std::string> violations(const Table& t) {
  std::vector<std::string> out;
  t.check_disjoint("test", out);
  return out;
}

TEST(ViewTable, NewerViewReplacesTheOlderViewsItOverlaps) {
  Table t;
  ASSERT_EQ(t.supersede(view(0, 50, 3), Tag{1}), Supersede::kStored);
  ASSERT_EQ(t.supersede(view(50, 100, 4), Tag{2}), Supersede::kStored);
  ASSERT_EQ(t.supersede(view(100, 200, 2), Tag{3}), Supersede::kStored);
  // (40, 150]@v5 overlaps all three, each at a lower version.
  std::vector<RingKey> dropped;
  EXPECT_EQ(t.supersede(view(40, 150, 5), Tag{4},
                        [&](const GroupView& old) { dropped.push_back(old.hi); }),
            Supersede::kStored);
  EXPECT_EQ(dropped, (std::vector<RingKey>{50, 100, 200}));
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t.covering(120)->view.version, 5u);
  EXPECT_EQ(t.covering(120)->id, 4);
  EXPECT_EQ(t.covering(30), nullptr);

  // A split child replaces its parent and leaves the rest alone.
  ASSERT_EQ(t.supersede(view(150, 300, 1), Tag{5}), Supersede::kStored);
  dropped.clear();
  EXPECT_EQ(t.supersede(view(40, 90, 6), Tag{6},
                        [&](const GroupView& old) { dropped.push_back(old.hi); }),
            Supersede::kStored);
  EXPECT_EQ(dropped, (std::vector<RingKey>{150}));
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.covering(120), nullptr) << "the parent's other half is gone with it";
  EXPECT_TRUE(violations(t).empty());
}

TEST(ViewTable, OlderViewIsRefused) {
  // A stale parent must not sit next to its newer child: it would keep
  // answering for the child's range and for the rest of its own.
  Table t;
  ASSERT_EQ(t.supersede(view(50, 80, 5), Tag{1}), Supersede::kStored);
  bool dropped = false;
  EXPECT_EQ(t.supersede(view(50, 100, 4), Tag{2}, [&](const GroupView&) { dropped = true; }),
            Supersede::kRefused);
  EXPECT_FALSE(dropped);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.covering(90), nullptr);
  EXPECT_EQ(t.covering(70)->view.version, 5u);
  // Also the other way round: an older child of a newer parent.
  EXPECT_EQ(t.supersede(view(60, 70, 2), Tag{3}), Supersede::kRefused);
  EXPECT_EQ(t.find(70), nullptr);
  EXPECT_TRUE(violations(t).empty());
}

TEST(ViewTable, SameVersionOverADifferentRangeIsRefused) {
  Table t;
  ASSERT_EQ(t.supersede(view(50, 100, 5), Tag{1}), Supersede::kStored);
  EXPECT_EQ(t.supersede(view(50, 80, 5), Tag{2}), Supersede::kRefused);
  EXPECT_EQ(t.supersede(view(80, 120, 5), Tag{3}), Supersede::kRefused);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t.find(100)->id, 1);
}

TEST(ViewTable, IdenticalViewIsReportedSameAndChangesNothing) {
  Table t;
  ASSERT_EQ(t.supersede(view(50, 100, 5), Tag{1}), Supersede::kStored);
  bool dropped = false;
  EXPECT_EQ(t.supersede(view(50, 100, 5), Tag{2}, [&](const GroupView&) { dropped = true; }),
            Supersede::kSame);
  EXPECT_FALSE(dropped);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t.find(100)->id, 1) << "the held entry keeps its own state";
  // The same range at a newer version is a member change: it replaces.
  EXPECT_EQ(t.supersede(view(50, 100, 6), Tag{3}), Supersede::kStored);
  EXPECT_EQ(t.find(100)->id, 3);
}

TEST(ViewTable, CoveringWorksAcrossTheZeroWrap) {
  constexpr RingKey kMax = std::numeric_limits<RingKey>::max();
  Table t;
  ASSERT_EQ(t.supersede(view(kMax - 10, 10, 1), Tag{1}), Supersede::kStored);
  ASSERT_EQ(t.supersede(view(10, 100, 1), Tag{2}), Supersede::kStored);
  ASSERT_EQ(t.supersede(view(200, 300, 1), Tag{3}), Supersede::kStored);
  EXPECT_EQ(t.covering(kMax)->id, 1);
  EXPECT_EQ(t.covering(kMax - 9)->id, 1);
  EXPECT_EQ(t.covering(0)->id, 1);
  EXPECT_EQ(t.covering(10)->id, 1);
  EXPECT_EQ(t.covering(11)->id, 2);
  EXPECT_EQ(t.covering(100)->id, 2);
  EXPECT_EQ(t.covering(150), nullptr);
  EXPECT_EQ(t.covering(250)->id, 3);
  EXPECT_EQ(t.covering(kMax - 10), nullptr);
  // A wrapped view overlaps a range on either side of zero.
  EXPECT_EQ(t.supersede(view(5, 20, 1), Tag{4}), Supersede::kRefused);
  EXPECT_EQ(t.supersede(view(kMax - 20, kMax - 5, 1), Tag{5}), Supersede::kRefused);
  EXPECT_TRUE(violations(t).empty());
}

TEST(ViewTable, CoveringWorksForTheFullRing) {
  Table t;
  ASSERT_EQ(t.supersede(view(42, 42, 1), Tag{1}), Supersede::kStored);
  EXPECT_EQ(t.covering(0)->id, 1);
  EXPECT_EQ(t.covering(42)->id, 1);
  EXPECT_EQ(t.covering(43)->id, 1);
  EXPECT_EQ(t.covering(std::numeric_limits<RingKey>::max())->id, 1);
  // The genesis view overlaps everything: an older view anywhere is refused,
  // and its split children replace it.
  EXPECT_EQ(t.supersede(view(100, 200, 0), Tag{2}), Supersede::kRefused);
  ASSERT_EQ(t.supersede(view(42, 7, 2), Tag{3}), Supersede::kStored);
  ASSERT_EQ(t.supersede(view(7, 42, 2), Tag{4}), Supersede::kStored);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.covering(5)->id, 3);
  EXPECT_EQ(t.covering(8)->id, 4);
  EXPECT_EQ(t.covering(43)->id, 3);
  EXPECT_TRUE(violations(t).empty());
}

}  // namespace
}  // namespace kompics::cats::test
