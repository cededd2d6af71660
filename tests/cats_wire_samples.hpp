#pragma once

// One sample message per CATS wire id, each with its expected encoding.
//
// Within a sample every field holds a value no other field of that sample
// holds (two bools are true/false, two vectors differ in length), so a
// codec that writes or reads two same-typed fields in swapped order fails
// both the hex comparison and the field-by-field comparison. Integral
// fields mix one-byte and multi-byte varints; fixed-width fields carry
// values whose byte order is visible in the hex.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cats/messages.hpp"
#include "net/serialization.hpp"

namespace kompics::cats::wire_samples {

using net::Address;
using net::MessagePtr;

struct Sample {
  std::string name;
  std::uint64_t wire_id;
  MessagePtr msg;
  std::string hex;  ///< expected `SerializationRegistry::serialize` output
  std::function<void(const Message&)> expect_same;  ///< compares a decoded copy
};

inline const Address kSrc{0x0a000001u, 7001};
inline const Address kDst{0x0a000002u, 7002};

inline NodeRef node(RingKey key, std::uint32_t host, std::uint16_t port) {
  return NodeRef{key, Address{host, port}};
}

// ---- field comparisons -------------------------------------------------------

inline void expect_eq(const NodeRef& a, const NodeRef& b) {
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.addr, b.addr);
}
inline void expect_eq(const VersionTag& a, const VersionTag& b) {
  EXPECT_EQ(a.counter, b.counter);
  EXPECT_EQ(a.writer, b.writer);
}
inline void expect_eq(const Ballot& a, const Ballot& b) {
  EXPECT_EQ(a.round, b.round);
  EXPECT_EQ(a.proposer, b.proposer);
}
inline void expect_eq(const CyclonEntry& a, const CyclonEntry& b) {
  expect_eq(a.node, b.node);
  EXPECT_EQ(a.age, b.age);
}
inline void expect_eq(const GroupView& a, const GroupView& b);
inline void expect_eq(const KeyState& a, const KeyState& b) {
  EXPECT_EQ(a.key, b.key);
  expect_eq(a.tag, b.tag);
  EXPECT_EQ(a.value, b.value);
}
template <class T>
void expect_eq(const std::vector<T>& a, const std::vector<T>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect_eq(a[i], b[i]);
}
inline void expect_eq(const GroupView& a, const GroupView& b) {
  EXPECT_EQ(a.lo, b.lo);
  EXPECT_EQ(a.hi, b.hi);
  EXPECT_EQ(a.version, b.version);
  expect_eq(a.members, b.members);
}

inline void expect_same(const PingMsg& a, const PingMsg& b) { EXPECT_EQ(a.seq, b.seq); }
inline void expect_same(const PongMsg& a, const PongMsg& b) { EXPECT_EQ(a.seq, b.seq); }
inline void expect_same(const ShuffleRequestMsg& a, const ShuffleRequestMsg& b) {
  expect_eq(a.entries, b.entries);
}
inline void expect_same(const ShuffleResponseMsg& a, const ShuffleResponseMsg& b) {
  expect_eq(a.entries, b.entries);
}
inline void expect_same(const FindSuccessorMsg& a, const FindSuccessorMsg& b) {
  expect_eq(a.joiner, b.joiner);
  EXPECT_EQ(a.target, b.target);
  EXPECT_EQ(a.hops_left, b.hops_left);
}
inline void expect_same(const FoundSuccessorMsg& a, const FoundSuccessorMsg& b) {
  expect_eq(a.successor, b.successor);
  expect_eq(a.successor_list, b.successor_list);
}
inline void expect_same(const GetRingStateMsg& a, const GetRingStateMsg& b) {
  expect_eq(a.from, b.from);
}
inline void expect_same(const RingStateMsg& a, const RingStateMsg& b) {
  expect_eq(a.self, b.self);
  EXPECT_EQ(a.has_pred, b.has_pred);
  expect_eq(a.pred, b.pred);
  expect_eq(a.succs, b.succs);
}
inline void expect_same(const NotifyMsg& a, const NotifyMsg& b) { expect_eq(a.from, b.from); }
inline void expect_same(const AbdReadMsg& a, const AbdReadMsg& b) {
  EXPECT_EQ(a.op, b.op);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.view, b.view);
}
inline void expect_same(const AbdReadAckMsg& a, const AbdReadAckMsg& b) {
  EXPECT_EQ(a.op, b.op);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.view, b.view);
  expect_eq(a.tag, b.tag);
  EXPECT_EQ(a.exists, b.exists);
  EXPECT_EQ(a.value, b.value);
}
inline void expect_same(const AbdWriteMsg& a, const AbdWriteMsg& b) {
  EXPECT_EQ(a.op, b.op);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.view, b.view);
  expect_eq(a.tag, b.tag);
  EXPECT_EQ(a.exists, b.exists);
  EXPECT_EQ(a.value, b.value);
}
inline void expect_same(const AbdWriteAckMsg& a, const AbdWriteAckMsg& b) {
  EXPECT_EQ(a.op, b.op);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.view, b.view);
}
inline void expect_same(const AbdNackMsg& a, const AbdNackMsg& b) {
  EXPECT_EQ(a.op, b.op);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.current_version, b.current_version);
}
inline void expect_same(const ViewPrepareMsg& a, const ViewPrepareMsg& b) {
  EXPECT_EQ(a.range_lo, b.range_lo);
  EXPECT_EQ(a.range_hi, b.range_hi);
  EXPECT_EQ(a.target, b.target);
  expect_eq(a.ballot, b.ballot);
}
inline void expect_same(const ViewPromiseMsg& a, const ViewPromiseMsg& b) {
  EXPECT_EQ(a.range_hi, b.range_hi);
  EXPECT_EQ(a.target, b.target);
  expect_eq(a.ballot, b.ballot);
  EXPECT_EQ(a.ok, b.ok);
  expect_eq(a.promised, b.promised);
  EXPECT_EQ(a.has_accepted, b.has_accepted);
  expect_eq(a.accepted_ballot, b.accepted_ballot);
  expect_eq(a.accepted_children, b.accepted_children);
  expect_eq(a.catchup, b.catchup);
  expect_eq(a.state, b.state);
}
inline void expect_same(const ViewAcceptMsg& a, const ViewAcceptMsg& b) {
  EXPECT_EQ(a.range_lo, b.range_lo);
  EXPECT_EQ(a.range_hi, b.range_hi);
  EXPECT_EQ(a.target, b.target);
  expect_eq(a.ballot, b.ballot);
  expect_eq(a.children, b.children);
}
inline void expect_same(const ViewAcceptedMsg& a, const ViewAcceptedMsg& b) {
  EXPECT_EQ(a.range_hi, b.range_hi);
  EXPECT_EQ(a.target, b.target);
  expect_eq(a.ballot, b.ballot);
  EXPECT_EQ(a.ok, b.ok);
}
inline void expect_same(const ViewInstallMsg& a, const ViewInstallMsg& b) {
  EXPECT_EQ(a.parent_hi, b.parent_hi);
  expect_eq(a.child, b.child);
  expect_eq(a.state, b.state);
}
inline void expect_same(const ViewInstallAckMsg& a, const ViewInstallAckMsg& b) {
  EXPECT_EQ(a.parent_hi, b.parent_hi);
  EXPECT_EQ(a.child_hi, b.child_hi);
  EXPECT_EQ(a.version, b.version);
}
inline void expect_same(const ViewFetchMsg& a, const ViewFetchMsg& b) {
  EXPECT_EQ(a.lo, b.lo);
  EXPECT_EQ(a.hi, b.hi);
}
inline void expect_same(const RouteLookupMsg& a, const RouteLookupMsg& b) {
  expect_eq(a.origin, b.origin);
  EXPECT_EQ(a.op, b.op);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.ttl, b.ttl);
}
inline void expect_same(const LookupResultMsg& a, const LookupResultMsg& b) {
  EXPECT_EQ(a.op, b.op);
  EXPECT_EQ(a.key, b.key);
  expect_eq(a.view, b.view);
}
inline void expect_same(const BootstrapRequestMsg& a, const BootstrapRequestMsg& b) {
  expect_eq(a.self, b.self);
}
inline void expect_same(const BootstrapResponseMsg& a, const BootstrapResponseMsg& b) {
  expect_eq(a.peers, b.peers);
}
inline void expect_same(const KeepAliveMsg& a, const KeepAliveMsg& b) {
  expect_eq(a.self, b.self);
}
inline void expect_same(const StatusReportMsg& a, const StatusReportMsg& b) {
  expect_eq(a.node, b.node);
  EXPECT_EQ(a.fields, b.fields);
}

template <class T>
Sample sample(std::string name, std::uint64_t wire_id, T msg, std::string hex) {
  auto original = std::make_shared<const T>(std::move(msg));
  auto check = [original](const Message& decoded) {
    const auto* back = dynamic_cast<const T*>(&decoded);
    ASSERT_NE(back, nullptr) << "decoded to another type";
    EXPECT_EQ(back->source(), original->source());
    EXPECT_EQ(back->destination(), original->destination());
    expect_same(*original, *back);
  };
  return Sample{std::move(name), wire_id, original, std::move(hex), check};
}

// ---- the samples ---------------------------------------------------------------

inline std::vector<Sample> all_samples() {
  register_cats_serializers();
  const GroupView view_a{0x1000000000000001ull, 0x1000000000000002ull, 301,
                         {node(0x2000000000000001ull, 0xc0a80001u, 4001),
                          node(0x2000000000000002ull, 0xc0a80002u, 4002)}};
  const GroupView view_b{0x1000000000000003ull, 0x1000000000000004ull, 5,
                         {node(0x2000000000000003ull, 0xc0a80003u, 4003)}};
  const GroupView view_c{0x1000000000000005ull, 0x1000000000000006ull, 70000, {}};
  const KeyState state_a{0x3000000000000001ull, VersionTag{902, 0x4000000000000001ull},
                         Value{0xde, 0xad}};
  const KeyState state_b{0x3000000000000002ull, VersionTag{3, 0x4000000000000002ull},
                         Value{}};

  std::vector<Sample> s;
  s.push_back(sample("PingMsg", 100, PingMsg(kSrc, kDst, 300), "640100000a591b0200000a5a1bac02"));
  s.push_back(sample("PongMsg", 101, PongMsg(kSrc, kDst, 70001),
                     "650100000a591b0200000a5a1bf1a204"));
  s.push_back(sample("ShuffleRequestMsg", 102,
                     ShuffleRequestMsg(kSrc, kDst,
                                       {CyclonEntry{node(0x11, 0x01020304u, 11), 7},
                                        CyclonEntry{node(0x12, 0x01020305u, 12), 200}}),
                     "660100000a591b0200000a5a1b021100000000000000040302010b0007120000"
                     "0000000000050302010c00c801"));
  s.push_back(sample("ShuffleResponseMsg", 103,
                     ShuffleResponseMsg(kSrc, kDst, {CyclonEntry{node(0x13, 0x01020306u, 13), 9}}),
                     "670100000a591b0200000a5a1b011300000000000000060302010d0009"));
  s.push_back(sample("FindSuccessorMsg", 104,
                     FindSuccessorMsg(kSrc, kDst, node(0x0102030405060708ull, 0x0a0b0c0du, 14),
                                      0x1122334455667788ull, 0x00aa00bbu),
                     "680100000a591b0200000a5a1b08070605040302010d0c0b0a0e008877665544"
                     "332211bb00aa00"));
  s.push_back(sample("FoundSuccessorMsg", 105,
                     FoundSuccessorMsg(kSrc, kDst, node(0x21, 0x05060708u, 21),
                                       {node(0x22, 0x05060709u, 22), node(0x23, 0x0506070au, 23)}),
                     "690100000a591b0200000a5a1b21000000000000000807060515000222000000"
                     "0000000009070605160023000000000000000a0706051700"));
  s.push_back(sample("GetRingStateMsg", 106,
                     GetRingStateMsg(kSrc, kDst, node(0x24, 0x0506070bu, 24)),
                     "6a0100000a591b0200000a5a1b24000000000000000b0706051800"));
  s.push_back(sample("RingStateMsg", 107,
                     RingStateMsg(kSrc, kDst, node(0x25, 0x0506070cu, 25), true,
                                  node(0x26, 0x0506070du, 26),
                                  {node(0x27, 0x0506070eu, 27)}),
                     "6b0100000a591b0200000a5a1b25000000000000000c07060519000126000000"
                     "000000000d0706051a000127000000000000000e0706051b00"));
  s.push_back(sample("NotifyMsg", 108, NotifyMsg(kSrc, kDst, node(0x28, 0x0506070fu, 28)),
                     "6c0100000a591b0200000a5a1b28000000000000000f0706051c00"));
  s.push_back(sample("AbdReadMsg", 110, AbdReadMsg(kSrc, kDst, 1001, 0x5000000000000001ull, 42),
                     "6e0100000a591b0200000a5a1be90701000000000000502a"));
  s.push_back(sample("AbdReadAckMsg", 111,
                     AbdReadAckMsg(kSrc, kDst, 1002, 0x5000000000000002ull, 43,
                                   VersionTag{129, 0x6000000000000001ull}, true,
                                   Value{0x01, 0x02, 0x03}),
                     "6f0100000a591b0200000a5a1bea0702000000000000502b8101010000000000"
                     "00600103010203"));
  s.push_back(sample("AbdWriteMsg", 112,
                     AbdWriteMsg(kSrc, kDst, 1003, 0x5000000000000003ull, 44,
                                 VersionTag{130, 0x6000000000000002ull}, false, Value{0x04}),
                     "700100000a591b0200000a5a1beb0703000000000000502c8201020000000000"
                     "0060000104"));
  s.push_back(sample("AbdWriteAckMsg", 113,
                     AbdWriteAckMsg(kSrc, kDst, 1004, 0x5000000000000004ull, 45),
                     "710100000a591b0200000a5a1bec0704000000000000502d"));
  s.push_back(sample("AbdNackMsg", 114, AbdNackMsg(kSrc, kDst, 1005, 0x5000000000000005ull, 46),
                     "720100000a591b0200000a5a1bed0705000000000000502e"));
  s.push_back(sample("ViewPrepareMsg", 115,
                     ViewPrepareMsg(kSrc, kDst, 0x7000000000000001ull, 0x7000000000000002ull, 47,
                                    Ballot{48, 0x8000000000000001ull}),
                     "730100000a591b0200000a5a1b010000000000007002000000000000702f3001"
                     "00000000000080"));
  s.push_back(sample("ViewPromiseMsg", 116,
                     ViewPromiseMsg(kSrc, kDst, 0x7000000000000003ull, 49,
                                    Ballot{50, 0x8000000000000002ull}, true,
                                    Ballot{51, 0x8000000000000003ull}, false,
                                    Ballot{52, 0x8000000000000004ull}, {view_a, view_b},
                                    {view_c}, {state_a, state_b}),
                     "740100000a591b0200000a5a1b03000000000000703132020000000000008001"
                     "3303000000000000800034040000000000008002010000000000001002000000"
                     "00000010ad020201000000000000200100a8c0a10f02000000000000200200a8"
                     "c0a20f03000000000000100400000000000010050103000000000000200300a8"
                     "c0a30f0105000000000000100600000000000010f0a204000201000000000000"
                     "308607010000000000004002dead020000000000003003020000000000004000"));
  s.push_back(sample("ViewAcceptMsg", 117,
                     ViewAcceptMsg(kSrc, kDst, 0x7000000000000004ull, 0x7000000000000005ull, 53,
                                   Ballot{54, 0x8000000000000005ull}, {view_b}),
                     "750100000a591b0200000a5a1b04000000000000700500000000000070353605"
                     "0000000000008001030000000000001004000000000000100501030000000000"
                     "00200300a8c0a30f"));
  s.push_back(sample("ViewAcceptedMsg", 118,
                     ViewAcceptedMsg(kSrc, kDst, 0x7000000000000006ull, 55,
                                     Ballot{56, 0x8000000000000006ull}, true),
                     "760100000a591b0200000a5a1b06000000000000703738060000000000008001"));
  s.push_back(sample("ViewInstallMsg", 119,
                     ViewInstallMsg(kSrc, kDst, 0x7000000000000007ull, view_a, {state_b}),
                     "770100000a591b0200000a5a1b07000000000000700100000000000010020000"
                     "0000000010ad020201000000000000200100a8c0a10f02000000000000200200"
                     "a8c0a20f01020000000000003003020000000000004000"));
  s.push_back(sample("ViewInstallAckMsg", 142,
                     ViewInstallAckMsg(kSrc, kDst, 0x7000000000000008ull, 0x7000000000000009ull,
                                       57),
                     "8e010100000a591b0200000a5a1b0800000000000070090000000000007039"));
  s.push_back(sample("ViewFetchMsg", 143,
                     ViewFetchMsg(kSrc, kDst, 0x700000000000000aull, 0x700000000000000bull),
                     "8f010100000a591b0200000a5a1b0a000000000000700b00000000000070"));
  s.push_back(sample("RouteLookupMsg", 140,
                     RouteLookupMsg(kSrc, kDst, node(0x29, 0x05060710u, 29), 1006,
                                    0x5000000000000006ull, 130),
                     "8c010100000a591b0200000a5a1b2900000000000000100706051d00ee070600"
                     "0000000000508201"));
  s.push_back(sample("LookupResultMsg", 141,
                     LookupResultMsg(kSrc, kDst, 1007, 0x5000000000000007ull,
                                     GroupView{0x5000000000000003ull, 0x5000000000000009ull, 58,
                                               {node(0x2a, 0x05060711u, 30),
                                                node(0x2b, 0x05060712u, 31)}}),
                     "8d010100000a591b0200000a5a1bef0707000000000000500300000000000050"
                     "09000000000000503a022a00000000000000110706051e002b00000000000000"
                     "120706051f00"));
  s.push_back(sample("BootstrapRequestMsg", 120,
                     BootstrapRequestMsg(kSrc, kDst, node(0x2c, 0x05060713u, 32)),
                     "780100000a591b0200000a5a1b2c00000000000000130706052000"));
  s.push_back(sample("BootstrapResponseMsg", 121,
                     BootstrapResponseMsg(kSrc, kDst,
                                          {node(0x2d, 0x05060714u, 33), node(0x2e, 0x05060715u, 34),
                                           node(0x2f, 0x05060716u, 35)}),
                     "790100000a591b0200000a5a1b032d000000000000001407060521002e000000"
                     "000000001507060522002f00000000000000160706052300"));
  s.push_back(sample("KeepAliveMsg", 122, KeepAliveMsg(kSrc, kDst, node(0x30, 0x05060717u, 36)),
                     "7a0100000a591b0200000a5a1b3000000000000000170706052400"));
  s.push_back(sample("StatusReportMsg", 130,
                     StatusReportMsg(kSrc, kDst, node(0x31, 0x05060718u, 37),
                                     {{"load", "0.50"}, {"ready", "true"}}),
                     "82010100000a591b0200000a5a1b310000000000000018070605250002046c6f"
                     "616404302e35300572656164790474727565"));
  return s;
}

}  // namespace kompics::cats::wire_samples
