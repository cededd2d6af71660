#include "cats/abd.hpp"

#include <algorithm>

#include "cats/ring_key.hpp"

namespace kompics::cats {

ConsistentABD::ConsistentABD() {
  register_cats_serializers();

  subscribe<Init>(control(), [this](const Init& init) {
    self_ = init.self;
    params_ = init.params;
  });

  subscribe<Start>(control(), [this](const Start&) {
    trigger(timing::schedule_periodic<ReconfigTick>(CatsParams::kViewReconfigPeriodMs,
                                                    CatsParams::kViewReconfigPeriodMs),
            timer_);
  });

  // ---- client API ----------------------------------------------------------

  subscribe<PutRequest>(putget_, [this](const PutRequest& req) {
    Op op;
    op.type = OpType::kPut;
    op.client_id = req.id;
    op.key = req.key;
    op.put_value = req.value;
    op.retries_left = params_.op_max_retries;
    const OpId id = fresh_id();
    ops_.emplace(id, std::move(op));
    protocol::spawn(run_op(id));
  });

  subscribe<GetRequest>(putget_, [this](const GetRequest& req) {
    Op op;
    op.type = OpType::kGet;
    op.client_id = req.id;
    op.key = req.key;
    op.retries_left = params_.op_max_retries;
    const OpId id = fresh_id();
    ops_.emplace(id, std::move(op));
    protocol::spawn(run_op(id));
  });

  // ---- replica side --------------------------------------------------------
  //
  // The consistent-quorum gate: a replica acknowledges an ABD phase message
  // only if the view version it was coordinated under is exactly the
  // replica's installed, unfenced view for that key and the replica is a
  // member of it. Everything else is nacked with the replica's current
  // version, so the coordinator can retry under a fresh lookup.

  subscribe<AbdReadMsg>(network_, [this](const AbdReadMsg& msg) {
    const RangeState* r = ranges_.covering(msg.key);
    if (!params_.inject_stale_view_bug &&
        (r == nullptr || r->fenced || r->view.version != msg.view ||
         !r->view.has_member(self_.addr))) {
      replica_nack(msg.source(), msg.op, msg.key);
      return;
    }
    // find(), not operator[]: a read of a missing key answers exists=false
    // without default-inserting an empty replica — otherwise a read storm of
    // absent keys grows the store without bound.
    auto sit = store_.find(msg.key);
    const bool exists = sit != store_.end();
    trigger(make_event<AbdReadAckMsg>(self_.addr, msg.source(), msg.op, msg.key, msg.view,
                                      exists ? sit->second.tag : VersionTag{}, exists,
                                      exists ? sit->second.value : Value{}),
            network_);
  });

  subscribe<AbdWriteMsg>(network_, [this](const AbdWriteMsg& msg) {
    const RangeState* r = ranges_.covering(msg.key);
    if (!params_.inject_stale_view_bug &&
        (r == nullptr || r->fenced || r->view.version != msg.view ||
         !r->view.has_member(self_.addr))) {
      replica_nack(msg.source(), msg.op, msg.key);
      return;
    }
    if (msg.exists) merge_newer(store_, msg.key, msg.tag, msg.value);
    trigger(make_event<AbdWriteAckMsg>(self_.addr, msg.source(), msg.op, msg.key, msg.view),
            network_);
  });

  subscribe_view_protocol();  // consensus + installs + catch-up (abd_views.cpp)

  // ---- ring & timers -------------------------------------------------------

  subscribe<RingView>(ring_, [this](const RingView& v) {
    ring_view_ = v.neighborhood;
    self_ = ring_view_.self;
    ring_epoch_ = std::max(ring_epoch_, v.epoch);
    evaluate_reconfigurations();
  });

  subscribe<ReconfigTick>(timer_, [this](const ReconfigTick&) { evaluate_reconfigurations(); });

  subscribe<StatusRequest>(status_, [this](const StatusRequest& req) {
    std::map<std::string, std::string> fields;
    fields["store_size"] = std::to_string(store_.size());
    fields["ops_inflight"] = std::to_string(ops_.size());
    fields["puts_ok"] = std::to_string(counters_.puts_ok);
    fields["gets_ok"] = std::to_string(counters_.gets_ok);
    fields["fast_reads"] = std::to_string(counters_.fast_reads);
    fields["ops_failed"] = std::to_string(counters_.ops_failed);
    fields["retries"] = std::to_string(counters_.retries);
    fields["ranges_held"] = std::to_string(ranges_.size());
    fields["views_installed"] = std::to_string(counters_.views_installed);
    fields["view_fences"] = std::to_string(counters_.view_fences);
    fields["view_fetches"] = std::to_string(counters_.view_fetches);
    fields["reconfigs_proposed"] = std::to_string(counters_.reconfigs_proposed);
    fields["reconfigs_decided"] = std::to_string(counters_.reconfigs_decided);
    fields["stale_view_nacks"] = std::to_string(counters_.stale_view_nacks);
    fields["fast_retries"] = std::to_string(counters_.fast_retries);
    fields["lookup_reasks"] = std::to_string(counters_.lookup_reasks);
    fields["stale_view_acks_dropped"] = std::to_string(counters_.stale_view_acks_dropped);
    trigger(make_event<StatusResponse>(req.id, "ConsistentABD", std::move(fields)), status_);
  });
}

// ---- op coordinator (one coroutine frame per client operation) -------------
//
// The op "state machine" is now just control flow: run_op's loop IS the retry
// policy, and the three round coroutines each suspend on the responses they
// correlate by exact wire op id. Phase transitions, the per-attempt timeout,
// ack bookkeeping resets and op-table cleanup — previously spread over five
// subscriptions and six helpers — all live in the frames below.

protocol::Proto<void> ConsistentABD::run_op(OpId internal) {
  // Whatever ends this frame — completion, exhausted retries, or the
  // component being destroyed mid-await — releases the op-table entry.
  // (unordered_map never moves values, so op stays valid across co_awaits:
  // only this guard erases the entry.)
  struct OpGuard {
    ConsistentABD* abd;
    OpId id;
    ~OpGuard() { abd->ops_.erase(id); }
  } guard{this, internal};
  Op& op = ops_.at(internal);
  for (;;) {
    // One deadline spans the whole attempt (lookup + read + write); arming a
    // fresh one auto-cancels the previous attempt's through the Timer port.
    auto deadline = co_await protocol::arm_timer(timer_, params_.op_timeout_ms);
    bool ok = co_await lookup_round(internal, deadline);
    if (ok && !(op.type == OpType::kPut && op.tag_chosen)) {
      // (A retried put whose tag is already fixed goes straight to idempotent
      // write retransmission; a fresh read phase must not re-tag the value.)
      ok = co_await read_round(internal, deadline);
      if (ok && op.type == OpType::kGet && op.read_agreed) {
        // Fast read: the write-back would establish nothing new, so skip it.
        // - The counted acks are a majority of the view this op was
        //   coordinated under (count_ack view-gates and dedups them), and
        //   all of them hold the max (tag, exists). That is exactly the
        //   state the write-back would create.
        // - Any later read or put quorum in that view intersects that
        //   majority, and replicas never lower a tag.
        // - A view change carries state by the max-tag merge of a majority
        //   of the old view's promise dumps (abd_views.cpp); that majority
        //   intersects this one too, and a replica that promised first is
        //   fenced and would have nacked instead of acking.
        // - Tags are unique per put (derive_seed(self_.key, internal)), so
        //   equal tags mean equal values.
        // An all-"not found" quorum is the same case: nothing to impose.
        ++counters_.fast_reads;
        complete_op(op, true);
        co_return;
      }
    }
    if (ok) ok = co_await write_round(internal, deadline);
    if (ok) {
      complete_op(op, true);
      co_return;
    }
    if (op.retries_left > 0) {
      --op.retries_left;
      ++op.attempt;  // stale wire ids stop matching any round's predicates
      ++counters_.retries;
      continue;  // fresh group lookup, fresh quorum rounds
    }
    switch (op.phase) {
      case Phase::kLookup:
        ++counters_.failed_in_lookup;
        break;
      case Phase::kRead:
        ++counters_.failed_in_read;
        break;
      case Phase::kWrite:
        ++counters_.failed_in_write;
        break;
    }
    complete_op(op, false);
    co_return;
  }
}

protocol::Proto<bool> ConsistentABD::lookup_round(OpId internal,
                                                  protocol::ArmedTimer& deadline) {
  Op& op = ops_.at(internal);
  op.phase = Phase::kLookup;
  op.acked.clear();
  op.nacked.clear();
  op.max_tag = VersionTag{};
  op.max_exists = false;
  op.max_value.clear();
  op.read_agreed = true;
  const OpId wid = wire_id(internal, op.attempt);
  // Open the stream BEFORE asking: a same-thread router can answer inline.
  auto responses = co_await router_.open<LookupResponse>(
      [wid](const LookupResponse& r) { return r.id == wid; });
  // A retry asks fresh: the router's learned view may be what failed.
  auto ask = [&] {
    trigger(make_event<LookupRequest>(wid, op.key, op.attempt > 0), router_);
  };
  ask();
  protocol::ArmedTimer reask;  // armed while an unusable answer backs off
  for (;;) {
    auto got = co_await protocol::when_any(responses.next(), deadline.wait(), reask.wait());
    if (got.index() == 1) co_return false;  // attempt deadline
    if (got.index() == 2) {
      // Same request, same wire id: a re-ask spends no retry and keeps the
      // attempt's deadline.
      reask = protocol::ArmedTimer{};
      ++counters_.lookup_reasks;
      ask();
      continue;
    }
    const LookupResponse& resp = *std::get<0>(got);
    if (resp.view.members.empty() ||
        (resp.view.version == 0 && !params_.inject_stale_view_bug)) {
      // Ring not converged around the key, or the responsible node has no
      // installed view yet. Ask again after a short backoff rather than
      // sitting out the attempt deadline: both usually clear within one
      // stabilization or view-change round. An unversioned group must never
      // run quorum phases: that is exactly the window where two sides of a
      // partition could each assemble an (inconsistent) quorum. (The
      // inject_stale_view_bug emulation deliberately re-opens that window,
      // params.hpp.)
      if (!reask.armed()) {
        reask = co_await protocol::arm_timer(timer_, CatsParams::kFastRetryBackoffMs);
      }
      continue;
    }
    op.view = resp.view;
    op.quorum = op.view.members.size() / 2 + 1;
    co_return true;
  }
}

template <class AckMsg>
protocol::Proto<bool> ConsistentABD::quorum_round(OpId internal,
                                                  protocol::ArmedTimer& deadline, Phase phase,
                                                  std::function<void(OpId wid)> send_phase,
                                                  std::function<void(const AckMsg&)> fold) {
  Op& op = ops_.at(internal);
  op.phase = phase;
  op.acked.clear();
  op.nacked.clear();
  const OpId wid = wire_id(internal, op.attempt);
  // Open the streams BEFORE sending: an in-process replica can answer inline.
  auto acks = co_await network_.open<AckMsg>([wid](const AckMsg& a) { return a.op == wid; });
  auto nacks = co_await network_.open<AbdNackMsg>(
      [wid](const AbdNackMsg& n) { return n.op == wid; });
  send_phase(wid);
  protocol::ArmedTimer fast;  // armed once nacks make this view's quorum infeasible
  for (;;) {
    auto got = co_await protocol::when_any(acks.next(), nacks.next(), deadline.wait(),
                                           fast.wait());
    if (got.index() >= 2) co_return false;  // attempt deadline or fast-retry backoff
    if (got.index() == 0) {
      const AckMsg& ack = *std::get<0>(got);
      if (!count_ack(internal, op, ack.source(), ack.view)) continue;
      fold(ack);
      if (op.acked.size() >= op.quorum) co_return true;
    } else if (count_nack(op, std::get<1>(got)->source()) && !fast.armed()) {
      // Too many replicas reject this view for a quorum to ever form: the
      // view is being reconfigured under us. Shortcut the attempt deadline
      // to a short backoff — long enough for the in-flight view change to
      // install, unlike an instant retry, which would burn every attempt
      // inside one fence window. The backoff doubles with each of the op's
      // fast retries (capped at the attempt deadline): a responsible node
      // that keeps answering with a superseded view until its own catch-up
      // lands would otherwise exhaust every retry within a second.
      ++counters_.fast_retries;
      const DurationMs backoff = std::min<DurationMs>(
          params_.op_timeout_ms, CatsParams::kFastRetryBackoffMs << std::min(op.fast_retries, 6));
      ++op.fast_retries;
      fast = co_await protocol::arm_timer(timer_, backoff);
    }
  }
}

protocol::Proto<bool> ConsistentABD::read_round(OpId internal,
                                                protocol::ArmedTimer& deadline) {
  Op& op = ops_.at(internal);
  return quorum_round<AbdReadAckMsg>(
      internal, deadline, Phase::kRead,
      [this, &op](OpId wid) {
        for (const auto& n : op.view.members) {
          trigger(make_event<AbdReadMsg>(self_.addr, n.addr, wid, op.key, op.view.version),
                  network_);
        }
      },
      [&op](const AbdReadAckMsg& ack) {
        // count_ack has already recorded this ack: from the second one on,
        // any difference from the running max breaks the agreement.
        if (op.acked.size() > 1 && (ack.tag != op.max_tag || ack.exists != op.max_exists)) {
          op.read_agreed = false;
        }
        if (op.max_tag < ack.tag || (!op.max_exists && ack.exists)) {
          op.max_tag = ack.tag;
          op.max_exists = ack.exists;
          op.max_value = ack.value;
        }
      });
}

protocol::Proto<bool> ConsistentABD::write_round(OpId internal,
                                                 protocol::ArmedTimer& deadline) {
  Op& op = ops_.at(internal);
  if (op.type == OpType::kPut && !op.tag_chosen) {
    // Writer tiebreak must be unique per *operation*: one node can run
    // concurrent puts for the same key, and if both picked (c+1, node_key)
    // the replicas would disagree about the value stored under one tag — a
    // real linearizability violation found by the history checker. Mixing
    // the internal op id in keeps tags totally ordered and (with
    // overwhelming probability) collision-free across writers.
    op.chosen_tag = VersionTag{op.max_tag.counter + 1, derive_seed(self_.key, internal)};
    op.tag_chosen = true;
  }
  const bool put = op.type == OpType::kPut;
  const VersionTag tag = put ? op.chosen_tag : op.max_tag;
  const bool exists = put ? true : op.max_exists;
  const Value& value = put ? op.put_value : op.max_value;
  return quorum_round<AbdWriteAckMsg>(
      internal, deadline, Phase::kWrite,
      [this, &op, tag, exists, &value](OpId wid) {
        for (const auto& n : op.view.members) {
          trigger(make_event<AbdWriteMsg>(self_.addr, n.addr, wid, op.key, op.view.version, tag,
                                          exists, value),
                  network_);
        }
      },
      [](const AbdWriteAckMsg&) {});
}

bool ConsistentABD::count_ack(OpId internal, Op& op, const Address& source,
                              std::uint64_t ack_view) {
  if (ack_view != op.view.version) {
    if (!params_.inject_stale_view_bug) {
      ++counters_.stale_view_acks_dropped;
      return false;
    }
    note_mixed_view_ack(internal, op, ack_view);
  }
  return note_address(op.acked, source);  // false: duplicated delivery
}

bool ConsistentABD::count_nack(Op& op, const Address& source) {
  if (!op.view.has_member(source) || !note_address(op.nacked, source)) return false;
  return op.view.members.size() - op.nacked.size() < op.quorum;
}

void ConsistentABD::complete_op(Op& op, bool ok) {
  if (op.type == OpType::kPut) {
    if (ok) {
      ++counters_.puts_ok;
    } else {
      ++counters_.ops_failed;
    }
    trigger(make_event<PutResponse>(op.client_id, op.key, ok), putget_);
  } else {
    if (ok) {
      ++counters_.gets_ok;
    } else {
      ++counters_.ops_failed;
    }
    trigger(make_event<GetResponse>(op.client_id, op.key, ok, op.max_exists, op.max_value),
            putget_);
  }
}

bool ConsistentABD::note_address(std::vector<Address>& v, const Address& a) {
  if (std::find(v.begin(), v.end(), a) != v.end()) return false;
  v.push_back(a);
  return true;
}

void ConsistentABD::note_mixed_view_ack(OpId internal, const Op& op, std::uint64_t ack_view) {
  if (recorded_violations_.size() >= 64) return;  // bounded; first hits matter
  recorded_violations_.push_back(
      "abd: op " + std::to_string(internal) + " (key " + std::to_string(op.key) +
      ") counted an ack under view v" + std::to_string(ack_view) +
      " but was coordinated under v" + std::to_string(op.view.version) +
      " — quorum mixes replica views");
}

std::vector<std::string> ConsistentABD::invariant_violations() const {
  std::vector<std::string> out = recorded_violations_;
  // Two overlapping installed views, nested ones included, mean two replica
  // groups both believe they own a key (the divergence precondition).
  ranges_.check_disjoint("abd: installed", out);
  // No in-flight op may hold more (deduplicated) acks than its group has
  // members, and its quorum must be a majority of that group.
  for (const auto& [id, op] : ops_) {
    if (!op.view.members.empty() && op.acked.size() > op.view.members.size()) {
      out.push_back("abd: op " + std::to_string(id) + " holds " +
                    std::to_string(op.acked.size()) + " acks from a group of " +
                    std::to_string(op.view.members.size()));
    }
    if (!op.view.members.empty() && op.quorum != op.view.members.size() / 2 + 1) {
      out.push_back("abd: op " + std::to_string(id) + " quorum " + std::to_string(op.quorum) +
                    " is not a majority of its group of " +
                    std::to_string(op.view.members.size()));
    }
  }
  // Ops and coroutine frames must pair exactly: an op parked in a suspended
  // run_op frame still counts as pending, and a finished (or destroyed)
  // frame must have released its op-table entry — a mismatch either way is
  // a leak in the protocol layer's RAII cleanup.
  if (protocol_host() != nullptr && ops_.size() != protocol_host()->live_frame_count()) {
    out.push_back("abd: " + std::to_string(ops_.size()) + " in-flight ops but " +
                  std::to_string(protocol_host()->live_frame_count()) +
                  " live protocol frames — op table and coroutine frames leak apart");
  }
  return out;
}

void ConsistentABD::replica_nack(const Address& to, OpId op, RingKey key) {
  ++counters_.stale_view_nacks;
  const RangeState* r = ranges_.covering(key);
  trigger(make_event<AbdNackMsg>(self_.addr, to, op, key, r == nullptr ? 0 : r->view.version),
          network_);
}

}  // namespace kompics::cats
