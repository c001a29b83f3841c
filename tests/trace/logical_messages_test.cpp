#include "trace/logical_messages.hpp"

#include <gtest/gtest.h>

#include "topology/cluster.hpp"

namespace chronosync {
namespace {

/// Builds a trace with one collective instance over `ranks` ranks.
Trace coll_trace(int ranks, CollectiveKind kind, Rank root) {
  Trace t(pinning::inter_node(clusters::xeon_rwth(), ranks), {0.47e-6, 0.86e-6, 4.29e-6},
          "test");
  for (Rank r = 0; r < ranks; ++r) {
    Event b;
    b.type = EventType::CollBegin;
    b.coll = kind;
    b.coll_id = 0;
    b.root = root;
    b.local_ts = b.true_ts = 1.0 + 0.001 * r;
    Event e = b;
    e.type = EventType::CollEnd;
    e.local_ts = e.true_ts = 2.0 + 0.001 * r;
    t.events(r).push_back(b);
    t.events(r).push_back(e);
  }
  return t;
}

TEST(LogicalMessages, BcastIsOneToN) {
  Trace t = coll_trace(4, CollectiveKind::Bcast, 1);
  auto msgs = derive_logical_messages(t);
  // root begin -> each non-root end: 3 messages.
  ASSERT_EQ(msgs.size(), 3u);
  for (const auto& m : msgs) {
    EXPECT_EQ(m.send.proc, 1);
    EXPECT_NE(m.recv.proc, 1);
    EXPECT_EQ(t.at(m.send).type, EventType::CollBegin);
    EXPECT_EQ(t.at(m.recv).type, EventType::CollEnd);
  }
}

TEST(LogicalMessages, ReduceIsNToOne) {
  Trace t = coll_trace(4, CollectiveKind::Reduce, 2);
  auto msgs = derive_logical_messages(t);
  ASSERT_EQ(msgs.size(), 3u);
  for (const auto& m : msgs) {
    EXPECT_NE(m.send.proc, 2);
    EXPECT_EQ(m.recv.proc, 2);
  }
}

TEST(LogicalMessages, BarrierIsNToN) {
  Trace t = coll_trace(4, CollectiveKind::Barrier, 0);
  auto msgs = derive_logical_messages(t);
  // n*(n-1) ordered pairs.
  EXPECT_EQ(msgs.size(), 12u);
}

TEST(LogicalMessages, AllreduceIsNToN) {
  Trace t = coll_trace(3, CollectiveKind::Allreduce, 0);
  EXPECT_EQ(derive_logical_messages(t).size(), 6u);
}

TEST(LogicalMessages, GatherScatterFlavors) {
  EXPECT_EQ(derive_logical_messages(coll_trace(5, CollectiveKind::Gather, 0)).size(), 4u);
  EXPECT_EQ(derive_logical_messages(coll_trace(5, CollectiveKind::Scatter, 0)).size(), 4u);
}

TEST(LogicalMessages, MultipleInstancesAccumulate) {
  Trace t = coll_trace(3, CollectiveKind::Barrier, 0);
  // Add a second instance.
  for (Rank r = 0; r < 3; ++r) {
    Event b;
    b.type = EventType::CollBegin;
    b.coll = CollectiveKind::Bcast;
    b.coll_id = 1;
    b.root = 0;
    b.local_ts = b.true_ts = 3.0;
    Event e = b;
    e.type = EventType::CollEnd;
    e.local_ts = e.true_ts = 4.0;
    t.events(r).push_back(b);
    t.events(r).push_back(e);
  }
  auto msgs = derive_logical_messages(t);
  EXPECT_EQ(msgs.size(), 6u + 2u);
}

TEST(LogicalMessages, DuplicateRootEventsUseFirstMatch) {
  // Malformed instances can list the root rank twice.  Both flavours must
  // pick the *first* recorded root event as the representative — the same
  // rule the streaming scanner applies — not the last one.
  Trace bcast = coll_trace(3, CollectiveKind::Bcast, 0);
  Event dup = bcast.events(0)[0];  // root begin at t=1.0
  dup.local_ts = dup.true_ts = 0.5;
  bcast.events(0).push_back(dup);  // later in trace order, earlier timestamp
  bcast.events(0).push_back(bcast.events(0)[1]);  // balance ends: not partial
  const auto one_to_n = derive_logical_messages(bcast);
  ASSERT_EQ(one_to_n.size(), 2u);
  for (const auto& lm : one_to_n) {
    EXPECT_EQ(lm.send.proc, 0);
    EXPECT_EQ(lm.send.index, 0u) << "root begin must be the first recorded one";
  }

  Trace reduce = coll_trace(3, CollectiveKind::Reduce, 0);
  Event end_dup = reduce.events(0)[1];  // root end at index 1
  end_dup.local_ts = end_dup.true_ts = 9.0;
  reduce.events(0).push_back(end_dup);
  reduce.events(0).push_back(reduce.events(0)[0]);  // balance begins
  const auto n_to_one = derive_logical_messages(reduce);
  ASSERT_EQ(n_to_one.size(), 2u);
  for (const auto& lm : n_to_one) {
    EXPECT_EQ(lm.recv.proc, 0);
    EXPECT_EQ(lm.recv.index, 1u) << "root end must be the first recorded one";
  }
}

TEST(LogicalMessages, ReservesExactCount) {
  // Mixed flavours over 5 ranks, one instance per kind, plus a Bcast whose
  // root never recorded its begin (no messages) and the malformed duplicate
  // root of DuplicateRootEventsUseFirstMatch: the output is counted first,
  // so no capacity is left over.
  const int ranks = 5;
  Trace t(pinning::inter_node(clusters::xeon_rwth(), ranks), {0.47e-6, 0.86e-6, 4.29e-6},
          "test");
  const CollectiveKind kinds[] = {CollectiveKind::Barrier,   CollectiveKind::Bcast,
                                  CollectiveKind::Reduce,    CollectiveKind::Allreduce,
                                  CollectiveKind::Gather,    CollectiveKind::Scatter,
                                  CollectiveKind::Allgather, CollectiveKind::Alltoall,
                                  CollectiveKind::Bcast};
  std::int64_t id = 0;
  for (const CollectiveKind kind : kinds) {
    const bool rootless = id == 8;  // the last Bcast: root 3 records no begin
    for (Rank r = 0; r < ranks; ++r) {
      Event b;
      b.type = EventType::CollBegin;
      b.coll = kind;
      b.coll_id = id;
      b.root = 3;
      b.local_ts = b.true_ts = 1.0 + static_cast<double>(id) + 0.001 * r;
      Event e = b;
      e.type = EventType::CollEnd;
      e.local_ts = e.true_ts = b.local_ts + 0.5;
      if (!(rootless && r == 3)) t.events(r).push_back(b);
      t.events(r).push_back(e);
    }
    ++id;
  }
  Event dup = t.events(3)[2];  // root begin of the Bcast (coll_id 1)
  ASSERT_EQ(dup.coll_id, 1);
  t.events(3).push_back(dup);
  t.events(3).push_back(t.events(3)[3]);  // balance ends: not partial

  const auto msgs = derive_logical_messages(t);
  // N-to-N: 4 kinds x 20; 1-to-N and N-to-1: 4 kinds x 4; rootless Bcast: 0.
  EXPECT_EQ(msgs.size(), 4u * 20u + 4u * 4u);
  EXPECT_EQ(msgs.capacity(), msgs.size());
  for (const auto& m : msgs) {
    if (m.coll_id == 1) {
      EXPECT_EQ(m.send.proc, 3);
      EXPECT_EQ(m.send.index, 2u) << "root begin must be the first recorded one";
    }
  }
}

TEST(LogicalMessages, EmptyTraceGivesNone) {
  Trace t(pinning::inter_node(clusters::xeon_rwth(), 2), {1e-6, 2e-6, 4e-6}, "test");
  EXPECT_TRUE(derive_logical_messages(t).empty());
}

TEST(LogicalMessages, CollIdPropagated) {
  Trace t = coll_trace(3, CollectiveKind::Allreduce, 0);
  for (const auto& m : derive_logical_messages(t)) {
    EXPECT_EQ(m.coll_id, 0);
  }
}

}  // namespace
}  // namespace chronosync
