#include "trace/trace.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>

#include "common/log.hpp"

namespace chronosync {

std::string to_string(EventType t) {
  switch (t) {
    case EventType::Enter: return "ENTER";
    case EventType::Exit: return "EXIT";
    case EventType::Send: return "SEND";
    case EventType::Recv: return "RECV";
    case EventType::CollBegin: return "COLL_BEGIN";
    case EventType::CollEnd: return "COLL_END";
    case EventType::Fork: return "FORK";
    case EventType::Join: return "JOIN";
    case EventType::BarrierEnter: return "BARR_ENTER";
    case EventType::BarrierExit: return "BARR_EXIT";
  }
  return "?";
}

std::string to_string(CollectiveKind k) {
  switch (k) {
    case CollectiveKind::Barrier: return "barrier";
    case CollectiveKind::Bcast: return "bcast";
    case CollectiveKind::Reduce: return "reduce";
    case CollectiveKind::Allreduce: return "allreduce";
    case CollectiveKind::Gather: return "gather";
    case CollectiveKind::Scatter: return "scatter";
    case CollectiveKind::Allgather: return "allgather";
    case CollectiveKind::Alltoall: return "alltoall";
  }
  return "?";
}

CollectiveFlavor flavor_of(CollectiveKind k) {
  switch (k) {
    case CollectiveKind::Bcast:
    case CollectiveKind::Scatter:
      return CollectiveFlavor::OneToN;
    case CollectiveKind::Reduce:
    case CollectiveKind::Gather:
      return CollectiveFlavor::NToOne;
    case CollectiveKind::Barrier:
    case CollectiveKind::Allreduce:
    case CollectiveKind::Allgather:
    case CollectiveKind::Alltoall:
      return CollectiveFlavor::NToN;
  }
  return CollectiveFlavor::NToN;
}

Trace::Trace(Placement placement, std::array<Duration, 3> domain_min_latency,
             std::string timer_name)
    : placement_(std::move(placement)),
      min_latency_(domain_min_latency),
      timer_name_(std::move(timer_name)) {
  events_.resize(static_cast<std::size_t>(placement_.ranks()));
}

std::vector<Event>& Trace::events(Rank r) {
  CS_REQUIRE(r >= 0 && r < ranks(), "rank out of trace range");
  return events_[static_cast<std::size_t>(r)];
}

const std::vector<Event>& Trace::events(Rank r) const {
  CS_REQUIRE(r >= 0 && r < ranks(), "rank out of trace range");
  return events_[static_cast<std::size_t>(r)];
}

const Event& Trace::at(const EventRef& ref) const {
  const auto& ev = events(ref.proc);
  CS_REQUIRE(ref.index < ev.size(), "event index out of range");
  return ev[ref.index];
}

Duration Trace::min_latency(Rank a, Rank b) const {
  const CommDomain d = placement_.domain(a, b);
  return min_latency(d);
}

Duration Trace::min_latency(CommDomain d) const {
  CS_REQUIRE(d != CommDomain::SameCore, "no latency between co-located ranks");
  return min_latency_[static_cast<std::size_t>(d) - 1];
}

std::size_t Trace::total_events() const {
  std::size_t n = 0;
  for (const auto& v : events_) n += v.size();
  return n;
}

std::int32_t Trace::intern_region(const std::string& name) {
  for (std::size_t i = 0; i < region_names_.size(); ++i) {
    if (region_names_[i] == name) return static_cast<std::int32_t>(i);
  }
  region_names_.push_back(name);
  return static_cast<std::int32_t>(region_names_.size() - 1);
}

const std::string& Trace::region_name(std::int32_t id) const {
  CS_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < region_names_.size(),
             "region id out of range");
  return region_names_[static_cast<std::size_t>(id)];
}

namespace {

/// One Send or Recv of the message join.  Receives store the complement of
/// their rank (~rank < 0), so the endpoint fits in 16 bytes; a pair's bytes
/// and tag are read from its send event once it completes.  With the two
/// 4-byte permutation slots of the sort, the join needs 24 B per endpoint.
struct Endpoint {
  std::int64_t msg_id;
  Rank rank;
  std::uint32_t index;
};

/// Radix digit width of the join's LSD sort: 2048 buckets per pass, so a
/// dense id range of up to ~4M messages needs two passes and any int64 range
/// at most six.
constexpr unsigned kDigitBits = 11;
constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;

}  // namespace

std::vector<MessageRecord> Trace::match_messages() const {
  // msg_id keys the join.  Matching is online over rank-major order, the
  // same rule the streamed scanner (scan_clock_condition) applies so the two
  // pipelines agree on every input: an id holds at most one half-open entry,
  // duplicate endpoints overwrite while the entry is half-open (last wins),
  // the pair is retired the moment its second endpoint arrives, and an
  // endpoint for an already-retired id opens a fresh entry.  Well-formed
  // traces have unique ids, so only malformed inputs can tell this from a
  // whole-trace join.
  //
  // An id's state depends only on its own endpoints, in rank-major order.
  // So the endpoints are collected in that order, stably radix-sorted by id,
  // and the online rule is replayed per id group.  That yields ascending ids,
  // with a reused id's pairs in completion order.
  std::size_t sends = 0;
  std::size_t recvs = 0;
  for (const auto& ev : events_) {
    for (const Event& e : ev) {
      sends += e.type == EventType::Send;
      recvs += e.type == EventType::Recv;
    }
  }
  const std::size_t n = sends + recvs;
  CS_REQUIRE(n <= std::numeric_limits<std::uint32_t>::max(),
             "too many message endpoints to join");

  std::vector<Endpoint> eps;
  eps.reserve(n);
  std::int64_t min_id = std::numeric_limits<std::int64_t>::max();
  std::int64_t max_id = std::numeric_limits<std::int64_t>::min();
  for (Rank r = 0; r < ranks(); ++r) {
    const auto& ev = events_[static_cast<std::size_t>(r)];
    for (std::uint32_t i = 0; i < ev.size(); ++i) {
      const Event& e = ev[i];
      if (e.type != EventType::Send && e.type != EventType::Recv) continue;
      eps.push_back({e.msg_id, e.type == EventType::Send ? r : ~r, i});
      min_id = std::min(min_id, e.msg_id);
      max_id = std::max(max_id, e.msg_id);
    }
  }

  // Sort on msg_id - min_id (wrapping unsigned arithmetic, so any int64
  // range is exact) with only the digit passes that range needs.
  const auto base = static_cast<std::uint64_t>(min_id);
  const auto key = [base](const Endpoint& e) {
    return static_cast<std::uint64_t>(e.msg_id) - base;
  };
  unsigned passes = 0;
  for (std::uint64_t range = n > 0 ? static_cast<std::uint64_t>(max_id) - base : 0; range != 0;
       range >>= kDigitBits) {
    ++passes;
  }
  std::vector<std::uint32_t> offset(passes * kBuckets, 0);
  for (const Endpoint& e : eps) {
    const std::uint64_t k = key(e);
    for (unsigned p = 0; p < passes; ++p) {
      ++offset[p * kBuckets + ((k >> (p * kDigitBits)) & (kBuckets - 1))];
    }
  }
  for (unsigned p = 0; p < passes; ++p) {
    std::uint32_t sum = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const std::uint32_t c = offset[p * kBuckets + b];
      offset[p * kBuckets + b] = sum;
      sum += c;
    }
  }
  // `order` permutes eps; the first pass reads eps in collection order.
  std::vector<std::uint32_t> order(n);
  if (passes == 0) std::iota(order.begin(), order.end(), 0u);
  std::vector<std::uint32_t> scratch(passes > 1 ? n : 0);
  for (unsigned p = 0; p < passes; ++p) {
    std::uint32_t* off = offset.data() + p * kBuckets;
    const unsigned shift = p * kDigitBits;
    const auto digit = [&](std::uint32_t o) { return (key(eps[o]) >> shift) & (kBuckets - 1); };
    if (p == 0) {
      for (std::uint32_t o = 0; o < n; ++o) order[off[digit(o)]++] = o;
    } else {
      for (const std::uint32_t o : order) scratch[off[digit(o)]++] = o;
      order.swap(scratch);
    }
  }

  // Replay the online rule per id group; `m` is the group's half-open entry.
  std::vector<MessageRecord> out;
  out.reserve(std::min(sends, recvs));
  std::size_t dropped = 0;
  for (std::size_t g = 0; g < n;) {
    const std::int64_t id = eps[order[g]].msg_id;
    MessageRecord m;
    for (; g < n && eps[order[g]].msg_id == id; ++g) {
      const Endpoint& e = eps[order[g]];
      if (e.rank >= 0) {
        m.send = {e.rank, e.index};
      } else {
        m.recv = {~e.rank, e.index};
      }
      if (m.send.proc >= 0 && m.recv.proc >= 0) {
        const Event& s = events_[static_cast<std::size_t>(m.send.proc)][m.send.index];
        m.bytes = s.bytes;
        m.tag = s.tag;
        out.push_back(m);
        m = {};
      }
    }
    dropped += m.send.proc >= 0 || m.recv.proc >= 0;
  }
  if (dropped > 0) {
    // Sends whose receive fell outside the tracing window (or vice versa).
    CS_LOG_DEBUG << dropped << " half-matched messages dropped (tracing window edges)";
  }
  return out;
}

std::vector<CollectiveInstance> Trace::collect_collectives() const {
  std::map<std::int64_t, CollectiveInstance> by_id;
  for (Rank r = 0; r < ranks(); ++r) {
    const auto& ev = events(r);
    for (std::uint32_t i = 0; i < ev.size(); ++i) {
      const Event& e = ev[i];
      if (e.type != EventType::CollBegin && e.type != EventType::CollEnd) continue;
      auto& inst = by_id[e.coll_id];
      inst.kind = e.coll;
      inst.root = e.root;
      inst.coll_id = e.coll_id;
      if (e.type == EventType::CollBegin) {
        inst.begins.push_back({r, i});
      } else {
        inst.ends.push_back({r, i});
      }
    }
  }
  std::vector<CollectiveInstance> out;
  out.reserve(by_id.size());
  for (auto& [id, inst] : by_id) {
    if (inst.begins.size() != inst.ends.size() || inst.begins.empty()) {
      // Partial instance at a tracing-window edge: skip, as a tool would.
      continue;
    }
    out.push_back(std::move(inst));
  }
  return out;
}

void Trace::validate() const {
  for (Rank r = 0; r < ranks(); ++r) {
    const auto& ev = events(r);
    for (std::size_t i = 1; i < ev.size(); ++i) {
      // Events of one location must carry non-decreasing local timestamps for
      // threads sharing a clock; across threads of one rank we only require
      // per-thread monotonicity.
      if (ev[i].thread == ev[i - 1].thread) {
        CS_ENSURE(ev[i].local_ts >= ev[i - 1].local_ts,
                  "local timestamps not monotone within a location");
      }
      CS_ENSURE(ev[i].true_ts >= ev[i - 1].true_ts - 1e-12 || ev[i].thread != ev[i - 1].thread,
                "ground-truth timestamps not monotone within a location");
    }
  }
}

TimestampArray TimestampArray::from_local(const Trace& t) {
  TimestampArray a;
  a.ts_.resize(static_cast<std::size_t>(t.ranks()));
  for (Rank r = 0; r < t.ranks(); ++r) {
    const auto& ev = t.events(r);
    auto& v = a.ts_[static_cast<std::size_t>(r)];
    v.reserve(ev.size());
    for (const Event& e : ev) v.push_back(e.local_ts);
  }
  return a;
}

TimestampArray TimestampArray::from_truth(const Trace& t) {
  TimestampArray a;
  a.ts_.resize(static_cast<std::size_t>(t.ranks()));
  for (Rank r = 0; r < t.ranks(); ++r) {
    const auto& ev = t.events(r);
    auto& v = a.ts_[static_cast<std::size_t>(r)];
    v.reserve(ev.size());
    for (const Event& e : ev) v.push_back(e.true_ts);
  }
  return a;
}

Time& TimestampArray::at(const EventRef& ref) {
  CS_REQUIRE(ref.proc >= 0 && ref.proc < ranks(), "rank out of range");
  auto& v = ts_[static_cast<std::size_t>(ref.proc)];
  CS_REQUIRE(ref.index < v.size(), "index out of range");
  return v[ref.index];
}

Time TimestampArray::at(const EventRef& ref) const {
  return const_cast<TimestampArray*>(this)->at(ref);
}

std::vector<Time>& TimestampArray::of_rank(Rank r) {
  CS_REQUIRE(r >= 0 && r < ranks(), "rank out of range");
  return ts_[static_cast<std::size_t>(r)];
}

const std::vector<Time>& TimestampArray::of_rank(Rank r) const {
  return const_cast<TimestampArray*>(this)->of_rank(r);
}

}  // namespace chronosync
