#include "analysis/clock_condition_stream.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/id_table.hpp"
#include "obs/obs.hpp"
#include "trace/io_util.hpp"
#include "trace/otf_text.hpp"
#include "trace/trace_io.hpp"

namespace chronosync {

namespace {

constexpr std::uint32_t kMagic = 0x43535452;  // "CSTR"

/// The half-matched endpoint of a point-to-point message, keyed by msg_id.
/// An entry lives only while exactly one endpoint has been seen: the moment
/// the other side arrives the edge is checked and the entry erased, so the
/// table's high-water mark tracks the outstanding backlog, not the message
/// count.  Within the half-open state a duplicate endpoint overwrites (last
/// wins); an endpoint for an id that was already completed and erased starts
/// a fresh entry.  Trace::match_messages applies the identical online rule
/// over the same rank-major order, so the two pipelines agree even on
/// malformed duplicate-id traces.
///
/// File order is rank-major, so the backlog can reach a large share of all
/// messages (every send of rank 0 waits for a receive of a later rank): at 24
/// bytes in a flat IdTable an entry costs a third of a node-based map's.
struct HalfOpen {
  std::int64_t id = 0;
  Time ts = 0.0;
  Rank rank = -1;
  bool is_send = false;
  bool live = false;
};
static_assert(sizeof(HalfOpen) <= 24);

/// One collective instance, keyed by coll_id.  Mirrors what
/// Trace::collect_collectives keeps: kind/root overwritten by every
/// participating event (last one wins), begins/ends in trace (rank-major)
/// order.
struct CollInstance {
  CollectiveKind kind{};
  Rank root = -1;
  std::vector<std::pair<Rank, Time>> begins;
  std::vector<std::pair<Rank, Time>> ends;
};

void check_edge(Time ts, Time tr, Duration l_min, std::size_t& reversed,
                std::size_t& violations, Duration& worst) {
  if (tr < ts) ++reversed;
  if (tr < ts + l_min) {
    ++violations;
    worst = std::max(worst, ts + l_min - tr);
  }
}

}  // namespace

ClockConditionReport scan_clock_condition(TraceReader& reader, ScanStats* stats) {
  CS_SPAN("analysis.clock_condition_scan");
  const TraceMeta& meta = reader.meta();
  ClockConditionReport rep;
  ScanStats local_stats;

  IdTable<HalfOpen> msgs;
  std::unordered_map<std::int64_t, CollInstance> colls;

  EventBlock block;
  while (reader.next(block)) {
    for (const Event& e : block.events) {
      ++rep.total_events;
      switch (e.type) {
        case EventType::Send:
        case EventType::Recv: {
          ++rep.message_events;
          const bool is_send = e.type == EventType::Send;
          auto [m, fresh] = msgs.insert(e.msg_id);
          if (!fresh && m->is_send != is_send) {
            // The other endpoint is waiting: check the edge and retire it.
            ++rep.p2p_messages;
            const Rank send_rank = is_send ? block.rank : m->rank;
            const Rank recv_rank = is_send ? m->rank : block.rank;
            const Time send_ts = is_send ? e.local_ts : m->ts;
            const Time recv_ts = is_send ? m->ts : e.local_ts;
            check_edge(send_ts, recv_ts, meta.min_latency(send_rank, recv_rank),
                       rep.p2p_reversed, rep.p2p_violations, rep.p2p_worst);
            msgs.erase(m);
            break;
          }
          m->ts = e.local_ts;
          m->rank = block.rank;
          m->is_send = is_send;
          local_stats.peak_outstanding_messages =
              std::max(local_stats.peak_outstanding_messages, msgs.size());
          break;
        }
        case EventType::CollBegin: {
          ++rep.message_events;
          auto& inst = colls[e.coll_id];
          inst.kind = e.coll;
          inst.root = e.root;
          inst.begins.emplace_back(block.rank, e.local_ts);
          local_stats.peak_outstanding_collectives =
              std::max(local_stats.peak_outstanding_collectives, colls.size());
          break;
        }
        case EventType::CollEnd: {
          ++rep.message_events;
          auto& inst = colls[e.coll_id];
          inst.kind = e.coll;
          inst.root = e.root;
          inst.ends.emplace_back(block.rank, e.local_ts);
          local_stats.peak_outstanding_collectives =
              std::max(local_stats.peak_outstanding_collectives, colls.size());
          break;
        }
        default:
          break;
      }
    }
  }

  // Every entry still in `msgs` is half-matched (a tracing-window edge) and
  // is dropped, exactly as Trace::match_messages does; complete pairs were
  // already checked and erased during the scan.

  // Collectives mapped onto logical messages, mirroring
  // derive_logical_messages' flavour rules.
  for (const auto& [id, inst] : colls) {
    if (inst.begins.empty() || inst.begins.size() != inst.ends.size()) continue;  // partial
    switch (flavor_of(inst.kind)) {
      case CollectiveFlavor::OneToN: {
        const std::pair<Rank, Time>* root_begin = nullptr;
        for (const auto& b : inst.begins) {
          if (b.first == inst.root) {
            root_begin = &b;
            break;
          }
        }
        if (!root_begin) break;
        for (const auto& end : inst.ends) {
          if (end.first == inst.root) continue;
          ++rep.logical_messages;
          const Duration l_min = meta.min_latency(root_begin->first, end.first);
          check_edge(root_begin->second, end.second, l_min, rep.logical_reversed,
                     rep.logical_violations, rep.logical_worst);
        }
        break;
      }
      case CollectiveFlavor::NToOne: {
        // First-match, same as the OneToN branch above and as
        // derive_logical_messages' root lookups.
        const std::pair<Rank, Time>* root_end = nullptr;
        for (const auto& end : inst.ends) {
          if (end.first == inst.root) {
            root_end = &end;
            break;
          }
        }
        if (!root_end) break;
        for (const auto& b : inst.begins) {
          if (b.first == inst.root) continue;
          ++rep.logical_messages;
          const Duration l_min = meta.min_latency(b.first, root_end->first);
          check_edge(b.second, root_end->second, l_min, rep.logical_reversed,
                     rep.logical_violations, rep.logical_worst);
        }
        break;
      }
      case CollectiveFlavor::NToN: {
        for (const auto& b : inst.begins) {
          for (const auto& end : inst.ends) {
            if (b.first == end.first) continue;
            ++rep.logical_messages;
            const Duration l_min = meta.min_latency(b.first, end.first);
            check_edge(b.second, end.second, l_min, rep.logical_reversed,
                       rep.logical_violations, rep.logical_worst);
          }
        }
        break;
      }
    }
  }
  if (stats) *stats = local_stats;
  return rep;
}

ClockConditionReport scan_clock_condition(std::istream& in, ScanStats* stats) {
  // Sniff at most 8 bytes and never seek: a short read just means the input
  // is smaller than a v2 header (e.g. a tiny text trace), not an error —
  // clear the stream state and hand everything to the matching reader.
  char header[8];
  in.read(header, 8);
  const auto got = static_cast<std::size_t>(in.gcount());
  in.clear();
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  if (got >= 4) std::memcpy(&magic, header, 4);
  if (got == 8) std::memcpy(&version, header + 4, 4);

  if (got == 8 && magic == kMagic && version == 2) {
    TraceReader reader(in, /*header_consumed=*/true);
    return scan_clock_condition(reader, stats);
  }

  // Not a v2 container: replay the sniffed prefix in front of the remaining
  // bytes so the v1/text readers see the stream from offset zero and report
  // their own errors (line numbers for text, typed header errors for v1).
  traceio::PrefixedStreambuf replay_buf(std::string(header, got), in);
  std::istream replay(&replay_buf);
  const Trace trace =
      got >= 4 && magic == kMagic ? read_trace(replay) : read_text_trace(replay);
  if (stats) *stats = ScanStats{};
  return check_clock_condition(trace, TimestampArray::from_local(trace));
}

ClockConditionReport scan_clock_condition_file(const std::string& path, ScanStats* stats) {
  std::ifstream f(path, std::ios::binary);
  if (!f.good()) {
    throw TraceIoError(TraceIoErrorKind::Io, "cannot open trace file for reading: " + path);
  }
  return scan_clock_condition(f, stats);
}

}  // namespace chronosync
