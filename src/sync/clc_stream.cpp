#include "sync/clc_stream.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/expect.hpp"
#include "common/id_table.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "trace/stream_io.hpp"
#include "trace/trace_io_error.hpp"

namespace chronosync {

namespace {

constexpr Duration kFpMargin = 1e-12;  // matches clc_detail::backward_pass

/// Pairing state of one point-to-point message, an IdTable slot keyed by
/// msg_id.  Entries are created when an endpoint's chunk is *read* (so
/// processability can distinguish "send not yet seen" from "send later in
/// the file") and die when the receive has consumed the edge — or, for
/// receive-less sends past the horizon, when the entry spills to disk.
struct MsgState {
  std::int64_t id = 0;
  Time send_ts = 0.0;
  Time send_lc = 0.0;
  Rank send_rank = -1;
  std::uint32_t send_seq = 0;
  bool send_registered = false;
  bool send_processed = false;
  bool recv_registered = false;
  bool recv_dropped = false;  ///< receive went ahead unconstrained (horizon)
  bool live = false;
};

/// Where a spilled message's record sits in the message spill file.
struct SpillSlot {
  std::int64_t id = 0;
  std::uint64_t offset = 0;
  bool live = false;
};

/// One processed CollBegin of an instance: enough to build the logical edges
/// and to apply backward caps to its retention entry later.
struct BeginRec {
  Rank rank = -1;
  std::uint32_t seq = 0;
  Time lc = 0.0;
};

/// One collective instance.  kind/root follow registration order (last one
/// wins, like Trace::collect_collectives); for well-formed traces every
/// participant agrees so the order cannot matter.  The instance closes when
/// the read frontier of every rank has passed last_ts + horizon: after that
/// no further participant can appear (under the horizon contract), so
/// partiality and the edge set are settled.
struct CollInst {
  CollectiveKind kind{};
  Rank root = -1;
  Time last_ts = -kTimeInfinity;
  std::vector<BeginRec> begins;  ///< processed begins, processing order
  std::uint32_t begins_registered = 0;
  std::uint32_t ends_registered = 0;
  std::uint32_t ends_processed = 0;
  bool closed = false;
  bool root_end_taken = false;  ///< NToOne: the first root end owns the edges
};

/// A processed event awaiting emission.  `lc` is the forward-pass value and
/// is never mutated: every backward sweep recomputes candidate values from
/// scratch, so emitted timestamps are independent of sweep/batch timing.
struct Pending {
  Time ts = 0.0;  ///< original local timestamp (horizon release checks)
  Time lc = 0.0;
  Duration jump = 0.0;
  Time cap = kTimeInfinity;
  std::int64_t id = -1;  ///< msg_id for sends (hold-release lookups)
  std::uint8_t holds = 0;
  bool is_send = false;
};

/// What processing needs of a read-ahead event: 24 bytes per event instead
/// of the decoded 64-byte Event.
struct AheadEvent {
  Time ts = 0.0;          ///< local timestamp
  std::int64_t id = -1;   ///< msg_id of a send/receive, coll_id of a collective event
  EventType type{};
};

/// Fixed-size pages of T, recycled between the ranks' queues of one engine.
/// The window allocates its high-water once, and the pages a rank no longer
/// needs serve the next rank that grows.
template <class T>
class PagePool {
 public:
  static constexpr std::size_t kPage = 512;  ///< entries per page

  T* take() {
    if (free_.empty()) {
      owned_.push_back(std::make_unique<T[]>(kPage));
      return owned_.back().get();
    }
    T* page = free_.back();
    free_.pop_back();
    return page;
  }
  void give(T* page) { free_.push_back(page); }

 private:
  std::vector<std::unique_ptr<T[]>> owned_;
  std::vector<T*> free_;
};

/// FIFO over pages of a PagePool: one rank's read-ahead or retention window.
template <class T>
class PagedQueue {
  static constexpr std::size_t kPage = PagePool<T>::kPage;

 public:
  explicit PagedQueue(PagePool<T>& pool) : pool_(&pool) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T& front() const { return pages_.front()[head_]; }
  T& operator[](std::size_t i) {
    const std::size_t k = head_ + i;
    return pages_[k / kPage][k % kPage];
  }

  void push_back(const T& v) {
    const std::size_t k = head_ + size_;
    if (k == pages_.size() * kPage) pages_.push_back(pool_->take());
    pages_[k / kPage][k % kPage] = v;
    ++size_;
  }

  /// Drops the first `n` entries; pages left empty go back to the pool.
  void pop_front(std::size_t n) {
    head_ += n;
    size_ -= n;
    const std::size_t done = size_ == 0 ? pages_.size() : head_ / kPage;
    for (std::size_t i = 0; i < done; ++i) pool_->give(pages_[i]);
    pages_.erase(pages_.begin(), pages_.begin() + static_cast<std::ptrdiff_t>(done));
    head_ = size_ == 0 ? 0 : head_ - done * kPage;
  }

 private:
  PagePool<T>* pool_;
  std::vector<T*> pages_;
  std::size_t head_ = 0;  ///< position of the front entry in pages_[0]
  std::size_t size_ = 0;
};

struct RankState {
  RankState(PagePool<AheadEvent>& ahead_pages, PagePool<Pending>& pend_pages)
      : ahead(ahead_pages), pend(pend_pages) {}

  std::vector<std::uint32_t> chunks;  ///< indices into TraceIndex::chunks
  std::size_t next_chunk = 0;
  PagedQueue<AheadEvent> ahead;  ///< read but not yet processed

  // Forward-pass scalar state (mirrors clc_detail::forward_pass).
  bool has_prev = false;
  Time prev_input = 0.0;
  Time prev_lc = 0.0;

  std::uint32_t seq = 0;  ///< events processed so far
  PagedQueue<Pending> pend;
  std::uint32_t front_seq = 0;  ///< seq of pend[0]
  std::uint64_t emitted = 0;
  std::size_t sweep_trigger = 0;
  Time read_ts = -kTimeInfinity;  ///< read frontier (max local_ts read)
  std::uint64_t base = 0;         ///< rank's first slot in the ts side file

  bool read_eof() const { return next_chunk >= chunks.size(); }
  bool done() const { return read_eof() && ahead.empty(); }
};

class StreamEngine {
 public:
  StreamEngine(std::istream& in, TraceIndex index, const std::string& out_path,
               const StreamClcOptions& opts)
      : reader_(in, index), index_(std::move(index)), opts_(opts), out_path_(out_path) {
    CS_REQUIRE(opts_.clc.forward_decay >= 0.0 && opts_.clc.forward_decay < 1.0,
               "forward_decay must be in [0, 1)");
    CS_REQUIRE(!opts_.clc.backward_amortization || opts_.clc.backward_slope > 0.0,
               "backward_slope must be positive");
    CS_REQUIRE(opts_.horizon > 0.0, "horizon must be positive");
    CS_REQUIRE(opts_.backward_window > 0.0, "backward_window must be positive");
    CS_REQUIRE(opts_.emit_batch > 0, "emit_batch must be positive");

    ranks_.reserve(static_cast<std::size_t>(index_.meta.ranks()));
    for (Rank r = 0; r < index_.meta.ranks(); ++r) ranks_.emplace_back(ahead_pages_, pend_pages_);
    for (std::uint32_t c = 0; c < index_.chunks.size(); ++c) {
      ranks_[static_cast<std::size_t>(index_.chunks[c].rank)].chunks.push_back(c);
    }
    std::uint64_t base = 0;
    for (Rank r = 0; r < index_.meta.ranks(); ++r) {
      ranks_[static_cast<std::size_t>(r)].base = base;
      base += index_.rank_events[static_cast<std::size_t>(r)];
    }

    ts_spill_path_ = out_path_ + ".ts-spill";
    msg_spill_path_ = out_path_ + ".msg-spill";
    ts_spill_.open(ts_spill_path_, std::ios::binary | std::ios::in | std::ios::out |
                                       std::ios::trunc);
    if (!ts_spill_.good()) {
      throw TraceIoError(TraceIoErrorKind::Io,
                         "cannot open spill file for writing: " + ts_spill_path_);
    }
    update_read_frontier();
  }

  ~StreamEngine() {
    ts_spill_.close();
    msg_spill_.close();
    std::remove(ts_spill_path_.c_str());
    std::remove(msg_spill_path_.c_str());
  }

  StreamClcStats run(std::istream& raw_in) {
    CS_SPAN("clc.stream");
    {
      CS_SPAN("clc.stream.correct");
      for (;;) {
        drain();
        if (all_done()) break;
        if (!all_read_eof_) {
          read_next_chunk();
          continue;
        }
        // Everything is read but some head is still blocked: the instance
        // closures implied by the (now infinite) read frontier may unblock
        // it; if not, the input's constraint graph is cyclic or dangling and
        // we force progress on the earliest blocked event.
        closure_scan();
        drain();
        if (all_done()) break;
        if (!drained_something_) force_one();
      }
      release_leftovers();
      for (Rank r = 0; r < index_.meta.ranks(); ++r) sweep_and_emit(r);
      for (const RankState& rs : ranks_) {
        CS_ENSURE(rs.pend.empty() && rs.ahead.empty(),
                  "streaming CLC failed to drain its window");
      }
    }
    CS_ENSURE(stats_.events == index_.total_events,
              "streaming CLC processed a different event count than the index");
    merge_output(raw_in);

    if (obs::metrics_enabled()) {
      static obs::Counter& events = obs::counter("clc.events_processed");
      static obs::Counter& repaired = obs::counter("clc.violations_repaired");
      events.add(static_cast<std::int64_t>(stats_.events));
      repaired.add(static_cast<std::int64_t>(stats_.violations_repaired));
      publish_gauges();
    }

    return stats_;
  }

 private:
  // -- read side --------------------------------------------------------------

  void update_read_frontier() {
    read_low_ = kTimeInfinity;
    all_read_eof_ = true;
    for (const RankState& rs : ranks_) {
      if (rs.read_eof()) continue;
      all_read_eof_ = false;
      read_low_ = std::min(read_low_, rs.read_ts);
    }
    if (all_read_eof_) read_low_ = kTimeInfinity;
  }

  void read_next_chunk() {
    CS_SPAN("clc.stream.read");
    Rank pick = -1;
    Time lowest = kTimeInfinity;
    for (Rank r = 0; r < index_.meta.ranks(); ++r) {
      const RankState& rs = ranks_[static_cast<std::size_t>(r)];
      if (rs.read_eof()) continue;
      if (pick < 0 || rs.read_ts < lowest) {
        pick = r;
        lowest = rs.read_ts;
      }
    }
    CS_ENSURE(pick >= 0, "read_next_chunk called with all ranks at EOF");
    RankState& rs = ranks_[static_cast<std::size_t>(pick)];
    reader_.read(index_.chunks[rs.chunks[rs.next_chunk]], block_);
    ++rs.next_chunk;
    const std::vector<Event>& events = block_.events;
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (i + kIdPrefetchDistance < events.size()) {
        const Event& ahead = events[i + kIdPrefetchDistance];
        if (ahead.type == EventType::Send || ahead.type == EventType::Recv) {
          msgs_.prefetch(ahead.msg_id);
        }
      }
      const Event& e = events[i];
      register_event(pick, e);
      rs.read_ts = std::max(rs.read_ts, e.local_ts);
      const bool coll = e.type == EventType::CollBegin || e.type == EventType::CollEnd;
      rs.ahead.push_back({e.local_ts, coll ? e.coll_id : e.msg_id, e.type});
    }
    // Registration only ever adds entries, so the chunk's high-water is the
    // size after its last event.
    if (!block_.events.empty()) {
      stats_.peak_outstanding_msgs = std::max(stats_.peak_outstanding_msgs, msgs_.size());
    }
    resident_ += block_.events.size();
    stats_.peak_resident_events = std::max(stats_.peak_resident_events, resident_);
    update_read_frontier();
    maybe_spill_msgs();
    closure_scan();
    if (obs::metrics_enabled()) publish_gauges();
  }

  /// Live engine state as registry gauges, refreshed once per chunk read and
  /// once at the end of the run.
  void publish_gauges() {
    static obs::Gauge& resident = obs::gauge("clc.stream.resident_events");
    static obs::Gauge& outstanding = obs::gauge("clc.stream.outstanding_msgs");
    static obs::Gauge& peak_resident = obs::gauge("clc.stream.peak_resident_events");
    static obs::Gauge& peak_outstanding = obs::gauge("clc.stream.peak_outstanding_msgs");
    static obs::Gauge& spilled = obs::gauge("clc.stream.spilled_msgs");
    static obs::Gauge& ramp_clamped = obs::gauge("clc.stream.ramp_clamped");
    static obs::Gauge& horizon_dropped = obs::gauge("clc.stream.horizon_dropped");
    static obs::Gauge& forced = obs::gauge("clc.stream.forced");
    resident.set(static_cast<double>(resident_));
    outstanding.set(static_cast<double>(msgs_.size()));
    peak_resident.set(static_cast<double>(stats_.peak_resident_events));
    peak_outstanding.set(static_cast<double>(stats_.peak_outstanding_msgs));
    spilled.set(static_cast<double>(stats_.spilled_msgs));
    ramp_clamped.set(static_cast<double>(stats_.ramp_clamped));
    horizon_dropped.set(static_cast<double>(stats_.horizon_dropped));
    forced.set(static_cast<double>(stats_.forced));
  }

  void register_event(Rank r, const Event& e) {
    switch (e.type) {
      case EventType::Send: {
        MsgState& m = *msgs_.insert(e.msg_id).first;
        if (m.recv_dropped) ++stats_.horizon_dropped;  // edge already abandoned
        m.send_registered = true;
        m.send_ts = e.local_ts;
        m.send_rank = r;
        break;
      }
      case EventType::Recv: {
        // A receive whose send was already spilled reloads the send's record
        // so the edge is kept.  The spill released the send's backward hold,
        // though, so its emitted value may lack this receive's cap: the run
        // can diverge from the in-memory CLC, and that is what
        // horizon_dropped counts.
        bool reloaded = false;
        MsgState* m = msgs_find(e.msg_id, &reloaded);
        if (reloaded) ++stats_.horizon_dropped;
        if (m == nullptr) m = msgs_.insert(e.msg_id).first;
        m->recv_registered = true;
        break;
      }
      case EventType::CollBegin:
      case EventType::CollEnd: {
        CollInst& inst = colls_[e.coll_id];
        if (inst.closed) ++stats_.horizon_dropped;  // straggler past closure
        inst.kind = e.coll;
        inst.root = e.root;
        inst.last_ts = std::max(inst.last_ts, e.local_ts);
        if (e.type == EventType::CollBegin) {
          ++inst.begins_registered;
        } else {
          ++inst.ends_registered;
        }
        break;
      }
      default:
        break;
    }
  }

  void closure_scan() {
    for (auto it = colls_.begin(); it != colls_.end();) {
      CollInst& inst = it->second;
      if (!inst.closed && read_low_ > inst.last_ts + opts_.horizon) inst.closed = true;
      if (inst.closed && instance_done(inst)) {
        release_instance(inst);
        it = colls_.erase(it);
      } else {
        ++it;
      }
    }
  }

  static bool instance_done(const CollInst& inst) {
    return inst.ends_processed == inst.ends_registered &&
           inst.begins.size() == inst.begins_registered;
  }

  static bool instance_partial(const CollInst& inst) {
    return inst.begins_registered == 0 || inst.begins_registered != inst.ends_registered;
  }

  void release_instance(const CollInst& inst) {
    for (const BeginRec& b : inst.begins) hold_release(b.rank, b.seq);
  }

  /// Safety valve for malformed inputs: whatever pairing state survived the
  /// full drain can constrain nothing anymore, so free its holds.
  void release_leftovers() {
    for (auto& [id, inst] : colls_) release_instance(inst);
    colls_.clear();
  }

  // -- processing -------------------------------------------------------------

  bool all_done() const {
    for (const RankState& rs : ranks_) {
      if (!rs.done()) return false;
    }
    return true;
  }

  void drain() {
    drained_something_ = false;
    bool progress = true;
    while (progress) {
      progress = false;
      for (Rank r = 0; r < index_.meta.ranks(); ++r) {
        RankState& rs = ranks_[static_cast<std::size_t>(r)];
        while (!rs.ahead.empty()) {
          MsgState* m = nullptr;
          if (!head_processable(r, rs.ahead.front(), m)) break;
          process_head(r, m, /*force=*/false);
          progress = true;
          drained_something_ = true;
        }
      }
    }
  }

  void force_one() {
    Rank pick = -1;
    Time lowest = kTimeInfinity;
    for (Rank r = 0; r < index_.meta.ranks(); ++r) {
      const RankState& rs = ranks_[static_cast<std::size_t>(r)];
      if (rs.ahead.empty()) continue;
      if (pick < 0 || rs.ahead.front().ts < lowest) {
        pick = r;
        lowest = rs.ahead.front().ts;
      }
    }
    CS_ENSURE(pick >= 0, "force_one called with nothing left to process");
    const AheadEvent& e = ranks_[static_cast<std::size_t>(pick)].ahead.front();
    process_head(pick, e.type == EventType::Recv ? msgs_find(e.id) : nullptr,
                 /*force=*/true);
    ++stats_.forced;
  }

  /// For a receive, also hands its message entry (or nullptr) to `m`, so
  /// processing it takes no second lookup.
  bool head_processable(Rank r, const AheadEvent& e, MsgState*& m) {
    switch (e.type) {
      case EventType::Recv: {
        m = msgs_find(e.id);
        if (m != nullptr && m->send_processed) return true;
        if (m != nullptr && m->send_registered) return false;  // send is coming
        return all_read_eof_ || read_low_ > e.ts + opts_.horizon;
      }
      case EventType::CollEnd: {
        auto it = colls_.find(e.id);
        if (it == colls_.end()) return true;  // retired instance straggler
        const CollInst& inst = it->second;
        switch (flavor_of(inst.kind)) {
          case CollectiveFlavor::OneToN:
            if (r == inst.root) return true;  // root end takes no edges
            break;
          case CollectiveFlavor::NToOne:
            if (r != inst.root) return true;  // non-root ends take no edges
            if (inst.root_end_taken) return true;  // duplicate root end
            break;
          case CollectiveFlavor::NToN:
            break;
        }
        // Closure settles partiality and guarantees the begin set is
        // complete; all processed guarantees their forward values exist.
        return inst.closed && inst.begins.size() == inst.begins_registered;
      }
      default:
        return true;  // sends, begins, and local events never have incoming edges
    }
  }

  /// Processes the head event of rank `r`; for a receive, `m` is its message
  /// entry as msgs_find() returned it.
  void process_head(Rank r, MsgState* m, bool force) {
    RankState& rs = ranks_[static_cast<std::size_t>(r)];
    const AheadEvent e = rs.ahead.front();
    rs.ahead.pop_front(1);

    // Forward amortization, exactly as clc_detail::forward_pass.
    const Time t = e.ts;
    Time cand = t;
    if (rs.has_prev) {
      const Duration dt = std::max(0.0, t - rs.prev_input);
      const Duration carried =
          std::max(0.0, (rs.prev_lc - rs.prev_input) - opts_.clc.forward_decay * dt);
      cand = std::max(t + carried, rs.prev_lc);
    }

    Time bound = -kTimeInfinity;
    Pending p;
    p.ts = t;
    CollInst* inst = nullptr;
    MsgState* send = nullptr;
    switch (e.type) {
      case EventType::Recv: {
        if (m != nullptr && m->send_processed) {
          const Duration l_min = index_.meta.min_latency(m->send_rank, r);
          bound = m->send_lc + l_min;
          ++stats_.p2p_edges;
          send = m;
        } else if (m != nullptr) {
          // Going ahead without the edge: the matching send (seen or future)
          // must neither expect a cap nor hold its emission for one.
          m->recv_dropped = true;
        } else if (!all_read_eof_) {
          msgs_.insert(e.id).first->recv_dropped = true;
        }
        break;
      }
      case EventType::Send: {
        m = msgs_.insert(e.id).first;
        m->send_registered = true;  // forced paths may reach here unregistered
        m->send_rank = r;
        m->send_ts = t;
        m->send_seq = rs.seq;
        p.is_send = true;
        p.id = e.id;
        // The receive will cap this send's backward motion; hold until the
        // cap arrives (or the horizon proves no receive is coming).
        p.holds = (m->recv_registered || !all_read_eof_) && !m->recv_dropped ? 1 : 0;
        break;
      }
      case EventType::CollBegin: {
        auto it = colls_.find(e.id);
        if (it != colls_.end()) {
          inst = &it->second;
          p.holds = 1;  // released when the instance's edges are all applied
          p.id = e.id;
        }
        break;
      }
      case EventType::CollEnd: {
        auto it = colls_.find(e.id);
        if (it != colls_.end()) {
          inst = &it->second;
          if (inst->closed && !force && !instance_partial(*inst)) {
            bound = std::max(bound, coll_end_bound(r, *inst));
          }
        }
        break;
      }
      default:
        break;
    }

    Time lc = cand;
    if (bound > cand) {
      lc = bound;
      p.jump = bound - cand;
      ++stats_.violations_repaired;
      stats_.max_jump = std::max(stats_.max_jump, p.jump);
      if (opts_.clc.backward_amortization &&
          p.jump / opts_.clc.backward_slope > opts_.backward_window) {
        ++stats_.ramp_clamped;
      }
    }
    p.lc = lc;

    // Post-lc bookkeeping: caps flow backward from this event onto the
    // sources of the edges just applied (cap = lc - l_min - margin, exactly
    // the in-memory backward_pass pre-computation).
    if (send != nullptr) {
      const Duration l_min = index_.meta.min_latency(send->send_rank, r);
      cap_apply(send->send_rank, send->send_seq, lc - l_min - kFpMargin);
      hold_release(send->send_rank, send->send_seq);
      msgs_erase(send);
    }
    if (e.type == EventType::Send) {
      m->send_lc = lc;
      m->send_processed = true;
    }
    if (e.type == EventType::CollBegin && inst != nullptr) {
      inst->begins.push_back({r, rs.seq, lc});
    }
    if (e.type == EventType::CollEnd && inst != nullptr) {
      if (inst->closed && !force && !instance_partial(*inst)) {
        coll_end_caps(r, *inst, lc);
      }
      ++inst->ends_processed;
      if (inst->closed && instance_done(*inst)) {
        release_instance(*inst);
        colls_.erase(e.id);
      }
    }

    rs.prev_input = t;
    rs.prev_lc = lc;
    rs.has_prev = true;
    ++rs.seq;
    ++stats_.events;
    rs.pend.push_back(p);
    if (rs.pend.size() >= std::max(opts_.emit_batch, rs.sweep_trigger)) sweep_and_emit(r);
  }

  /// Max over the logical edges into a collective end, mirroring the edge set
  /// derive_logical_messages builds (first-match roots, partials excluded
  /// before this is called).
  Time coll_end_bound(Rank r, const CollInst& inst) {
    Time bound = -kTimeInfinity;
    switch (flavor_of(inst.kind)) {
      case CollectiveFlavor::OneToN: {
        const BeginRec* root = find_root_begin(inst);
        if (root != nullptr && r != inst.root) {
          bound = root->lc + index_.meta.min_latency(root->rank, r);
          ++stats_.logical_edges;
        }
        break;
      }
      case CollectiveFlavor::NToOne:
        for (const BeginRec& b : inst.begins) {
          if (b.rank == inst.root) continue;
          bound = std::max(bound, b.lc + index_.meta.min_latency(b.rank, r));
          ++stats_.logical_edges;
        }
        break;
      case CollectiveFlavor::NToN:
        for (const BeginRec& b : inst.begins) {
          if (b.rank == r) continue;
          bound = std::max(bound, b.lc + index_.meta.min_latency(b.rank, r));
          ++stats_.logical_edges;
        }
        break;
    }
    return bound;
  }

  void coll_end_caps(Rank r, CollInst& inst, Time lc) {
    switch (flavor_of(inst.kind)) {
      case CollectiveFlavor::OneToN: {
        const BeginRec* root = find_root_begin(inst);
        if (root != nullptr && r != inst.root) {
          cap_apply(root->rank, root->seq, lc - index_.meta.min_latency(root->rank, r) - kFpMargin);
        }
        break;
      }
      case CollectiveFlavor::NToOne:
        if (r != inst.root || inst.root_end_taken) break;
        inst.root_end_taken = true;
        for (const BeginRec& b : inst.begins) {
          if (b.rank == inst.root) continue;
          cap_apply(b.rank, b.seq, lc - index_.meta.min_latency(b.rank, r) - kFpMargin);
        }
        break;
      case CollectiveFlavor::NToN:
        for (const BeginRec& b : inst.begins) {
          if (b.rank == r) continue;
          cap_apply(b.rank, b.seq, lc - index_.meta.min_latency(b.rank, r) - kFpMargin);
        }
        break;
    }
  }

  static const BeginRec* find_root_begin(const CollInst& inst) {
    for (const BeginRec& b : inst.begins) {
      if (b.rank == inst.root) return &b;  // first match, like derive_logical_messages
    }
    return nullptr;
  }

  // NToOne edges all point at the *first* root end; a duplicate root end must
  // be edge-free, which coll_end_caps enforces via root_end_taken — but the
  // bound, too, must only be taken once.
  // (coll_end_bound is only reached for a root end when !root_end_taken,
  // because head_processable short-circuits duplicates to edge-free.)

  void cap_apply(Rank r, std::uint32_t seq, Time cap) {
    RankState& rs = ranks_[static_cast<std::size_t>(r)];
    if (seq < rs.front_seq) {
      // The target was already emitted.  Only out-of-ramp entries can be
      // emitted while their cap is still pending (in-ramp finality demands
      // holds == 0), and a cap on an out-of-ramp entry is a no-op in the
      // in-memory backward pass too — its value is the forward value either
      // way.  Safe to ignore.
      return;
    }
    Pending& p = rs.pend[seq - rs.front_seq];
    p.cap = std::min(p.cap, cap);
  }

  void hold_release(Rank r, std::uint32_t seq) {
    RankState& rs = ranks_[static_cast<std::size_t>(r)];
    if (seq < rs.front_seq) return;  // already emitted (cap was a no-op)
    Pending& p = rs.pend[seq - rs.front_seq];
    if (p.holds > 0) --p.holds;
  }

  // -- message table spill ----------------------------------------------------

  struct SpillRecord {
    std::int64_t id;
    Time send_ts;
    Time send_lc;
    std::int32_t send_rank;
    std::uint32_t send_seq;
  };

  void maybe_spill_msgs() {
    if (msgs_.size() <= opts_.max_outstanding_msgs) return;
    if (!msg_spill_.is_open()) {
      msg_spill_.open(msg_spill_path_, std::ios::binary | std::ios::in | std::ios::out |
                                           std::ios::trunc);
      if (!msg_spill_.good()) {
        throw TraceIoError(TraceIoErrorKind::Io,
                           "cannot open spill file for writing: " + msg_spill_path_);
      }
    }
    // Spill processed sends whose receive is both unseen and already beyond
    // the horizon: no receive can legitimately appear anymore, so the
    // backward hold is released and only the compact send record is kept on
    // disk in case a (contract-breaking) receive shows up after all.
    msgs_.erase_if([&](const MsgState& m) {
      if (!m.send_processed || m.recv_registered || m.recv_dropped ||
          read_low_ <= m.send_ts + opts_.horizon) {
        return false;
      }
      hold_release(m.send_rank, m.send_seq);
      SpillRecord rec{m.id, m.send_ts, m.send_lc, m.send_rank, m.send_seq};
      msg_spill_.seekp(0, std::ios::end);
      const auto off = static_cast<std::uint64_t>(msg_spill_.tellp());
      msg_spill_.write(reinterpret_cast<const char*>(&rec), sizeof rec);
      if (!msg_spill_.good()) {
        throw TraceIoError(TraceIoErrorKind::Io, "spill write failed: " + msg_spill_path_);
      }
      spill_index_.insert(m.id).first->offset = off;
      ++stats_.spilled_msgs;
      return true;
    });
  }

  /// The message entry of `id`, reloaded from the spill file when it was
  /// spilled (and then *reloaded is set); nullptr when there is none.
  MsgState* msgs_find(std::int64_t id, bool* reloaded = nullptr) {
    if (MsgState* m = msgs_.find(id)) return m;
    if (spill_index_.empty()) return nullptr;
    SpillSlot* spilled = spill_index_.find(id);
    if (spilled == nullptr) return nullptr;
    msg_spill_.seekg(static_cast<std::streamoff>(spilled->offset));
    SpillRecord rec;
    msg_spill_.read(reinterpret_cast<char*>(&rec), sizeof rec);
    if (!msg_spill_.good()) {
      throw TraceIoError(TraceIoErrorKind::Io, "spill read failed: " + msg_spill_path_);
    }
    spill_index_.erase(spilled);
    MsgState& m = *msgs_.insert(id).first;
    m.send_ts = rec.send_ts;
    m.send_lc = rec.send_lc;
    m.send_rank = rec.send_rank;
    m.send_seq = rec.send_seq;
    m.send_registered = true;
    m.send_processed = true;
    if (reloaded != nullptr) *reloaded = true;
    return &m;
  }

  /// Retires the entry `m` together with any spilled record of its id.
  void msgs_erase(MsgState* m) {
    const std::int64_t id = m->id;
    msgs_.erase(m);
    if (spill_index_.empty()) return;
    if (SpillSlot* spilled = spill_index_.find(id)) spill_index_.erase(spilled);
  }

  // -- backward amortization & emission ---------------------------------------

  /// Recomputes backward-amortized values over the retention deque (newest to
  /// oldest), decides which entries are *final* — provably equal to what the
  /// in-memory backward pass (with the window clamp) would produce no matter
  /// what is processed later — and emits the maximal final prefix.
  ///
  /// Finality rules (B = backward_window, prev_lc = newest forward value):
  ///   * jump events are final (the backward pass never moves them);
  ///   * an entry with lc < prev_lc - B is "B-safe": every future jump's
  ///     clamped ramp (window <= B) starts at >= prev_lc and cannot reach it;
  ///   * a B-safe entry outside every retained ramp keeps its forward value;
  ///   * a B-safe in-ramp entry is final once its caps can no longer change
  ///     (holds == 0) and its candidate value cannot be clamped by any
  ///     *future* successor: candidate <= succ_lb, a lower bound built from
  ///     final values (exact), non-final forward values (final >= forward),
  ///     and prev_lc for everything not yet processed — or the entire newer
  ///     suffix is final with the rank fully processed, making the successor
  ///     chain itself exact.
  void sweep_and_emit(Rank r) {
    RankState& rs = ranks_[static_cast<std::size_t>(r)];
    const std::size_t n = rs.pend.size();
    if (n == 0) return;
    CS_SPAN("clc.stream.sweep");

    val_.resize(n);
    fin_.resize(n);
    const bool rank_final = rs.done();

    if (!opts_.clc.backward_amortization) {
      for (std::size_t i = 0; i < n; ++i) {
        val_[i] = rs.pend[i].lc;
        fin_[i] = 1;
      }
    } else {
      const double slope = opts_.clc.backward_slope;
      const double B = opts_.backward_window;
      double succ_est = kTimeInfinity;
      double succ_lb = rank_final ? kTimeInfinity : rs.prev_lc;
      bool suffix_exact = rank_final;
      bool have_jump = false;
      double jump_at = 0.0;
      double jump_size = 0.0;
      double window = 0.0;
      for (std::size_t i = n; i-- > 0;) {
        Pending& p = rs.pend[i];
        // Horizon release of send holds: once the read frontier proves no
        // receive is coming, the cap is settled at +inf.
        if (p.holds > 0 && p.is_send) {
          const MsgState* m = msgs_find(p.id);
          if ((m == nullptr || !m->recv_registered || m->recv_dropped) &&
              read_low_ > p.ts + opts_.horizon) {
            p.holds = 0;
          }
        }

        if (p.jump > 0.0) {
          have_jump = true;
          jump_at = p.lc;
          jump_size = p.jump;
          window = std::min(jump_size / slope, B);
          val_[i] = p.lc;
          fin_[i] = 1;
          succ_est = std::min(succ_est, p.lc);
          succ_lb = std::min(succ_lb, p.lc);
          continue;
        }

        double v = p.lc;
        bool in_ramp = false;
        double uncapped = 0.0;  // candidate before the successor clamp
        if (have_jump) {
          const double dist = jump_at - p.lc;
          if (dist >= 0.0 && dist < window) {
            in_ramp = true;
            const double shift = jump_size * (1.0 - dist / window);
            uncapped = std::min(p.lc + shift, p.cap);
            v = std::max(std::min(uncapped, succ_est), p.lc);
          } else if (dist >= window) {
            have_jump = false;
          }
        }
        const bool b_safe = rank_final || p.lc < rs.prev_lc - B;
        bool final_entry;
        if (!in_ramp) {
          final_entry = b_safe;
        } else {
          final_entry =
              b_safe && p.holds == 0 && (uncapped <= succ_lb || suffix_exact);
        }
        val_[i] = v;
        fin_[i] = final_entry ? 1 : 0;
        suffix_exact = suffix_exact && final_entry;
        succ_est = std::min(succ_est, v);
        succ_lb = std::min(succ_lb, final_entry ? v : p.lc);
      }
    }

    std::size_t k = 0;
    while (k < n && fin_[k]) ++k;
    if (k > 0) {
      // Records are (corrected_ts, jump) pairs: the jump rides along so the
      // merge pass can fold total_jump in global (rank-major) order, giving
      // the exact same floating-point accumulation as finalize_stats.
      emit_buf_.resize(2 * k);
      for (std::size_t i = 0; i < k; ++i) {
        emit_buf_[2 * i] = val_[i];
        emit_buf_[2 * i + 1] = rs.pend[i].jump;
      }
      ts_spill_.seekp(static_cast<std::streamoff>((rs.base + rs.emitted) * 16));
      ts_spill_.write(reinterpret_cast<const char*>(emit_buf_.data()),
                      static_cast<std::streamsize>(k * 16));
      if (!ts_spill_.good()) {
        throw TraceIoError(TraceIoErrorKind::Io, "spill write failed: " + ts_spill_path_);
      }
      rs.pend.pop_front(k);
      rs.front_seq += static_cast<std::uint32_t>(k);
      rs.emitted += k;
      resident_ -= k;
      rs.sweep_trigger = rs.pend.size() + opts_.emit_batch;
    } else {
      // Nothing was emittable: back off so a long-blocked window does not
      // degenerate into a re-sweep per appended event.
      rs.sweep_trigger = rs.pend.size() * 2 + opts_.emit_batch;
    }
  }

  // -- output merge -----------------------------------------------------------

  /// Second pass over the input: re-reads every chunk in file order, splices
  /// the corrected timestamps from the side file into its encoded events
  /// (ChunkReader::splice) and streams the chunks, unchanged in shape,
  /// through TraceWriter::append_chunk into out_path + ".tmp", renamed into
  /// place only after finish() sealed the footer — a crash mid-merge leaves
  /// no half-written trace behind under the output name.
  void merge_output(std::istream& raw_in) {
    CS_SPAN("clc.stream.merge");
    ts_spill_.flush();
    ts_spill_.seekg(0);

    const std::string tmp_path = out_path_ + ".tmp";
    std::ofstream outf(tmp_path, std::ios::binary | std::ios::trunc);
    if (!outf.good()) {
      throw TraceIoError(TraceIoErrorKind::Io,
                         "cannot open trace file for writing: " + tmp_path);
    }
    try {
      write_merged(raw_in, outf, tmp_path);
      if (std::rename(tmp_path.c_str(), out_path_.c_str()) != 0) {
        throw TraceIoError(TraceIoErrorKind::Io,
                           "cannot move corrected trace into place: " + out_path_);
      }
    } catch (...) {
      // No exit from a failed merge leaves the half-written file behind.
      outf.close();
      std::remove(tmp_path.c_str());
      throw;
    }
  }

  /// Writes the corrected trace to `outf` (the file `tmp_path`).
  void write_merged(std::istream& raw_in, std::ofstream& outf, const std::string& tmp_path) {
    TraceWriter writer(outf, index_.meta);
    ChunkReader merge_reader(raw_in, index_);
    std::vector<double> records;  // (corrected_ts, jump) per event
    std::vector<std::uint8_t> spliced;
    // File order is rank-major (the writer enforces it), so this fold over
    // the per-event jumps reproduces finalize_stats' accumulation exactly.
    double total_jump = 0.0;
    for (const ChunkRef& ref : index_.chunks) {
      const std::size_t n = ref.count;
      records.resize(2 * n);
      ts_spill_.read(reinterpret_cast<char*>(records.data()),
                     static_cast<std::streamsize>(records.size() * 8));
      if (static_cast<std::size_t>(ts_spill_.gcount()) != records.size() * 8) {
        throw TraceIoError(TraceIoErrorKind::Io, "spill read failed: " + ts_spill_path_);
      }
      // Compacts the timestamps to the front in place: slot i is written
      // only after slots 2i and 2i + 1 were read.
      for (std::size_t i = 0; i < n; ++i) {
        if (records[2 * i + 1] > 0.0) total_jump += records[2 * i + 1];
        records[i] = records[2 * i];
      }
      writer.append_chunk(ref.rank, ref.count,
                          merge_reader.splice(ref, {records.data(), n}, spliced));
    }
    stats_.total_jump = total_jump;
    writer.finish();
    outf.close();
    if (!outf.good()) {
      throw TraceIoError(TraceIoErrorKind::Io, "trace write failed: " + tmp_path);
    }
  }

  ChunkReader reader_;
  TraceIndex index_;
  StreamClcOptions opts_;
  std::string out_path_;
  std::string ts_spill_path_;
  std::string msg_spill_path_;
  std::fstream ts_spill_;
  std::fstream msg_spill_;
  PagePool<AheadEvent> ahead_pages_;
  PagePool<Pending> pend_pages_;
  std::vector<RankState> ranks_;
  IdTable<MsgState> msgs_;
  IdTable<SpillSlot> spill_index_;
  std::unordered_map<std::int64_t, CollInst> colls_;
  EventBlock block_;
  // Sweep scratch, shared by the ranks (sweeps never nest).
  std::vector<double> val_;
  std::vector<char> fin_;
  std::vector<double> emit_buf_;
  StreamClcStats stats_;
  Time read_low_ = kTimeInfinity;
  bool all_read_eof_ = false;
  bool drained_something_ = false;
  std::size_t resident_ = 0;
};

}  // namespace

StreamClcStats clc_stream_file(const std::string& in_path, const std::string& out_path,
                               const StreamClcOptions& options) {
  std::ifstream in(in_path, std::ios::binary);
  if (!in.good()) {
    throw TraceIoError(TraceIoErrorKind::Io, "cannot open trace file for reading: " + in_path);
  }
  // One sequential validation pass: any input defect — bad CRC, missing
  // footer, reordered chunks — throws here, before any output exists.
  TraceIndex index = index_trace_v2(in);
  StreamEngine engine(in, std::move(index), out_path, options);
  return engine.run(in);
}

}  // namespace chronosync
