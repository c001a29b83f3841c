#include "sync/clc_parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/expect.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "sync/clc_detail.hpp"

namespace chronosync {

namespace {

// The parallel forward pass replays each rank's event stream on its owning
// worker thread.  Cross-rank constraint edges are the only synchronization
// points: an event may be processed once every constraining send has been
// *published* by its owner.
//
// Work is partitioned by *contiguous* CSR rank ranges: thread t owns ranks
// [rank_lo, rank_hi) chosen so every thread carries a near-equal share of the
// event total.  Because global event numbering is rank-major, each thread
// then reads and writes one contiguous slice of the flat lc[]/input
// arrays — the Eq.-1 edge scan and the amortization updates stream linearly
// through memory, and cross-thread false sharing is confined to the single
// cache line at each partition boundary.  Ownership tests reduce to one
// range comparison on the global index, with no per-edge rank lookup needed
// to skip the atomics on thread-local edges.
//
// Publication is epoch-based: one cache-line-padded atomic counter per rank
// holds the number of that rank's events whose corrected timestamps are
// visible (the counter store/loads carry the release/acquire edge covering
// the lc[] writes).  Owners publish in batches — after every
// options.publish_batch events of an uninterrupted drain, and always when a
// rank blocks or finishes — never per event.  The mid-drain batch point
// bounds how stale a long-running producer may appear to its consumers; the
// on-block publish keeps the protocol live (a fully blocked system always
// has every processed event published, so some thread can run).
//
// Wakeups are per-thread doorbells (an eventcount), not a global
// mutex/condition_variable: a worker whose ranks are all blocked re-checks
// readiness against its doorbell value and then waits on the doorbell alone.
// A publisher of rank X rings only the doorbells of *sleeping* threads that
// own a rank constrained by X (the subscriber list is precomputed from the
// CSR edges), so a publication wakes exactly the threads whose blocking
// edges it can satisfy.
//
// Waiting on the blocking edge's counter directly would be even narrower but
// has a liveness hole when a thread owns several ranks: a publication can
// make one of its *other* ranks runnable while it sleeps on a counter that
// never advances.  The doorbell covers "any of my ranks may have become
// ready" with a single waitable word per thread.
struct alignas(64) RankProgress {
  std::atomic<std::uint32_t> completed{0};
};

struct alignas(64) Doorbell {
  std::atomic<std::uint64_t> epoch{0};
  std::atomic<std::uint8_t> asleep{0};
};

struct SharedState {
  // The corrected timestamps live in one flat array indexed by global event
  // index and sliced contiguously per thread.  (The input timestamps stay in
  // the TimestampArray's per-rank rows — each row is already contiguous, each
  // value is read exactly once, and flattening them up front was measured to
  // cost more than it saves.)  Jumps are rare, so each rank keeps a sparse
  // list, appended in local order by the rank's owner only.
  std::vector<Time> lc;
  std::vector<std::vector<clc_detail::Jump>> rank_jumps;
  std::vector<RankProgress> progress;  // one epoch counter per rank
  std::vector<Doorbell> doorbell;      // one per worker thread
  // subscribers[x]: worker threads owning a rank constrained by rank x.
  std::vector<std::vector<int>> subscribers;

  SharedState(std::size_t events, std::size_t ranks, std::size_t threads)
      : lc(events, 0.0), rank_jumps(ranks), progress(ranks), doorbell(threads) {}
};

struct RankCursor {
  Rank rank;
  std::uint32_t next = 0;       ///< events processed (locally visible)
  std::uint32_t published = 0;  ///< events published to other threads
  bool has_prev = false;
  Time prev_input = 0.0;
  Time prev_lc = 0.0;
};

/// One worker's forward replay over its contiguous rank range
/// [mine.front().rank, mine.back().rank].
void forward_worker(const ReplaySchedule& schedule, const TimestampArray& input,
                    const ClcOptions& options, int self, std::vector<RankCursor>& mine,
                    SharedState& shared) {
  // Observability: the level is latched once per worker (it does not change
  // mid-run), hot-loop tallies stay in plain locals, and the registry is
  // touched exactly once at worker exit — with obs off the only residue is
  // a handful of dead register increments.
  const bool tracing = obs::trace_enabled();
  CS_SPAN("clc.forward_worker");
  std::uint64_t spin_iters = 0;
  std::uint64_t doorbell_sleeps = 0;
  std::uint64_t doorbell_wakeups = 0;
  std::uint64_t published_batches = 0;
  std::uint64_t events_done = 0;

  if (mine.empty()) return;  // skewed partitions can leave a thread idle

  // A solo worker has no consumers: skip the progress stores entirely (the
  // owned-range fast path in edge_done() never reads them).
  const bool solo = shared.doorbell.size() == 1;

  // Raw views over the schedule's CSR arrays: the per-edge hot path must not
  // pay the bounds-checked accessors' branches or span re-construction.
  const Rank* const ranks_of = schedule.ranks_of().data();
  const std::uint32_t* const rank_off = schedule.rank_offsets().data();
  const std::uint32_t* const in_off = schedule.incoming_offsets().data();
  const ReplaySchedule::ConstraintEdge* const in_edges = schedule.incoming_edges().data();

  // Owned global-index range: contiguous because ownership is a contiguous
  // rank range and global numbering is rank-major.
  const std::uint32_t g_lo = rank_off[static_cast<std::size_t>(mine.front().rank)];
  const std::uint32_t g_hi = rank_off[static_cast<std::size_t>(mine.back().rank) + 1];

  // Local watermark per owned rank, so self-edges never touch atomics.
  const Rank rank_lo = mine.front().rank;
  std::vector<std::uint32_t> self_next(mine.size(), 0);

  const std::uint32_t batch = static_cast<std::uint32_t>(options.publish_batch);

  // seq_cst loads cost the same as acquire on mainstream targets and make
  // the sleep protocol's "publisher sees my asleep flag or I see its
  // counter" argument a plain total-order one.
  auto edge_done = [&](std::uint32_t src) {
    const Rank rs = ranks_of[src];
    const std::uint32_t is = src - rank_off[static_cast<std::size_t>(rs)];
    if (src >= g_lo && src < g_hi) {
      return self_next[static_cast<std::size_t>(rs - rank_lo)] > is;
    }
    return shared.progress[static_cast<std::size_t>(rs)].completed.load(
               std::memory_order_seq_cst) > is;
  };
  auto ready = [&](const RankCursor& c) {
    const std::uint32_t g = rank_off[static_cast<std::size_t>(c.rank)] + c.next;
    for (std::uint32_t e = in_off[g]; e < in_off[g + 1]; ++e) {
      if (!edge_done(in_edges[e].source)) return false;
    }
    return true;
  };
  // Readiness check and clock-condition bound in one sweep over the event's
  // incoming edges; `bound` is only meaningful when the return value is true.
  auto ready_bound = [&](std::uint32_t g, Time& bound) {
    bound = -kTimeInfinity;
    for (std::uint32_t e = in_off[g]; e < in_off[g + 1]; ++e) {
      const auto& edge = in_edges[e];
      if (!edge_done(edge.source)) return false;
      bound = std::max(bound, shared.lc[edge.source] + edge.l_min);
    }
    return true;
  };

  auto publish = [&](RankCursor& c) {
    // Batched publication: one store + a ring of the (usually empty) set of
    // sleeping subscriber threads, never per event.
    auto& ctr = shared.progress[static_cast<std::size_t>(c.rank)].completed;
    ctr.store(c.next, std::memory_order_seq_cst);
    ++published_batches;
    if (tracing) obs::counter_sample("clc.published_batch", c.next - c.published);
    c.published = c.next;
    for (const int t : shared.subscribers[static_cast<std::size_t>(c.rank)]) {
      if (t == self) continue;
      auto& bell = shared.doorbell[static_cast<std::size_t>(t)];
      if (bell.asleep.load(std::memory_order_seq_cst) != 0) {
        bell.epoch.fetch_add(1, std::memory_order_seq_cst);
        bell.epoch.notify_one();
      }
    }
  };

  std::size_t remaining = 0;
  for (const auto& c : mine) {
    remaining += schedule.rank_size(c.rank) - c.next;
  }

  auto& bell = shared.doorbell[static_cast<std::size_t>(self)];
  // Blocked workers yield a few times before committing to a futex sleep:
  // on oversubscribed machines the publisher usually runs within one
  // quantum, which turns most sleep/ring/wake syscall triples into a single
  // yield; on idle cores the bounded spin costs microseconds at worst.
  const int max_spins = 4 * static_cast<int>(shared.doorbell.size());
  int spins = 0;
  while (remaining > 0) {
    bool advanced = false;
    for (auto& c : mine) {
      const std::uint32_t n = schedule.rank_size(c.rank);
      const std::uint32_t base = rank_off[static_cast<std::size_t>(c.rank)];
      const Time* const in_row = input.of_rank(c.rank).data();
      auto& jumps = shared.rank_jumps[static_cast<std::size_t>(c.rank)];
      Time bound;
      while (c.next < n && ready_bound(base + c.next, bound)) {
        const std::uint32_t g = base + c.next;
        const Time t = in_row[c.next];

        Time cand = t;
        if (c.has_prev) {
          const Duration dt = std::max(0.0, t - c.prev_input);
          const Duration carried =
              std::max(0.0, (c.prev_lc - c.prev_input) - options.forward_decay * dt);
          cand = std::max(t + carried, c.prev_lc);
        }
        Time lc = cand;
        if (bound > cand) {
          lc = bound;
          jumps.push_back({g, bound - cand});
        }
        shared.lc[g] = lc;

        c.prev_input = t;
        c.prev_lc = lc;
        c.has_prev = true;
        ++c.next;
        self_next[static_cast<std::size_t>(c.rank - rank_lo)] = c.next;
        --remaining;
        ++events_done;
        advanced = true;
        // Mid-drain batch point: a long uninterrupted run publishes every
        // `batch` events so its consumers can pipeline behind it.
        if (!solo && c.next - c.published >= batch) publish(c);
      }
      // A finished rank publishes its final count immediately: this worker
      // may stay busy (and thus never reach the blocked-flush below) for a
      // long time while others still wait on the tail of this rank.
      if (!solo && c.next == n && c.next != c.published) publish(c);
    }

    if (advanced) {
      spins = 0;
    } else if (remaining > 0) {
      // A full pass made no progress: every owned rank is blocked on a
      // remote send.  Flush all unpublished progress first — the threads we
      // are about to wait on may in turn be waiting on exactly these events,
      // so batching must never withhold them across a blocking boundary.
      // (This is what keeps batched publication deadlock-free: a blocked or
      // sleeping worker always has everything it processed published.)
      for (auto& c : mine) {
        if (c.next != c.published) publish(c);
      }
      if (spins < max_spins) {
        ++spins;
        ++spin_iters;
        std::this_thread::yield();
        continue;
      }
      // All owned ranks are blocked on remote sends.  Announce the sleep,
      // re-check readiness (a publisher either saw the asleep flag and rings
      // the doorbell, or its counter store precedes our re-check and we see
      // it — no missed wakeup either way), then wait on the doorbell.
      const std::uint64_t seen = bell.epoch.load(std::memory_order_seq_cst);
      bell.asleep.store(1, std::memory_order_seq_cst);
      bool any_ready = false;
      for (const auto& c : mine) {
        if (c.next < schedule.rank_size(c.rank) && ready(c)) {
          any_ready = true;
          break;
        }
      }
      if (!any_ready) {
        ++doorbell_sleeps;
        if (tracing) {
          // Epoch lag: how much of this worker's assignment is still blocked
          // behind remote publications at the moment it gives up the CPU.
          obs::counter_sample("clc.epoch_lag", static_cast<double>(remaining));
        }
        bell.epoch.wait(seen, std::memory_order_seq_cst);
        ++doorbell_wakeups;
        if (tracing) {
          obs::counter_sample("clc.doorbell_wakeups", static_cast<double>(doorbell_wakeups));
        }
      }
      bell.asleep.store(0, std::memory_order_seq_cst);
      spins = 0;
    }
  }

  if (tracing) obs::counter_sample("clc.spin_iters", static_cast<double>(spin_iters));
  if (obs::metrics_enabled()) {
    obs::counter("clc.spin_iters").add(static_cast<std::int64_t>(spin_iters));
    obs::counter("clc.doorbell_sleeps").add(static_cast<std::int64_t>(doorbell_sleeps));
    obs::counter("clc.doorbell_wakeups").add(static_cast<std::int64_t>(doorbell_wakeups));
    obs::counter("clc.published_batches").add(static_cast<std::int64_t>(published_batches));
    obs::counter("clc.worker_events").add(static_cast<std::int64_t>(events_done));
  }
}

/// Contiguous, event-balanced rank partition: rank r goes to the thread
/// whose cumulative-event quota the rank's midpoint falls into, which keeps
/// every thread's share within one rank of the ideal events/threads split
/// while preserving rank order (and therefore global-index contiguity).
std::vector<int> partition_ranks(const ReplaySchedule& schedule, int ranks, int threads) {
  std::vector<int> owner(static_cast<std::size_t>(ranks), 0);
  const auto total = static_cast<double>(schedule.events());
  const auto rank_off = schedule.rank_offsets();
  for (Rank r = 0; r < ranks; ++r) {
    const double mid = (static_cast<double>(rank_off[static_cast<std::size_t>(r)]) +
                        static_cast<double>(rank_off[static_cast<std::size_t>(r) + 1])) /
                       2.0;
    int t = total > 0.0 ? static_cast<int>(mid * threads / total) : 0;
    t = std::clamp(t, 0, threads - 1);
    // Monotone by construction (mid is increasing), so ranges stay contiguous.
    owner[static_cast<std::size_t>(r)] = t;
  }
  return owner;
}

}  // namespace

ClcResult controlled_logical_clock_parallel(const Trace& trace, const ReplaySchedule& schedule,
                                            const TimestampArray& input,
                                            const ClcOptions& options, int threads) {
  CS_SPAN("clc.parallel");
  if (trace.ranks() == 0 || schedule.events() == 0) {
    // Empty traces: nothing to replay, and clamping threads to the rank count
    // must not end up demanding a zero-thread pool.
    ClcResult empty;
    empty.corrected = input;
    return empty;
  }
  CS_REQUIRE(options.forward_decay >= 0.0 && options.forward_decay < 1.0,
             "forward_decay must be in [0, 1)");
  CS_REQUIRE(options.publish_batch >= 1, "publish_batch must be >= 1");
  CS_REQUIRE(options.min_events_per_thread >= 1, "min_events_per_thread must be >= 1");

  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 2;
  }
  threads = std::max(1, std::min(threads, trace.ranks()));
  // Small traces do not amortize per-thread costs: cap the pool so each
  // worker owns at least min_events_per_thread events.
  const auto event_cap = static_cast<int>(
      schedule.events() / static_cast<std::size_t>(options.min_events_per_thread));
  threads = std::max(1, std::min(threads, event_cap));

  // One phase span alive at a time; emplace() closes the previous phase.
  std::optional<obs::Span> phase_span;
  phase_span.emplace("clc.partition");
  SharedState shared(schedule.events(), static_cast<std::size_t>(trace.ranks()),
                     static_cast<std::size_t>(threads));

  const std::vector<int> owner = partition_ranks(schedule, trace.ranks(), threads);
  std::vector<std::vector<RankCursor>> owned(static_cast<std::size_t>(threads));
  for (Rank r = 0; r < trace.ranks(); ++r) {
    owned[static_cast<std::size_t>(owner[static_cast<std::size_t>(r)])].push_back(
        {r, 0, 0, false, 0.0, 0.0});
  }

  // Subscriber lists: thread t subscribes to rank x when some edge runs from
  // an event of x into an event of a rank t owns.  A solo run never
  // publishes, so the edge sweep would be pure setup cost.
  shared.subscribers.resize(static_cast<std::size_t>(trace.ranks()));
  if (threads > 1) {
    std::vector<char> seen(static_cast<std::size_t>(trace.ranks()) *
                               static_cast<std::size_t>(threads),
                           0);
    const auto ranks_of = schedule.ranks_of();
    for (std::uint32_t g = 0; g < schedule.events(); ++g) {
      const int t = owner[static_cast<std::size_t>(ranks_of[g])];
      for (const auto& edge : schedule.incoming(g)) {
        const auto x = static_cast<std::size_t>(ranks_of[edge.source]);
        auto& flag =
            seen[x * static_cast<std::size_t>(threads) + static_cast<std::size_t>(t)];
        if (!flag) {
          flag = 1;
          shared.subscribers[x].push_back(t);
        }
      }
    }
  }

  phase_span.emplace("clc.forward_parallel");

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      obs::set_thread_name("clc-worker-" + std::to_string(t));
      forward_worker(schedule, input, options, t, owned[static_cast<std::size_t>(t)],
                     shared);
    });
  }
  for (auto& th : pool) th.join();
  phase_span.emplace("clc.merge");

  clc_detail::ForwardPassResult fwd;
  fwd.lc = std::move(shared.lc);
  fwd.rank_jumps = std::move(shared.rank_jumps);
  // Aggregates come from the jump lists in global-index order, never from
  // per-thread accumulation, so the reported statistics are independent of
  // the thread count and bit-identical to the sequential implementation.
  clc_detail::finalize_stats(fwd);

  if (options.backward_amortization) {
    clc_detail::backward_pass(trace, schedule, fwd, options);
  }

  ClcResult result;
  result.corrected = input;
  for (Rank r = 0; r < trace.ranks(); ++r) {
    auto& v = result.corrected.of_rank(r);
    const std::uint32_t base = schedule.rank_begin(r);
    for (std::uint32_t i = 0; i < v.size(); ++i) {
      v[i] = fwd.lc[base + i];
    }
  }
  result.violations_repaired = fwd.violations_repaired;
  result.max_jump = fwd.max_jump;
  result.total_jump = fwd.total_jump;
  return result;
}

}  // namespace chronosync
