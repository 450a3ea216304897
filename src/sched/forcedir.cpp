#include "sched/forcedir.hpp"

#include <algorithm>
#include <atomic>
#include <cfloat>
#include <climits>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "sched/core.hpp"

namespace hls {

namespace {

// Placing fragment `k` at cycle `c` implies, through the carry chain, that
// every earlier fragment of the op moves to <= c and every later one to
// >= c. Candidate evaluation is the innermost loop of the scheduler, so
// the implied windows are never materialized per candidate: feasibility and
// force are computed straight from the chain, and the winner's chain is
// clamped in place once per commit (SchedulerCore::tighten_chain). The
// arithmetic and its order are exactly those of the historical
// vector-copying implementation, keeping every schedule bit-identical.
//
// A commit changes windows only on the committed fragment's carry chain,
// so everything derived from windows is maintained per chain, not per
// fragment. Each round works in four stages:
//
//   1. distribution(): the one full O(n) pass per commit. Its
//      floating-point sum order feeds every force, so it stays a recompute
//      in fragment order rather than an incremental update. Prefix sums
//      pre[x] = dg[0] + ... + dg[x-1] follow it.
//   2. The bound scan over the eligible list (unplaced fragments whose
//      carry producer is placed — kept ascending and updated per commit).
//      ChainAggregates turn chain feasibility into a window intersection,
//      and the oracle's earliest-cycle bound cuts the cycles below it: the
//      oracle would reject every one of them on an operand word computed
//      in a later cycle. Every surviving (fragment, cycle) is scored ONCE,
//      by force_bound: a certified lower bound on its exact force_of value
//      that reads each window's dg sum from `pre` in O(1), so a candidate
//      costs O(chain length) instead of O(window x chain length). Scans run
//      serially or chunked across worker threads; each bound is a pure
//      function of (windows, pre), so the partition cannot change a bit.
//   3. Lazy refinement. A min-heap keyed (key, fragment, cycle) holds the
//      bounds. A popped bound is replaced by its exact force_of value and
//      pushed back; only a popped exact candidate is probed with try_place.
//      Every bound is at most its exact force, so when an exact candidate
//      X is on top, every other entry Y has exact (force, fragment, cycle)
//      after X's: either key(Y) > force(X), and force(Y) >= key(Y), or
//      key(Y) == force(X) with Y's (fragment, cycle) later, and
//      force(Y) >= key(Y). Exact candidates therefore pop in the historical
//      ascending (force, fragment, cycle) order, which replays the
//      historical ban-and-rescan sequence: a rejected try_place changed
//      none of the force inputs, so the next exact pop IS what the re-scan
//      would have selected, and the first candidate the oracle accepts is
//      the same. The oracle rejects a filtered candidate whenever it is
//      popped, so removing them leaves the first accepted one unchanged.
//   4. The commit: tighten_chain clamps the winner's chain, ChainAggregates
//      refolds that one chain, and the eligible list drops the winner and
//      admits its carry successor.
//
// The bound's margin. Part i moves a window [lo_i, hi_i] (mass mo_i) to
// [a_i, b_i] (mass m_i). force_of and force_bound add up the same real value
// T = sum over parts of (m_i * S(a_i, b_i) - mo_i * S(lo_i, hi_i)), where
// S is the exact sum of the stored dg doubles over a window and the masses
// are the same doubles in both. Let u = DBL_EPSILON / 2 (the unit
// roundoff), g_k = k u / (1 - k u), and P(x) the exact sum of dg[0..x-1].
// By the recursive-summation analysis (Higham, Accuracy and Stability of
// Numerical Algorithms, 2nd ed., §4.2):
//   - force_of sums N rounded products: |force_of - T| <= g_N * Z, with Z
//     the sum of the absolute values of its terms;
//   - pre[x] sums at most L nonnegative terms (L the latency), so
//     |pre[x] - P(x)| <= g_L * P(x); one window sum pre[b+1] - pre[a] then
//     errs by at most g_(L+1) (P(b+1) + P(a)), and its product with a mass
//     and the per-part difference add two more roundings;
//   - summing the M parts adds g_(M-1):
//     |force_bound's sum - T| <= g_(L+M+2) * W, with W = sum over parts of
//     m_i (P(b_i+1) + P(a_i)) + mo_i (P(hi_i+1) + P(lo_i)).
// Since S(a, b) <= P(b+1) + P(a), Z <= W, and both errors together stay
// below g_(N+L+M+2) * W. The computed scale (W from the rounded prefixes)
// is within a factor 1 - g_(L+M+4) of W. Subtracting
// (N + 2L + M + 8) * DBL_EPSILON * scale = 2 (N + 2L + M + 8) u * scale
// covers that error about twice over, and the slack beyond it (at least
// 14 u W) absorbs the rounding of the margin's product and of the final
// subtraction. So the returned bound never exceeds force_of's value; the
// margin has no tuning constant.

/// Integer chain extrema per fragment, folded once up front and then per
/// committed chain. "prev" aggregates fold the strict predecessor chain,
/// "next" the strict successor chain; a fragment with no such neighbours
/// gets the fold identity (0 / UINT_MAX).
struct ChainAggregates {
  std::vector<unsigned> max_prev_lo;
  std::vector<unsigned> max_prev_hi;
  std::vector<unsigned> min_next_hi;
  std::vector<unsigned> min_next_lo;
  std::vector<unsigned char> prev_bad;  ///< a prev-chain window is empty
  std::vector<unsigned char> next_bad;  ///< a next-chain window is empty
  /// width_of(k) / |window(k)| — the exact value force_of's mass_old
  /// division produces, computed per window change instead of per
  /// candidate.
  std::vector<double> mass_old;

  /// Folds every chain.
  void compute(const SchedulerCore& core) {
    const std::size_t n = core.size();
    // resize, not assign: every fragment sits on exactly one chain, so the
    // folds below overwrite every entry.
    max_prev_lo.resize(n);
    max_prev_hi.resize(n);
    min_next_hi.resize(n);
    min_next_lo.resize(n);
    prev_bad.resize(n);
    next_bad.resize(n);
    mass_old.resize(n);
    for (std::size_t h = 0; h < n; ++h) {
      if (core.prev_fragment(h) == SchedulerCore::npos) fold(core, h);
    }
  }

  /// Refolds the chain through `k` — after a commit at `k`, the only
  /// windows that changed.
  void refold_chain(const SchedulerCore& core, std::size_t k) {
    while (core.prev_fragment(k) != SchedulerCore::npos) {
      k = core.prev_fragment(k);
    }
    fold(core, k);
  }

private:
  void fold(const SchedulerCore& core, std::size_t head) {
    unsigned run_lo = 0, run_hi = 0;
    unsigned char run_bad = 0;
    std::size_t tail = head;
    for (std::size_t k = head; k != SchedulerCore::npos;
         k = core.next_fragment(k)) {
      max_prev_lo[k] = run_lo;
      max_prev_hi[k] = run_hi;
      prev_bad[k] = run_bad;
      mass_old[k] = static_cast<double>(core.width_of(k)) /
                    (core.window_hi(k) - core.window_lo(k) + 1);
      run_lo = std::max(run_lo, core.window_lo(k));
      run_hi = std::max(run_hi, core.window_hi(k));
      run_bad |= static_cast<unsigned char>(core.window_lo(k) >
                                            core.window_hi(k));
      tail = k;
    }
    unsigned run_nhi = UINT_MAX, run_nlo = UINT_MAX;
    unsigned char run_nbad = 0;
    for (std::size_t k = tail; k != SchedulerCore::npos;
         k = core.prev_fragment(k)) {
      min_next_hi[k] = run_nhi;
      min_next_lo[k] = run_nlo;
      next_bad[k] = run_nbad;
      run_nhi = std::min(run_nhi, core.window_hi(k));
      run_nlo = std::min(run_nlo, core.window_lo(k));
      run_nbad |= static_cast<unsigned char>(core.window_lo(k) >
                                             core.window_hi(k));
    }
  }
};

/// Calls part(i, nlo, nhi, mass_new) for every fragment whose implied
/// window [nlo, nhi] under placing `k` at `c` differs from its current
/// window: `k` itself, then its predecessors nearest first, then its
/// successors. Only the fragment and its carry chain change windows. The
/// aggregate guards skip a whole chain walk only when no part in it would
/// fire.
template <class Part>
inline void for_each_part(const SchedulerCore& core, const ChainAggregates& agg,
                          std::size_t k, unsigned c, Part&& part) {
  // The one-cycle implied window's mass is width / 1.0, exactly width.
  if (!(core.window_lo(k) == c && core.window_hi(k) == c)) {
    part(k, c, c, static_cast<double>(core.width_of(k)));
  }
  auto other = [&](std::size_t i, unsigned nlo, unsigned nhi) {
    if (nlo == core.window_lo(i) && nhi == core.window_hi(i)) return;
    part(i, nlo, nhi,
         static_cast<double>(core.width_of(i)) / (nhi - nlo + 1));
  };
  if (agg.max_prev_hi[k] > c) {
    for (std::size_t p = core.prev_fragment(k); p != SchedulerCore::npos;
         p = core.prev_fragment(p)) {
      other(p, core.window_lo(p), std::min(core.window_hi(p), c));
    }
  }
  if (agg.min_next_lo[k] < c) {
    for (std::size_t q = core.next_fragment(k); q != SchedulerCore::npos;
         q = core.next_fragment(q)) {
      other(q, std::max(core.window_lo(q), c), core.window_hi(q));
    }
  }
}

/// Paulin-style self force of the implied windows against the current
/// distribution graph: the exact evaluator. Its FP accumulation is
/// operation-for-operation the historical sequence.
double force_of(const SchedulerCore& core, const double* dg, std::size_t k,
                unsigned c, const ChainAggregates& agg) {
  double force = 0;
  for_each_part(core, agg, k, c,
                [&](std::size_t i, unsigned nlo, unsigned nhi, double mass_new) {
                  for (unsigned cc = nlo; cc <= nhi; ++cc) {
                    force += dg[cc] * mass_new;
                  }
                  const double mo = agg.mass_old[i];
                  for (unsigned cc = core.window_lo(i); cc <= core.window_hi(i);
                       ++cc) {
                    force -= dg[cc] * mo;
                  }
                });
  return force;
}

/// A certified lower bound on force_of(core, dg, k, c, agg), from the
/// prefix sums `pre` of dg: the same parts, each window's dg sum in O(1),
/// minus the margin derived in the header.
double force_bound(const SchedulerCore& core, const double* pre,
                   std::size_t k, unsigned c, const ChainAggregates& agg) {
  double sum = 0, scale = 0;
  std::uint64_t terms = 0, parts = 0;
  for_each_part(core, agg, k, c,
                [&](std::size_t i, unsigned nlo, unsigned nhi, double mass_new) {
                  const unsigned lo = core.window_lo(i), hi = core.window_hi(i);
                  const double mo = agg.mass_old[i];
                  const double a = pre[nhi + 1], b = pre[nlo];
                  const double x = pre[hi + 1], y = pre[lo];
                  sum += mass_new * (a - b) - mo * (x - y);
                  scale += mass_new * (a + b) + mo * (x + y);
                  terms += (nhi - nlo) + (hi - lo) + 2;
                  ++parts;
                });
  const std::uint64_t latency = core.transform().latency;
  const double n = static_cast<double>(terms + 2 * latency + parts + 8);
  return sum - n * DBL_EPSILON * scale;
}

/// One scored candidate. `kc` packs (fragment << 32) | (cycle << 1) |
/// bound, so the numeric order on kc is exactly the historical scan order
/// (fragments ascending, cycles ascending within a fragment) — the
/// tie-break an equal key resolves to. `key` is the exact force when the
/// low bit is clear, and a lower bound on it when it is set.
struct Candidate {
  double key;
  std::uint64_t kc;
};
static_assert(sizeof(Candidate) == 16, "a heap entry stays two words");

constexpr std::uint64_t kBound = 1;

inline std::uint64_t pack_kc(std::size_t k, unsigned c, std::uint64_t bound) {
  return (static_cast<std::uint64_t>(k) << 32) |
         (static_cast<std::uint64_t>(c) << 1) | bound;
}

/// The (fragment, cycle) of a packed kc.
inline std::pair<std::size_t, unsigned> unpack_kc(std::uint64_t kc) {
  return {static_cast<std::size_t>(kc >> 32),
          static_cast<unsigned>((kc & 0xFFFFFFFFu) >> 1)};
}

/// Heap order: pop the smallest (key, kc). NaN keys (which the serial
/// scan would never let replace an earlier candidate) never win a pop
/// against a non-NaN earlier entry, matching the historical update rule
/// `f < best_force`.
inline bool heap_later(const Candidate& a, const Candidate& b) {
  return a.key > b.key || (a.key == b.key && a.kc > b.kc);
}

/// One scan chunk's output: the scored candidates, and the chain-feasible
/// (fragment, cycle) pairs the earliest-cycle bound removed.
struct ScanChunk {
  std::vector<Candidate> cands;
  std::uint64_t filtered = 0;
};

/// Scores every feasible candidate of `eligible[begin, end)` into `out`
/// (read-only against core/pre/agg and the oracle — safe to run
/// concurrently on disjoint ranges).
void scan_range(const SchedulerCore& core, const double* pre,
                const ChainAggregates& agg,
                const std::vector<std::size_t>& eligible, std::size_t begin,
                std::size_t end, ScanChunk& out) {
  out.cands.clear();
  out.filtered = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t k = eligible[i];
    if (agg.prev_bad[k] || agg.next_bad[k]) continue;
    const unsigned klo = core.window_lo(k), khi = core.window_hi(k);
    // The chain-feasibility test "every prev window reaches <= c, every
    // next window reaches >= c" is this window intersection.
    const unsigned cmin = std::max(klo, agg.max_prev_lo[k]);
    const unsigned cmax = std::min(khi, agg.min_next_hi[k]);
    if (cmin > cmax) continue;
    // The oracle rejects every cycle below its earliest-cycle bound
    // (kUnassignedCycle: every cycle), so those never enter the heap.
    const unsigned first = std::max(cmin, core.earliest_cycle(k));
    if (first > cmax) {
      out.filtered += cmax - cmin + 1;
      continue;
    }
    out.filtered += first - cmin;
    for (unsigned c = first; c <= cmax && c >= first; ++c) {
      if (klo == c && khi == c && agg.max_prev_hi[k] <= c &&
          agg.min_next_lo[k] >= c) {
        // No part fires anywhere: force_of would execute zero FP
        // operations and return exactly +0.0.
        out.cands.push_back({0.0, pack_kc(k, c, 0)});
      } else {
        out.cands.push_back(
            {force_bound(core, pre, k, c, agg), pack_kc(k, c, kBound)});
      }
    }
  }
}

/// Spin-barrier worker pool for the speculative bound scan (opt-in:
/// SchedulerOptions::candidate_workers != 1): workers wait on a generation
/// counter, score their chunk of the eligible list into a per-worker
/// buffer, and signal completion; the calling thread scores chunk 0 in
/// the meantime and then merges. Scans only read the oracle; refinement
/// and the commit stay on the caller, so schedules are bit-identical for
/// every worker count and chunking (the heap's (key, kc) order is a total
/// order independent of insertion order).
/// Spin+yield instead of a condvar: a mesh-sized schedule crosses this
/// barrier ~1200 times, and wake-up latency would dominate.
class CandidateWorkers {
public:
  CandidateWorkers(const SchedulerCore& core, unsigned workers)
      : core_(core), results_(workers) {
    threads_.reserve(workers - 1);
    for (unsigned w = 1; w < workers; ++w) {
      threads_.emplace_back([this, w] { worker_loop(w); });
    }
  }

  CandidateWorkers(const CandidateWorkers&) = delete;
  CandidateWorkers& operator=(const CandidateWorkers&) = delete;

  ~CandidateWorkers() {
    stop_.store(true, std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
    for (std::thread& t : threads_) t.join();
  }

  unsigned workers() const {
    return static_cast<unsigned>(threads_.size()) + 1;
  }

  /// Scans `eligible` across all workers and returns the per-worker result
  /// buffers (chunk w of the round-robin-balanced split in results()[w]).
  const std::vector<ScanChunk>& scan(
      const double* pre, const ChainAggregates& agg,
      const std::vector<std::size_t>& eligible) {
    pre_ = pre;
    agg_ = &agg;
    eligible_ = &eligible;
    const unsigned n_workers = workers();
    done_.store(0, std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
    run_chunk(0);
    // The calling thread's chunk is done; wait for the others.
    while (done_.load(std::memory_order_acquire) + 1 < n_workers) {
      std::this_thread::yield();
    }
    return results_;
  }

private:
  void run_chunk(unsigned w) {
    const std::vector<std::size_t>& eligible = *eligible_;
    const unsigned n_workers = workers();
    const std::size_t per =
        (eligible.size() + n_workers - 1) / n_workers;
    const std::size_t begin = std::min(eligible.size(), w * per);
    const std::size_t end = std::min(eligible.size(), begin + per);
    scan_range(core_, pre_, *agg_, eligible, begin, end, results_[w]);
  }

  void worker_loop(unsigned w) {
    std::uint64_t seen = 0;
    for (;;) {
      while (generation_.load(std::memory_order_acquire) == seen) {
        std::this_thread::yield();
      }
      seen = generation_.load(std::memory_order_acquire);
      if (stop_.load(std::memory_order_relaxed)) return;
      run_chunk(w);
      done_.fetch_add(1, std::memory_order_release);
    }
  }

  const SchedulerCore& core_;
  std::vector<std::thread> threads_;
  std::vector<ScanChunk> results_;
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<unsigned> done_{0};
  std::atomic<bool> stop_{false};
  // Round inputs, published before the generation bump.
  const double* pre_ = nullptr;
  const ChainAggregates* agg_ = nullptr;
  const std::vector<std::size_t>* eligible_ = nullptr;
};

unsigned resolve_workers(const SchedulerOptions& options, std::size_t n) {
  if (n < options.parallel_min_fragments) return 1;
  unsigned w = options.candidate_workers;
  if (w == 0) w = std::max(1u, std::thread::hardware_concurrency());
  return std::min<unsigned>(w, 64);
}

} // namespace

FragSchedule schedule_transformed_forcedirected(const TransformResult& t,
                                                const SchedulerOptions& options) {
  SchedulerCore core(t, options);
  const std::size_t n = core.size();

  ChainAggregates agg;
  agg.compute(core);
  // Eligible: unplaced, with the carry producer placed (the feasibility
  // oracle needs it first). Ascending; at the start, the chain heads.
  std::vector<std::size_t> eligible;
  for (std::size_t k = 0; k < n; ++k) {
    if (core.prev_fragment(k) == SchedulerCore::npos) eligible.push_back(k);
  }
  std::vector<double> dg, pre(t.latency + 1, 0.0);
  ScanChunk scanned;  // this round's candidates
  const unsigned n_workers = resolve_workers(options, n);
  std::optional<CandidateWorkers> pool;
  if (n_workers > 1) pool.emplace(core, n_workers);

  CancelCheckpoint cancel(options.cancel, /*stride=*/8);
  for (std::size_t committed = 0; committed < n; ++committed) {
    cancel.tick();
    core.distribution(dg);
    for (std::size_t x = 0; x < dg.size(); ++x) pre[x + 1] = pre[x] + dg[x];

    std::vector<Candidate>& cands = scanned.cands;
    if (pool) {
      cands.clear();
      scanned.filtered = 0;
      for (const ScanChunk& part : pool->scan(pre.data(), agg, eligible)) {
        cands.insert(cands.end(), part.cands.begin(), part.cands.end());
        scanned.filtered += part.filtered;
      }
    } else {
      scan_range(core, pre.data(), agg, eligible, 0, eligible.size(), scanned);
    }
    if (options.counters) {
      options.counters->candidates_evaluated += cands.size();
      options.counters->candidates_filtered += scanned.filtered;
    }
    if (options.cross_check) {
      for (const Candidate& cand : cands) {
        if (!(cand.kc & kBound)) continue;
        const auto [k, c] = unpack_kc(cand.kc);
        HLS_ASSERT(cand.key <= force_of(core, dg.data(), k, c, agg),
                   "a force bound exceeds the exact force");
      }
    }

    // Try exact candidates in ascending (force, fragment, cycle) until the
    // oracle accepts one — the same sequence the historical ban-and-rescan
    // produced. A bound that reaches the top is refined in place.
    std::make_heap(cands.begin(), cands.end(), heap_later);
    bool placed_one = false;
    while (!cands.empty()) {
      std::pop_heap(cands.begin(), cands.end(), heap_later);
      Candidate& best = cands.back();
      const auto [best_k, best_c] = unpack_kc(best.kc);
      if (best.kc & kBound) {
        best = {force_of(core, dg.data(), best_k, best_c, agg),
                best.kc & ~kBound};
        std::push_heap(cands.begin(), cands.end(), heap_later);
        if (options.counters) ++options.counters->candidates_refined;
        continue;
      }
      cands.pop_back();
      if (!core.try_place(best_k, best_c)) continue;

      // Only the committed chain's windows change: clamp and refold it,
      // then drop the winner from the eligible list and admit its carry
      // successor (which sorts after it), keeping the list ascending.
      core.tighten_chain(best_k, best_c);
      agg.refold_chain(core, best_k);
      const auto at =
          std::lower_bound(eligible.begin(), eligible.end(), best_k);
      const std::size_t next = core.next_fragment(best_k);
      if (next == SchedulerCore::npos) {
        eligible.erase(at);
      } else {
        const auto to = std::lower_bound(at + 1, eligible.end(), next);
        std::move(at + 1, to, at);
        *(to - 1) = next;
      }
      placed_one = true;
      break;
    }
    if (!placed_one) {
      // Stuck: fall back to the list scheduler, which always succeeds.
      return schedule_transformed(t, options);
    }
  }
  return core.finish();
}

FragSchedule schedule_transformed_forcedirected(const TransformResult& t) {
  return schedule_transformed_forcedirected(t, SchedulerOptions{});
}

} // namespace hls
