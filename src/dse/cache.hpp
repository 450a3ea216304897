#pragma once
// ArtifactCache — content-hash-keyed memoization of per-stage artefacts,
// the store behind design-space exploration (dse/explorer.hpp) and the
// process-wide serving cache behind `fraghls --serve` (serve/server.hpp).
//
// Every artefact is keyed on the 128-bit content digest of the input
// specification (ir/hash.hpp) plus a stage tag plus the stage parameters
// that can change the artefact — and nothing else. The load-bearing
// subtlety is the transform key: a TransformResult depends on the
// technology target only through the *resolved* cycle budget
// (frag/transform.hpp), so the cache resolves n_bits first (via the
// memoized latency-invariant TransformPrep) and keys the transform on
// that. Two targets that estimate the same budget — e.g. "paper-ripple"
// and "fast-logic", which differ only in ns scaling — share one transform,
// one schedule and one datapath; only the report pricing differs.
//
// Cached stage graph (each layer keyed by the layers above it):
//
//   spec digest ──► kernel (extract_kernel + stats)     [kernel]
//              └──► narrowed kernel                     [narrow]
//   (digest, narrow) ──► KernelPartition                [partition]
//       (the "partitioned" flow's kernel split; its per-kernel stages are
//        keyed on each sub-kernel's own digest through the getters above,
//        so editing one kernel re-runs only that kernel's column)
//   (digest, narrow) ──► TransformPrep                  [prep]
//       (relabelled kernel + §3.2 critical, incl. the DfgIndex-equivalent
//        arrival floor — the latency-invariant pieces of transform_spec)
//   (digest, narrow, latency, n_bits) ──► Transform     [transform]
//   (transform key, scheduler) ──► FragSchedule         [schedule]
//       (the schedule artefact subsumes the per-transform DfgIndex the
//        SchedulerCore builds — a hit skips that rebuild too)
//   (schedule key) ──► Datapath                         [datapath]
//
// Concurrency: getters may be called from any number of run_batch workers
// (or serve connections). The store is sharded — hash(key) selects one of
// `ArtifactCacheOptions::shards` independently-locked shards, so
// concurrent lookups of different keys rarely contend on a mutex.
// Computation runs outside any lock, so two workers racing on the same
// key may both compute — the first insertion wins, and because every
// stage function is pure both values are identical. Each performed
// computation counts as one miss, so miss counts can exceed the number of
// distinct keys under contention (hit/miss totals are diagnostics, not
// invariants).
//
// Bounding: `max_resident_bytes` (0 = unbounded, the exploration default)
// bounds the approximate resident artefact bytes. The budget is split
// evenly across shards; each shard evicts its least-recently-used entries
// when over its share, oldest first. Eviction only drops cache residency —
// values are handed out as shared_ptr, so artefacts in flight stay alive,
// and a re-request simply recomputes (counted as a miss). An artefact
// larger than a shard's share by itself is served to its caller but not
// retained (evicted immediately after insertion), so resident bytes never
// exceed the configured bound.
//
// Failure is never cached: a stage that throws (infeasible override budget)
// propagates the hls::Error and leaves no entry, so replays fail with the
// same staged diagnostics as uncached runs.

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "flow/stage_cache.hpp"
#include "ir/hash.hpp"

namespace hls {

/// Cache accounting, per stage. Surfaced by ExploreResult (and its JSON
/// rendering) so a sweep reports how much work the cache actually removed,
/// and by the serve `stats` response (serve/server.hpp), which adds the
/// eviction/residency columns.
struct CacheStats {
  struct Counter {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;       ///< entries dropped by the LRU bound
    std::uint64_t resident_bytes = 0;  ///< approximate bytes currently held
    /// Hits over lookups; 0 when the stage was never consulted.
    double hit_rate() const {
      const std::uint64_t n = hits + misses;
      return n == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(n);
    }
  };
  Counter kernel, narrow, prep, transform, schedule, datapath, partition;

  /// Sum over all stages.
  Counter total() const;
};

/// Sizing of an ArtifactCache. The defaults reproduce the exploration
/// behaviour (unbounded, lightly sharded); a serving process passes an
/// explicit byte bound (CLI `--cache-mb`).
struct ArtifactCacheOptions {
  /// Lock stripes; rounded up to a power of two, minimum 1. More shards =
  /// less mutex contention, slightly coarser LRU (each shard evicts
  /// independently over its share of the byte budget).
  std::size_t shards = 8;
  /// Approximate bound on resident artefact bytes, 0 = unbounded.
  std::size_t max_resident_bytes = 0;
};

/// The production StageCache: thread-safe, content-addressed, sharded,
/// optionally byte-bounded. One ArtifactCache typically lives for one
/// exploration (Explorer creates one per run unless the request supplies
/// one) or for a whole serving process.
class ArtifactCache final : public StageCache {
public:
  explicit ArtifactCache(ArtifactCacheOptions options = {});
  ArtifactCache(const ArtifactCache&) = delete;
  ArtifactCache& operator=(const ArtifactCache&) = delete;

  // The CancelToken rides into the compute functions: a compute that trips
  // unwinds before any insert (get_or_compute inserts only on success), so
  // a cancelled request leaves the store exactly as if it never arrived.
  std::shared_ptr<const KernelArtifact> kernel(const Dfg& spec) override;
  std::shared_ptr<const Dfg> narrowed(const Dfg& spec) override;
  std::shared_ptr<const TransformResult> transform(
      const Dfg& spec, bool narrow, unsigned latency, unsigned n_bits_override,
      const DelayModel& delay, const CancelToken& cancel = {}) override;
  std::shared_ptr<const FragSchedule> fragment_schedule(
      const std::string& scheduler, const Dfg& spec, bool narrow,
      unsigned latency, unsigned n_bits_override, const DelayModel& delay,
      const CancelToken& cancel = {}) override;
  std::shared_ptr<const Datapath> bitlevel_datapath(
      const std::string& scheduler, const Dfg& spec, bool narrow,
      unsigned latency, unsigned n_bits_override, const DelayModel& delay,
      const CancelToken& cancel = {}) override;
  std::shared_ptr<const KernelPartition> partition(const Dfg& spec,
                                                   bool narrow) override;
  unsigned critical_time(const Dfg& spec, bool narrow) override;

  /// The sizing this cache was constructed with (shards normalized).
  const ArtifactCacheOptions& options() const { return options_; }

  /// Snapshot of the per-stage counters.
  CacheStats stats() const;

  /// Sorted keys of every resident entry — debug/test observability. The
  /// cancellation property test asserts that a cancelled-then-retried
  /// request leaves exactly the key set of a never-cancelled run; because
  /// keys are content digests of the inputs and every stage function is
  /// pure, equal key sets imply bit-identical resident values.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> resident_keys() const;

  /// Drops every entry (counters included).
  void clear();

private:
  /// Stage tag, mixed into every key (kernel and narrow share the bare
  /// spec digest, so the tag is what separates them in the unified store)
  /// and indexing the per-stage counters.
  enum Stage : unsigned {
    kKernel = 0,
    kNarrow,
    kPrep,
    kTransform,
    kSchedule,
    kDatapath,
    kPartition,
    kStageCount
  };

  /// Composite key: a spec digest extended with the stage tag and the
  /// stage parameters.
  struct Key {
    std::uint64_t a = 0, b = 0;
    friend auto operator<=>(const Key&, const Key&) = default;
  };

  /// One resident artefact: a type-erased value (the stage tag identifies
  /// the concrete type), its approximate byte cost and its LRU position.
  struct Entry {
    std::shared_ptr<const void> value;
    std::size_t bytes = 0;
    unsigned stage = 0;
    std::list<Key>::iterator lru;
  };

  /// One lock stripe: an independently locked slice of the key space with
  /// its own recency list (front = coldest) and byte accounting.
  struct Shard {
    mutable std::mutex mu;  ///< mutable: resident_keys() is const
    std::map<Key, Entry> table;
    std::list<Key> lru;
    std::size_t resident = 0;
  };

  /// Lock-free per-stage counters (shards update them without holding any
  /// other shard's mutex).
  struct AtomicCounter {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> evictions{0};
    std::atomic<std::uint64_t> resident_bytes{0};
  };

  static Key key_of(Digest d, Stage stage) {
    d.mix(0x5347u);  // stage-tag marker, then the tag itself
    d.mix(stage);
    return {d.a, d.b};
  }

  Shard& shard_for(const Key& key) {
    // The digest is already well mixed; fold both words.
    return shards_[(key.a ^ (key.b * 0x9E3779B97F4A7C15ull)) &
                   (shards_.size() - 1)];
  }

  /// Looks `key` up in its shard (counting a hit and touching the LRU) or
  /// computes outside the lock, inserts and returns (counting a miss;
  /// first insertion wins a race), then evicts the shard down to its
  /// byte share.
  template <typename V, typename Compute>
  std::shared_ptr<const V> get_or_compute(Stage stage, const Key& key,
                                          Compute&& compute);

  /// Drops coldest entries while the shard is over its share; never drops
  /// `keep` (the entry just inserted). Caller holds the shard lock.
  void evict_locked(Shard& shard);

  // Each public getter takes digest_of(spec) once and delegates here; the
  // chained stage lookups below all reuse it. digest_of memoizes the digest
  // in the Dfg, so only the first getter on a spec object hashes it.
  std::shared_ptr<const KernelArtifact> kernel_at(const Digest& d,
                                                  const Dfg& spec);
  std::shared_ptr<const Dfg> narrowed_at(const Digest& d, const Dfg& spec);
  std::shared_ptr<const TransformPrep> prep_at(const Digest& d,
                                               const Dfg& spec, bool narrow);
  unsigned n_bits_at(const Digest& d, const Dfg& spec, bool narrow,
                     unsigned latency, unsigned n_bits_override,
                     const DelayModel& delay);
  std::shared_ptr<const TransformResult> transform_at(
      const Digest& d, const Dfg& spec, bool narrow, unsigned latency,
      unsigned n_bits, const CancelToken& cancel);
  std::shared_ptr<const FragSchedule> schedule_at(
      const Digest& d, const std::string& scheduler, const Dfg& spec,
      bool narrow, unsigned latency, unsigned n_bits,
      const CancelToken& cancel);

  ArtifactCacheOptions options_;
  std::size_t per_shard_bound_ = 0;  ///< max_resident_bytes / shards
  std::vector<Shard> shards_;
  AtomicCounter counters_[kStageCount];
};

} // namespace hls
