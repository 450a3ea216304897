#include "dse/cache.hpp"

#include <algorithm>
#include <utility>

#include "alloc/bitlevel.hpp"
#include "kernel/narrow.hpp"
#include "obs/trace.hpp"
#include "sched/core.hpp"
#include "support/failpoint.hpp"
#include "timing/critical_path.hpp"

namespace hls {

namespace {

// Stage-parameter mixing: every composite key starts from the spec digest
// and folds in the parameters that can change the artefact. (The stage tag
// itself is mixed in key_of.)

Digest with_narrow(Digest d, bool narrow) {
  d.mix(narrow ? 1 : 0);
  return d;
}

Digest with_point(Digest d, bool narrow, unsigned latency, unsigned n_bits) {
  d = with_narrow(d, narrow);
  d.mix(latency);
  d.mix(n_bits);
  return d;
}

Digest with_scheduler(Digest d, const std::string& scheduler) {
  d.mix_bytes(scheduler.data(), scheduler.size());
  return d;
}

// Approximate resident-byte accounting for the LRU bound. Estimates count
// the owned heap of each artefact (vector capacities, string capacities);
// exactness does not matter — the bound is a sizing knob, not an allocator —
// but the estimate must grow with the artefact so eviction pressure lands
// on the heavy entries.

std::size_t approx_bytes(const Dfg& g) {
  std::size_t n = sizeof(Dfg) + g.name().capacity();
  for (const Node& node : g.nodes()) {
    n += sizeof(Node) + node.operands.capacity() * sizeof(Operand) +
         node.name.capacity();
  }
  return n;
}

std::size_t approx_bytes(const KernelArtifact& a) {
  return sizeof(KernelArtifact) + approx_bytes(a.kernel);
}

std::size_t approx_bytes(const TransformPrep& p) {
  return sizeof(TransformPrep) + approx_bytes(p.kernel);
}

std::size_t approx_bytes(const TransformResult& t) {
  return sizeof(TransformResult) + approx_bytes(t.spec) +
         t.adds.capacity() * sizeof(TransformedAdd);
}

std::size_t approx_bytes(const FragSchedule& s) {
  std::size_t n = sizeof(FragSchedule) +
                  s.schedule.rows.capacity() * sizeof(ScheduleRow);
  for (const FragSchedule::FuOp& op : s.fu_ops) {
    n += sizeof(FragSchedule::FuOp) + op.nodes.capacity() * sizeof(NodeId);
  }
  return n;
}

std::size_t approx_bytes(const Datapath& d) {
  std::size_t n = sizeof(Datapath) +
                  d.regs.capacity() * sizeof(RegInstance) +
                  d.muxes.capacity() * sizeof(MuxInstance) +
                  d.stored.capacity() * sizeof(StoredRun);
  for (const FuInstance& fu : d.fus) {
    n += sizeof(FuInstance) +
         fu.bound.capacity() * sizeof(std::pair<unsigned, NodeId>);
  }
  return n;
}

std::size_t approx_bytes(const KernelPartition& p) {
  std::size_t n = sizeof(KernelPartition) +
                  p.cut_edges.capacity() * sizeof(KernelPartition::CutEdge);
  for (const PartitionKernel& k : p.kernels) {
    n += sizeof(PartitionKernel) + approx_bytes(k.spec) +
         k.nodes.capacity() * sizeof(NodeId);
    for (const PartitionKernel::Port& port : k.imports) {
      n += sizeof(PartitionKernel::Port) + port.name.capacity();
    }
    for (const PartitionKernel::Port& port : k.exports) {
      n += sizeof(PartitionKernel::Port) + port.name.capacity();
    }
  }
  return n;
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

} // namespace

CacheStats::Counter CacheStats::total() const {
  Counter t;
  for (const Counter* c : {&kernel, &narrow, &prep, &transform, &schedule,
                           &datapath, &partition}) {
    t.hits += c->hits;
    t.misses += c->misses;
    t.evictions += c->evictions;
    t.resident_bytes += c->resident_bytes;
  }
  return t;
}

ArtifactCache::ArtifactCache(ArtifactCacheOptions options)
    : options_(options) {
  options_.shards = round_up_pow2(options_.shards == 0 ? 1 : options_.shards);
  per_shard_bound_ = options_.max_resident_bytes == 0
                         ? 0
                         : options_.max_resident_bytes / options_.shards;
  // A bound small enough to round a shard's share to zero still means
  // "bounded", not "unbounded": keep at most one entry's worth per shard.
  if (options_.max_resident_bytes != 0 && per_shard_bound_ == 0) {
    per_shard_bound_ = 1;
  }
  shards_ = std::vector<Shard>(options_.shards);
}

namespace {

/// Span names per cache stage; static strings so TraceSpan::category-style
/// lifetime rules hold for the copied name too.
const char* cache_span_name(unsigned stage) {
  static const char* const names[] = {
      "cache.kernel",   "cache.narrow",   "cache.prep",     "cache.transform",
      "cache.schedule", "cache.datapath", "cache.partition"};
  return stage < 7 ? names[stage] : "cache.unknown";
}

}  // namespace

void ArtifactCache::evict_locked(Shard& shard) {
  if (per_shard_bound_ == 0) return;
  // Fault-injection site for the eviction sweep of a bounded cache (fires
  // on every bounded insert, whether or not a victim is dropped, so chaos
  // runs do not depend on filling the shard first). An injected throw
  // unwinds with the shard consistent — at worst transiently over its
  // share, repaired by the next insert's sweep.
  failpoint("cache.evict");
  ScopedSpan span("cache.evict", "cache");
  std::uint64_t victims = 0;
  // Oldest-first until the shard fits. The just-inserted entry sits at the
  // hot end, so it is evicted only when it alone exceeds the shard's share:
  // its caller already holds the shared_ptr, the cache just declines to
  // retain an artefact that would blow the bound by itself. resident <=
  // bound is therefore a hard invariant, not a best effort — that is what
  // lets --cache-mb size a serving process.
  while (shard.resident > per_shard_bound_ && !shard.lru.empty()) {
    const Key victim = shard.lru.front();
    const auto it = shard.table.find(victim);
    HLS_ASSERT(it != shard.table.end(), "LRU key missing from shard table");
    shard.resident -= it->second.bytes;
    counters_[it->second.stage].evictions.fetch_add(
        1, std::memory_order_relaxed);
    counters_[it->second.stage].resident_bytes.fetch_sub(
        it->second.bytes, std::memory_order_relaxed);
    shard.lru.pop_front();
    shard.table.erase(it);
    ++victims;
  }
  if (span.live()) {
    span.note("victims=%llu", static_cast<unsigned long long>(victims));
  }
}

template <typename V, typename Compute>
std::shared_ptr<const V> ArtifactCache::get_or_compute(Stage stage,
                                                       const Key& key,
                                                       Compute&& compute) {
  Shard& shard = shard_for(key);
  failpoint("cache.lookup");
  {
    // The lookup span covers only the table probe; compute time belongs to
    // the enclosing flow-stage span, not the cache.
    ScopedSpan span(cache_span_name(stage), "cache");
    const std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.table.find(key);
    if (it != shard.table.end()) {
      counters_[stage].hits.fetch_add(1, std::memory_order_relaxed);
      // Touch: move to the hot end of the recency list.
      shard.lru.splice(shard.lru.end(), shard.lru, it->second.lru);
      if (span.live()) span.note("hit");
      return std::static_pointer_cast<const V>(it->second.value);
    }
    if (span.live()) span.note("miss");
  }
  // Compute outside the lock: stage functions are pure, so a racing worker
  // computing the same key produces an identical value; first insert wins.
  std::shared_ptr<const V> value =
      std::make_shared<const V>(std::forward<Compute>(compute)());
  const std::size_t bytes =
      approx_bytes(*value) + sizeof(Entry) + 2 * sizeof(Key);
  failpoint("cache.insert");
  ScopedSpan span("cache.insert", "cache");
  if (span.live()) {
    span.note("stage=%s bytes=%llu", cache_span_name(stage),
              static_cast<unsigned long long>(bytes));
  }
  const std::lock_guard<std::mutex> lock(shard.mu);
  counters_[stage].misses.fetch_add(1, std::memory_order_relaxed);
  const auto [it, inserted] = shard.table.try_emplace(key);
  if (!inserted) {
    // Lost the race; serve the winner's (identical) value.
    return std::static_pointer_cast<const V>(it->second.value);
  }
  it->second.value = value;
  it->second.bytes = bytes;
  it->second.stage = stage;
  it->second.lru = shard.lru.insert(shard.lru.end(), key);
  shard.resident += bytes;
  counters_[stage].resident_bytes.fetch_add(bytes, std::memory_order_relaxed);
  evict_locked(shard);
  return value;
}

std::shared_ptr<const KernelArtifact> ArtifactCache::kernel_at(
    const Digest& d, const Dfg& spec) {
  return get_or_compute<KernelArtifact>(kKernel, key_of(d, kKernel), [&] {
    KernelArtifact art;
    art.already_kernel = is_kernel_form(spec);
    art.kernel = art.already_kernel ? spec : extract_kernel(spec, &art.stats);
    return art;
  });
}

std::shared_ptr<const Dfg> ArtifactCache::narrowed_at(const Digest& d,
                                                      const Dfg& spec) {
  return get_or_compute<Dfg>(kNarrow, key_of(d, kNarrow), [&] {
    return narrow_widths(kernel_at(d, spec)->kernel);
  });
}

std::shared_ptr<const TransformPrep> ArtifactCache::prep_at(const Digest& d,
                                                            const Dfg& spec,
                                                            bool narrow) {
  const Key key = key_of(with_narrow(d, narrow), kPrep);
  return get_or_compute<TransformPrep>(kPrep, key, [&] {
    return prepare_transform(narrow ? *narrowed_at(d, spec)
                                    : kernel_at(d, spec)->kernel);
  });
}

unsigned ArtifactCache::n_bits_at(const Digest& d, const Dfg& spec,
                                  bool narrow, unsigned latency,
                                  unsigned n_bits_override,
                                  const DelayModel& delay) {
  if (n_bits_override != 0) return n_bits_override;
  return estimate_cycle_budget(prep_at(d, spec, narrow)->critical, latency,
                               delay);
}

std::shared_ptr<const TransformResult> ArtifactCache::transform_at(
    const Digest& d, const Dfg& spec, bool narrow, unsigned latency,
    unsigned n_bits, const CancelToken& cancel) {
  const Key key = key_of(with_point(d, narrow, latency, n_bits), kTransform);
  return get_or_compute<TransformResult>(kTransform, key, [&] {
    cancel.poll();
    return transform_prepared(*prep_at(d, spec, narrow), latency, n_bits);
  });
}

std::shared_ptr<const FragSchedule> ArtifactCache::schedule_at(
    const Digest& d, const std::string& scheduler, const Dfg& spec,
    bool narrow, unsigned latency, unsigned n_bits,
    const CancelToken& cancel) {
  const Key key = key_of(
      with_scheduler(with_point(d, narrow, latency, n_bits), scheduler),
      kSchedule);
  return get_or_compute<FragSchedule>(kSchedule, key, [&] {
    // The strategy ticks checkpoints per committed fragment; a trip unwinds
    // out of get_or_compute before any insert, leaving no entry behind.
    SchedulerOptions opts;
    opts.cancel = cancel;
    return run_scheduler(
        scheduler, *transform_at(d, spec, narrow, latency, n_bits, cancel),
        opts);
  });
}

std::shared_ptr<const KernelArtifact> ArtifactCache::kernel(const Dfg& spec) {
  return kernel_at(digest_of(spec), spec);
}

std::shared_ptr<const Dfg> ArtifactCache::narrowed(const Dfg& spec) {
  return narrowed_at(digest_of(spec), spec);
}

std::shared_ptr<const TransformResult> ArtifactCache::transform(
    const Dfg& spec, bool narrow, unsigned latency, unsigned n_bits_override,
    const DelayModel& delay, const CancelToken& cancel) {
  const Digest d = digest_of(spec);
  const unsigned n_bits =
      n_bits_at(d, spec, narrow, latency, n_bits_override, delay);
  return transform_at(d, spec, narrow, latency, n_bits, cancel);
}

std::shared_ptr<const FragSchedule> ArtifactCache::fragment_schedule(
    const std::string& scheduler, const Dfg& spec, bool narrow,
    unsigned latency, unsigned n_bits_override, const DelayModel& delay,
    const CancelToken& cancel) {
  const Digest d = digest_of(spec);
  const unsigned n_bits =
      n_bits_at(d, spec, narrow, latency, n_bits_override, delay);
  return schedule_at(d, scheduler, spec, narrow, latency, n_bits, cancel);
}

std::shared_ptr<const Datapath> ArtifactCache::bitlevel_datapath(
    const std::string& scheduler, const Dfg& spec, bool narrow,
    unsigned latency, unsigned n_bits_override, const DelayModel& delay,
    const CancelToken& cancel) {
  const Digest d = digest_of(spec);
  const unsigned n_bits =
      n_bits_at(d, spec, narrow, latency, n_bits_override, delay);
  const Key key = key_of(
      with_scheduler(with_point(d, narrow, latency, n_bits), scheduler),
      kDatapath);
  return get_or_compute<Datapath>(kDatapath, key, [&] {
    cancel.poll();
    return allocate_bitlevel(
        *transform_at(d, spec, narrow, latency, n_bits, cancel),
        *schedule_at(d, scheduler, spec, narrow, latency, n_bits, cancel));
  });
}

std::shared_ptr<const KernelPartition> ArtifactCache::partition(
    const Dfg& spec, bool narrow) {
  const Digest d = digest_of(spec);
  const Key key = key_of(with_narrow(d, narrow), kPartition);
  return get_or_compute<KernelPartition>(kPartition, key, [&] {
    return partition_kernel(narrow ? *narrowed_at(d, spec)
                                   : kernel_at(d, spec)->kernel);
  });
}

unsigned ArtifactCache::critical_time(const Dfg& spec, bool narrow) {
  const Digest d = digest_of(spec);
  return prep_at(d, spec, narrow)->critical;
}

CacheStats ArtifactCache::stats() const {
  CacheStats s;
  CacheStats::Counter* out[kStageCount] = {&s.kernel, &s.narrow, &s.prep,
                                           &s.transform, &s.schedule,
                                           &s.datapath, &s.partition};
  for (unsigned i = 0; i < kStageCount; ++i) {
    out[i]->hits = counters_[i].hits.load(std::memory_order_relaxed);
    out[i]->misses = counters_[i].misses.load(std::memory_order_relaxed);
    out[i]->evictions =
        counters_[i].evictions.load(std::memory_order_relaxed);
    out[i]->resident_bytes =
        counters_[i].resident_bytes.load(std::memory_order_relaxed);
  }
  return s;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
ArtifactCache::resident_keys() const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [key, entry] : shard.table) out.emplace_back(key.a, key.b);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void ArtifactCache::clear() {
  for (Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mu);
    shard.table.clear();
    shard.lru.clear();
    shard.resident = 0;
  }
  for (AtomicCounter& c : counters_) {
    c.hits.store(0, std::memory_order_relaxed);
    c.misses.store(0, std::memory_order_relaxed);
    c.evictions.store(0, std::memory_order_relaxed);
    c.resident_bytes.store(0, std::memory_order_relaxed);
  }
}

} // namespace hls
