#pragma once
// StageCache — the flow engine's stage hook: every heavyweight artefact of
// the fragment-scheduling flows (blc, optimized, partitioned) is obtained
// through one.
//
// A FlowRequest may carry a StageCache (FlowRequest::cache) that outlives
// it; a request without one gets a non-retaining per-request hook
// (flow/stages.hpp) that computes each artefact once with the stage
// functions. The contract every implementation must honour:
//
//   each getter returns EXACTLY what the stage functions compute for the
//   same inputs (extract_kernel, narrow_widths, partition_kernel,
//   prepare_transform + transform_prepared under the resolved budget,
//   run_scheduler, allocate_bitlevel) — bit-identical, hash collisions
//   excepted by construction (the dse/ ArtifactCache keys on a 128-bit
//   content digest).
//
// Because the stage functions are pure, a cache hit is observationally
// identical to a recompute: FlowResults of cached runs are bit-identical to
// uncached Session::run of the same request (tests/identity_test.cpp pins
// this across every registry suite). Hit/miss accounting therefore lives on
// the cache object (dse::CacheStats), never in the FlowResult — a result
// must not reveal whether it was served from cache.
//
// What the builtin flows promise an implementation, within one request:
//   * every getter receives either the request's own spec (req.spec) or a
//     sub-kernel spec p.kernels[k].spec owned by the KernelPartition this
//     cache's partition() returned for that request;
//   * each spec object is always passed with ONE parameter set (narrow,
//     latency, budget override, delay model, scheduler) — the request's for
//     req.spec, (narrow = false, the kernel's budget slice) for a sub-kernel.
// An implementation may therefore memoize per spec object for the duration
// of a request (the per-request hook does; so may test and benchmark
// hooks), while a cache that outlives requests keys on content instead.
//
// The production implementation is hls::ArtifactCache (dse/cache.hpp);
// Explorer attaches one cache to every request of an exploration so a
// latency/target/scheduler sweep re-runs only the stages whose inputs
// actually changed.

#include <memory>
#include <string>

#include "alloc/datapath.hpp"
#include "frag/transform.hpp"
#include "kernel/extract.hpp"
#include "partition/partition.hpp"
#include "sched/fragsched.hpp"
#include "support/cancel.hpp"

namespace hls {

/// The kernel-extraction artefact: the §3.1 kernel plus the rewrite stats
/// the optimized flow reports. `already_kernel` mirrors is_kernel_form() of
/// the input spec (stats stay default-initialized in that case, exactly as
/// in an uncached run).
struct KernelArtifact {
  Dfg kernel;
  KernelStats stats;
  bool already_kernel = false;
};

/// Abstract per-stage artefact store. A cache carried on FlowRequest::cache
/// may be shared by many requests, so its methods must be thread-safe
/// (Session::run_batch workers call them concurrently); the per-request
/// hook serves one flow invocation on one thread.
class StageCache {
public:
  virtual ~StageCache() = default;

  /// extract_kernel(spec) (or the spec itself when already kernel-form).
  virtual std::shared_ptr<const KernelArtifact> kernel(const Dfg& spec) = 0;

  /// narrow_widths(kernel(spec)->kernel) — the optional width-narrowing
  /// stage between extraction and transformation.
  virtual std::shared_ptr<const Dfg> narrowed(const Dfg& spec) = 0;

  /// transform_spec(kernel, latency, n_bits_override, delay) over the
  /// (optionally narrowed) kernel of `spec`. Implementations key on the
  /// *resolved* cycle budget, so targets that estimate the same budget
  /// share one transform.
  ///
  /// The heavy getters take the request's CancelToken: a compute that trips
  /// mid-way unwinds by exception and MUST NOT insert a partial artefact —
  /// a cancelled run leaves the cache exactly as if the request never
  /// arrived (completed sub-stage artefacts are fine to keep: they are pure
  /// functions of the inputs, identical to what a clean run would insert).
  virtual std::shared_ptr<const TransformResult> transform(
      const Dfg& spec, bool narrow, unsigned latency, unsigned n_bits_override,
      const DelayModel& delay, const CancelToken& cancel = {}) = 0;

  /// run_scheduler(scheduler, transform(...)) — the fragment schedule.
  virtual std::shared_ptr<const FragSchedule> fragment_schedule(
      const std::string& scheduler, const Dfg& spec, bool narrow,
      unsigned latency, unsigned n_bits_override, const DelayModel& delay,
      const CancelToken& cancel = {}) = 0;

  /// allocate_bitlevel(transform(...), fragment_schedule(...)).
  virtual std::shared_ptr<const Datapath> bitlevel_datapath(
      const std::string& scheduler, const Dfg& spec, bool narrow,
      unsigned latency, unsigned n_bits_override, const DelayModel& delay,
      const CancelToken& cancel = {}) = 0;

  /// partition_kernel over the (optionally narrowed) kernel of `spec` — the
  /// "partitioned" flow's kernel split. The per-kernel stages are then keyed
  /// on each sub-kernel's OWN spec (the flow calls the stage getters with
  /// p.kernels[k].spec), which is what makes editing one kernel re-run only
  /// that kernel.
  virtual std::shared_ptr<const KernelPartition> partition(const Dfg& spec,
                                                           bool narrow) = 0;

  /// The §3.2 critical time (chained bits) of the (optionally narrowed)
  /// kernel of `spec` — prepare_transform(...).critical. The partition
  /// stage consults it once per kernel to split the latency budget before
  /// any per-kernel transform exists.
  virtual unsigned critical_time(const Dfg& spec, bool narrow) = 0;
};

} // namespace hls
