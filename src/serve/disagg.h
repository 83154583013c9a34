// Disaggregated prefill/decode serving pools.
//
// The paper's central finding is that prefill and decode want DIFFERENT
// partitioning layouts (weight-gathered vs. weight-stationary, §3.2-§3.3)
// and different batch shapes -- yet a colocated scheduler interleaves both
// phases on one mesh with one layout, so a long-context prefill chunk
// stalls every decode lane behind it (the latency-vs-throughput split
// DeepSpeed Inference frames as THE serving problem). Disaggregation
// splits the torus into two pools:
//
//   * a PREFILL pool (e.g. 1/4 of the chips) running chunked prefill under
//     its own PartitionSpec -- typically weight-gathered, the Table-2
//     high-throughput configuration;
//   * a DECODE pool (the rest) running the fixed decode frame under a
//     weight-stationary layout at its own batch shape.
//
// Both pools run in the one serving event loop (serve/scheduler.h), of
// which colocated serving is the one-pool case. A request is admitted to
// the prefill pool; when its last chunk samples the first token, its paged
// KV state MIGRATES over the inter-pool interconnect -- charged with the
// Appendix A.1 alpha+bandwidth model (core/migration.h) identically in both
// backends, and actually moved page-by-page with head re-chunking between
// attention shardings in the functional engine
// (DistributedEngine::ExportSlot/ImportSlot). The transfer occupies the
// LINK, not the chips: the prefill pool's next chunk and every decode step
// overlap it. The link is a single serialized channel -- a transfer starts
// at max(KV ready, link free, slot free).
//
// Scheduling runs on two virtual clocks (one per pool) plus the link
// timeline; RecordScheduler "migrate" spans land on the pid-1 scheduler
// track between the pools' prefill/decode spans. Two-pool runs add the
// metrics serve/migrations, serve/migrated_kv_bytes,
// serve/migration_queue_depth and serve/migration_s.
//
// Determinism: tokens keep the colocated contract -- a request's sequence
// depends only on its prompt and its sampler stream. With greedy sampling
// the disaggregated tokens are bit-identical to the colocated run's when
// both pools execute the colocated layout (tests/disagg_test.cc); across
// layouts the usual bit-for-close caveat applies.
//
// share_prefixes does not compose with disaggregation (migrating a forked
// slot would detach its COW pages) and dies loudly.
#pragma once

#include <cstdint>
#include <vector>

#include "comm/cost.h"
#include "core/inference_cost.h"
#include "core/layouts.h"
#include "model/config.h"
#include "serve/analytic.h"
#include "serve/scheduler.h"

namespace tsi {

class DistributedEngine;

// How the torus is split between the pools. The meshes are disjoint chip
// slices of one machine (e.g. a 1:3 split of 64 chips = 16-chip prefill
// pool + 48-chip decode pool). prefill_slots == 0 means no split: one
// colocated pool on decode_spec/decode_slots serves both phases.
struct DisaggConfig {
  PartitionSpec prefill_spec;  // mesh = the prefill pool's chip slice
  PartitionSpec decode_spec;   // mesh = the decode pool's (or the one pool's)
  int64_t prefill_slots = 4;   // concurrent chunked prefills; 0 = one pool
  int64_t decode_slots = 64;   // fixed decode frame (§4.4's decode batch)
  // The inter-pool link KV migrations cross: A.1 alpha + serialized
  // bandwidth, one transfer in flight at a time (core/migration.h).
  CommCostModel link;
};

// Functional migrator: ExportSlot on the prefill engine (full-head
// assembly), ImportSlot on the decode engine (re-sharded for its attention
// layout), network egress booked on the source chips that actually held
// the shipped copy (kHeads: each x-rank-0 chip its head chunk; kBatch /
// replicated-kv: the one owner/first chip everything). Both engines must
// use the same fp32 paged KV config.
class EngineKvMigrator : public KvMigrator {
 public:
  // `dst_num_slots` is the decode pool's frame size -- under kBatch it
  // fixes which owner group a destination slot's pages land on (the same
  // identity lane mapping EngineServeBackend uses).
  EngineKvMigrator(DistributedEngine* src, DistributedEngine* dst,
                   int64_t dst_num_slots, CommCostModel link);
  Result Migrate(int64_t src_slot, int64_t dst_slot, int64_t context) override;

 private:
  DistributedEngine* src_;
  DistributedEngine* dst_;
  int64_t dst_num_slots_;
  CommCostModel link_;
};

// Analytic migrator: same pricing, no tensors to move. The decode
// backend learns the migrated slot's cached context via SetSlotContext.
class AnalyticKvMigrator : public KvMigrator {
 public:
  AnalyticKvMigrator(const ModelConfig& config, const PartitionSpec& decode_spec,
                     AnalyticServeBackend* decode, CommCostModel link);
  Result Migrate(int64_t src_slot, int64_t dst_slot, int64_t context) override;

 private:
  ModelConfig config_;
  int64_t page_size_;
  double bytes_per_element_;
  AnalyticServeBackend* decode_;
  CommCostModel link_;
};

// The analytic run also reports per-pool utilization inputs (the
// functional path reads them off its SimMachines instead).
struct AnalyticDisaggRun {
  DisaggReport report;
  double prefill_busy_seconds = 0;
  double decode_busy_seconds = 0;
  double prefill_processed_tokens = 0;
  double decode_processed_tokens = 0;
  // Summed per-phase CostBreakdowns the pool backends charged -- the
  // cross-check target for the roofline fold's per-span recomputation
  // (obs/roofline.h). One pool: everything lands in the decode_* fields.
  CostBreakdown prefill_cost;
  CostBreakdown decode_cost;
};

// Builds the analytic pool backends (and, with two pools, the migrator) from
// `config` and runs the serving loop. With prefill_slots == 0 the one
// colocated pool's busy seconds, tokens and cost land in the decode_*
// fields. This is what bench_serving sweeps at Palm540B scale, where only
// the analytic backend can hold the model.
AnalyticDisaggRun RunAnalyticDisaggServing(const InferenceEstimator& estimator,
                                           const DisaggConfig& config,
                                           std::vector<ServeRequest> requests,
                                           const ServeOptions& options);

// Bring-up plan selection from a tuned PlanCache (plan/autotune.h): replaces
// each pool's PartitionSpec with the cached winner for its operating point
// -- prefill pool at (batch 1, expected_prompt) when there is one, decode
// (or the one colocated) pool at (decode_slots, expected_context) under
// kDecode. Unlike the per-step consult inside AnalyticServeBackend, bring-up
// may adopt the WHOLE spec (mesh shape, attention sharding, format): nothing
// is resident yet, and migration between the pools re-shards KV anyway.
// Pool chip counts come from the meshes already in `config` and are
// preserved. Returns how many specs were replaced (0..2); misses leave the
// hand-configured spec in place.
int ApplyPlanCache(const plan::PlanCache& plans, const std::string& model,
                   double expected_prompt, double expected_context,
                   DisaggConfig* config);

}  // namespace tsi
