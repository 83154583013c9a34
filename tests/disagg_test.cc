// Disaggregated prefill/decode serving (src/serve/disagg):
//   * disaggregated tokens and virtual stamps are bit-identical across SPMD
//     slot counts, and the tokens match the colocated runtime exactly when
//     both pools run the colocated layout (greedy sampling);
//   * ExportSlot/ImportSlot round-trips KV state byte-exactly across
//     attention shardings (kHeads head chunks -> kBatch owner chip);
//   * the analytic and functional migrators charge EXACTLY the same bytes
//     (both route through EstimateKvMigration);
//   * the closed-form migration cost matches the A.1 page-padded formula;
//   * migrating a non-resident or COW-shared slot dies loudly;
//   * a two-pool run exports the colocated serve/ metrics too, and only it
//     registers the migration metrics;
//   * under a concurrent long-context prefill, the disaggregated decode
//     pool's inter-token tail beats the colocated run's.
#include "serve/disagg.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "core/migration.h"
#include "engine/engine.h"
#include "hw/chip.h"
#include "serve/analytic.h"
#include "serve/runtime.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace tsi {
namespace {

std::vector<int32_t> RandomTokens(int64_t n, int64_t vocab, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> t(static_cast<size_t>(n));
  for (auto& v : t)
    v = static_cast<int32_t>(rng.NextBelow(static_cast<uint64_t>(vocab)));
  return t;
}

ServeOptions GreedyOptions(int64_t prefill_chunk) {
  ServeOptions o;
  o.prefill_chunk = prefill_chunk;
  o.sampling.temperature = 0;
  return o;
}

CommCostModel TestLink() {
  CommCostModel link;
  link.network_bw = TpuV4().network_bw;
  return link;
}

std::vector<ServeRequest> StaggeredRequests(const ModelConfig& cfg) {
  std::vector<ServeRequest> requests;
  for (int64_t i = 0; i < 6; ++i) {
    ServeRequest r;
    r.id = i;
    r.arrival = static_cast<double>(i) * 2e-6;
    r.prompt =
        RandomTokens(4 + i % 3, cfg.vocab_size, 100 + static_cast<uint64_t>(i));
    r.max_new_tokens = 5;
    requests.push_back(std::move(r));
  }
  return requests;
}

// Two-pool functional run: both pools on their own fresh engine + machine.
DisaggReport RunFunctionalDisagg(const ModelWeights& weights,
                                 const EngineSpec& spec, int64_t prefill_slots,
                                 int64_t decode_slots,
                                 const std::vector<ServeRequest>& requests,
                                 const ServeOptions& options,
                                 int spmd_slots = 0) {
  SimMachine prefill_machine(Torus3D(2, 2, 1), TpuV4());
  SimMachine decode_machine(Torus3D(2, 2, 1), TpuV4());
  DistributedEngine prefill_engine(weights, &prefill_machine, spec);
  DistributedEngine decode_engine(weights, &decode_machine, spec);
  if (spmd_slots > 0) {
    prefill_engine.spmd().set_slots(spmd_slots);
    decode_engine.spmd().set_slots(spmd_slots);
  }
  EngineServeBackend prefill(&prefill_engine, prefill_slots, options);
  EngineServeBackend decode(&decode_engine, decode_slots, options);
  EngineKvMigrator migrator(&prefill_engine, &decode_engine, decode_slots,
                            TestLink());
  return RunDisaggServing(prefill, decode, migrator, requests, options);
}

TEST(DisaggServingTest, MatchesColocatedBitExactlyAcrossSpmdSlotCounts) {
  ModelConfig cfg = TinyTestModel();
  ModelWeights weights = ModelWeights::Random(cfg, 21);
  EngineSpec spec;
  spec.attn = AttnSharding::kBatch;  // exercises owner-group import
  const ServeOptions options = GreedyOptions(/*prefill_chunk=*/3);
  const std::vector<ServeRequest> requests = StaggeredRequests(cfg);

  // Colocated baseline: one engine, one pool.
  SimMachine machine(Torus3D(2, 2, 1), TpuV4());
  DistributedEngine engine(weights, &machine, spec);
  EngineServeBackend colocated(&engine, /*num_slots=*/8, options);
  ServeReport base = RunContinuousServing(colocated, requests, options);

  DisaggReport one =
      RunFunctionalDisagg(weights, spec, 4, 8, requests, options, 1);
  DisaggReport eight =
      RunFunctionalDisagg(weights, spec, 4, 8, requests, options, 8);

  ASSERT_EQ(base.completed(), 6);
  ASSERT_EQ(one.serve.completed(), 6);
  ASSERT_EQ(eight.serve.completed(), 6);
  for (size_t i = 0; i < 6; ++i) {
    // Same layout in both pools + greedy sampling: token-for-token equal to
    // the colocated scheduler even though prefill and decode ran on
    // different engines with a migration in between.
    EXPECT_EQ(one.serve.requests[i].tokens, base.requests[i].tokens)
        << "request " << i;
    // ... and the full determinism contract (stamps included) across SPMD
    // slot counts.
    EXPECT_EQ(one.serve.requests[i].tokens, eight.serve.requests[i].tokens);
    EXPECT_EQ(one.serve.requests[i].admitted, eight.serve.requests[i].admitted);
    EXPECT_EQ(one.serve.requests[i].first_token,
              eight.serve.requests[i].first_token);
    EXPECT_EQ(one.serve.requests[i].finished, eight.serve.requests[i].finished);
  }
  // Every request decodes past its first token, so every request migrated.
  EXPECT_EQ(one.migrations, 6);
  EXPECT_GT(one.migrated_bytes, 0.0);
  EXPECT_GT(one.link_busy_seconds, 0.0);
  EXPECT_EQ(one.migrated_bytes, eight.migrated_bytes);
}

TEST(KvMigrationTest, ExportImportRoundTripsAcrossAttentionShardings) {
  // MHA so kHeads actually chunks heads over yz (8 kv heads over yz=2);
  // export must concatenate the chunks in rank order, import must re-slice
  // them for the destination layout byte-exactly.
  ModelConfig cfg = TinyTestModelMultihead();
  ModelWeights weights = ModelWeights::Random(cfg, 41);
  SimMachine heads_machine(Torus3D(2, 2, 1), TpuV4());
  SimMachine batch_machine(Torus3D(2, 2, 1), TpuV4());
  EngineSpec heads_spec;
  heads_spec.attn = AttnSharding::kHeads;
  EngineSpec batch_spec;
  batch_spec.attn = AttnSharding::kBatch;
  DistributedEngine heads_engine(weights, &heads_machine, heads_spec);
  DistributedEngine batch_engine(weights, &batch_machine, batch_spec);

  const auto prompt = RandomTokens(9, cfg.vocab_size, 42);
  heads_engine.Prefill(prompt, /*batch=*/1);
  SlotPages wire = heads_engine.ExportSlot(0);
  EXPECT_EQ(wire.len, 9);
  EXPECT_EQ(wire.kv_heads, cfg.n_kv_heads());
  EXPECT_EQ(wire.d_head, cfg.d_head);

  batch_engine.ImportSlot(0, wire, /*owner_group=*/0);
  EXPECT_EQ(batch_engine.slot_length(0), 9);
  SlotPages round = batch_engine.ExportSlot(0);
  ASSERT_EQ(round.len, wire.len);
  ASSERT_EQ(round.kv_heads, wire.kv_heads);
  ASSERT_EQ(round.d_head, wire.d_head);
  ASSERT_EQ(round.k.size(), wire.k.size());
  for (size_t l = 0; l < wire.k.size(); ++l) {
    ASSERT_TRUE(round.k[l].SameShape(wire.k[l])) << "layer " << l;
    ASSERT_TRUE(round.v[l].SameShape(wire.v[l])) << "layer " << l;
    EXPECT_EQ(std::memcmp(round.k[l].data(), wire.k[l].data(),
                          sizeof(float) * wire.k[l].numel()),
              0)
        << "K bytes drifted through kHeads->kBatch resharding, layer " << l;
    EXPECT_EQ(std::memcmp(round.v[l].data(), wire.v[l].data(),
                          sizeof(float) * wire.v[l].numel()),
              0)
        << "V bytes drifted through kHeads->kBatch resharding, layer " << l;
  }
}

TEST(KvMigrationTest, AnalyticAndFunctionalBytesAgreeExactly) {
  ModelConfig cfg = TinyTestModel();
  ModelWeights weights = ModelWeights::Random(cfg, 51);
  ServeOptions options = GreedyOptions(/*prefill_chunk=*/3);
  const std::vector<ServeRequest> requests = StaggeredRequests(cfg);

  EngineSpec espec;
  espec.attn = AttnSharding::kBatch;
  espec.kv.page_size = 4;
  DisaggReport functional =
      RunFunctionalDisagg(weights, espec, 4, 8, requests, options);

  InferenceEstimator estimator(cfg, TpuV4());
  DisaggConfig dc;
  dc.prefill_spec = PartitionSpec{Torus3D(2, 2, 1)};
  dc.decode_spec = PartitionSpec{Torus3D(2, 2, 1)};
  dc.prefill_spec.kv_page_size = 4;  // must match the engines' page size
  dc.decode_spec.kv_page_size = 4;
  dc.prefill_slots = 4;
  dc.decode_slots = 8;
  dc.link = TestLink();
  AnalyticDisaggRun analytic =
      RunAnalyticDisaggServing(estimator, dc, requests, options);

  // Same scheduler, same contexts, same EstimateKvMigration: byte counts
  // agree EXACTLY (doubles, no tolerance), per the acceptance criterion.
  EXPECT_EQ(analytic.report.migrations, functional.migrations);
  EXPECT_EQ(analytic.report.migrated_bytes, functional.migrated_bytes);
  EXPECT_EQ(analytic.report.link_busy_seconds, functional.link_busy_seconds);
  EXPECT_GT(functional.migrated_bytes, 0.0);
}

TEST(KvMigrationTest, CostMatchesClosedForm) {
  // TinyTestModel: 2 layers, 1 kv head (MQA), d_head 8. Context 9 on pages
  // of 4 pads to 12 positions: 2 * 2 * 12 * 1 * 8 * 2B = 768 bytes.
  ModelConfig cfg = TinyTestModel();
  CommCostModel link;
  link.network_bw = 1e9;
  link.hop_latency = 1e-6;
  const KvMigrationCost c = EstimateKvMigration(cfg, /*context=*/9,
                                                /*bytes_per_element=*/2.0,
                                                /*page_size=*/4, link);
  EXPECT_EQ(c.bytes, 768.0);
  EXPECT_EQ(c.seconds, 1e-6 + 768.0 / 1e9);
  // page_size 0 = token-granular (no padding).
  const KvMigrationCost t = EstimateKvMigration(cfg, 9, 2.0, 0, link);
  EXPECT_EQ(t.bytes, 2.0 * 2 * 9 * 1 * 8 * 2);
}

TEST(KvMigrationDeathTest, ExportOfNonResidentOrSharedSlotDies) {
  ModelConfig cfg = TinyTestModel();
  ModelWeights weights = ModelWeights::Random(cfg, 61);
  SimMachine machine(Torus3D(1, 2, 1), TpuV4());
  EngineSpec spec;
  spec.kv.page_size = 4;
  DistributedEngine engine(weights, &machine, spec);

  // Nothing cached in slot 0 yet.
  EXPECT_DEATH(engine.ExportSlot(0), "empty slot");

  // A forked slot shares pages (refcount > 1): migrating it would detach
  // the COW prefix, so it must die, not silently copy.
  engine.Prefill(RandomTokens(8, cfg.vocab_size, 62), /*batch=*/1);
  engine.ForkSlot(/*parent=*/0, /*child=*/1, /*prefix_len=*/8);
  EXPECT_DEATH(engine.ExportSlot(0), "shared pages");

  EXPECT_DEATH(EstimateKvMigration(cfg, 0, 2.0, 4, TestLink()),
               "empty KV state");
}

TEST(DisaggServingTest, RejectsPrefixSharing) {
  ModelConfig cfg = TinyTestModel();
  InferenceEstimator estimator(cfg, TpuV4());
  DisaggConfig dc;
  dc.prefill_spec = PartitionSpec{Torus3D(1, 2, 1)};
  dc.decode_spec = PartitionSpec{Torus3D(1, 2, 1)};
  dc.link = TestLink();
  ServeOptions options = GreedyOptions(4);
  options.share_prefixes = true;
  ServeRequest r;
  r.id = 0;
  r.prompt = RandomTokens(4, cfg.vocab_size, 70);
  EXPECT_DEATH(RunAnalyticDisaggServing(estimator, dc, {r}, options),
               "prefix sharing");
}

TEST(DisaggServingTest, ExportsTheColocatedServeMetrics) {
  // One loop serves both modes, so a two-pool run exports the same serve/
  // metrics as a colocated one -- prefill tokens, chunk sizes, decode lane
  // counts -- plus the migration metrics only it has.
  ModelConfig cfg = TinyTestModel();
  InferenceEstimator estimator(cfg, TpuV4());
  DisaggConfig dc;
  dc.prefill_spec = PartitionSpec{Torus3D(2, 1, 1)};
  dc.decode_spec = PartitionSpec{Torus3D(2, 2, 1)};
  dc.prefill_slots = 2;
  dc.decode_slots = 4;
  dc.link = TestLink();
  const std::vector<ServeRequest> requests = StaggeredRequests(cfg);
  int64_t prompt_tokens = 0;
  for (const ServeRequest& r : requests)
    prompt_tokens += static_cast<int64_t>(r.prompt.size());

  obs::MetricsRegistry metrics;
  ServeOptions options = GreedyOptions(/*prefill_chunk=*/3);
  options.metrics = &metrics;
  const AnalyticDisaggRun run =
      RunAnalyticDisaggServing(estimator, dc, requests, options);
  ASSERT_EQ(run.report.serve.completed(), 6);
  const std::string json = metrics.ToJson();
  for (const char* name : {"serve/prefill_tokens", "serve/prefill_chunk_tokens",
                           "serve/decode_lanes", "serve/migrations"})
    EXPECT_NE(json.find(name), std::string::npos) << name;
  EXPECT_EQ(metrics.GetCounter("serve/prefill_tokens")->value(), prompt_tokens);
  EXPECT_EQ(metrics.GetHistogram("serve/decode_lanes", {})->Take().count,
            run.report.serve.decode_steps);
  EXPECT_EQ(metrics.GetHistogram("serve/prefill_chunk_tokens", {})->Take().count,
            run.report.serve.prefill_chunks);

  // The one-pool run of the same config registers no migration metrics.
  obs::MetricsRegistry colocated_metrics;
  options.metrics = &colocated_metrics;
  dc.prefill_slots = 0;
  RunAnalyticDisaggServing(estimator, dc, requests, options);
  EXPECT_EQ(colocated_metrics.ToJson().find("serve/migration"),
            std::string::npos);
}

TEST(DisaggServingTest, ShieldsDecodeTailFromLongContextPrefill) {
  // The tentpole scenario: short interactive requests decode while
  // long-context (RAG) prompts prefill. Colocated, each scheduler iteration
  // interleaves one long prefill chunk before the decode step, inflating
  // inter-token latency; disaggregated, the decode pool never sees the
  // prefill and only the (overlappable) migration crosses the seam.
  ModelConfig cfg = TinyTestModel();
  InferenceEstimator estimator(cfg, TpuV4());
  ServeOptions options = GreedyOptions(/*prefill_chunk=*/32);

  std::vector<ServeRequest> requests;
  for (int64_t i = 0; i < 8; ++i) {  // interactive stream
    ServeRequest r;
    r.id = i;
    r.arrival = static_cast<double>(i) * 1e-5;
    r.prompt = RandomTokens(8, cfg.vocab_size, 700 + static_cast<uint64_t>(i));
    r.max_new_tokens = 24;
    requests.push_back(std::move(r));
  }
  for (int64_t i = 0; i < 2; ++i) {  // concurrent RAG prefills
    ServeRequest r;
    r.id = 8 + i;
    r.arrival = 1e-5 + static_cast<double>(i) * 1e-4;
    r.prompt =
        RandomTokens(1024, cfg.vocab_size, 800 + static_cast<uint64_t>(i));
    r.max_new_tokens = 4;
    requests.push_back(std::move(r));
  }

  DisaggConfig dc;
  dc.prefill_spec = PartitionSpec{Torus3D(2, 1, 1)};
  dc.decode_spec = PartitionSpec{Torus3D(2, 2, 1)};
  dc.prefill_slots = 0;  // one colocated pool on the decode spec
  dc.decode_slots = 16;
  dc.link = TestLink();
  AnalyticDisaggRun colocated =
      RunAnalyticDisaggServing(estimator, dc, requests, options);
  dc.prefill_slots = 4;
  AnalyticDisaggRun disagg =
      RunAnalyticDisaggServing(estimator, dc, requests, options);

  ASSERT_EQ(colocated.report.serve.completed(), 10);
  ASSERT_EQ(disagg.report.serve.completed(), 10);
  EXPECT_EQ(colocated.report.migrations, 0);
  EXPECT_EQ(disagg.report.migrations, 10);

  auto interactive_tail = [](const ServeReport& r) {
    double worst = 0;
    for (const RequestRecord& rec : r.requests)
      if (rec.id < 8) worst = std::max(worst, rec.TimePerOutputToken());
    return worst;
  };
  const double colocated_tail = interactive_tail(colocated.report.serve);
  const double disagg_tail = interactive_tail(disagg.report.serve);
  ASSERT_GT(colocated_tail, 0.0);
  ASSERT_GT(disagg_tail, 0.0);
  EXPECT_LT(disagg_tail, colocated_tail)
      << "disaggregation failed to shield decode from the RAG prefill";
  EXPECT_GT(disagg.prefill_busy_seconds, 0.0);
  EXPECT_GT(disagg.decode_busy_seconds, 0.0);
}

}  // namespace
}  // namespace tsi
