// The §4.4 serving recipe -- a batch-1 prefill server pipelined into a
// large-batch decode server -- as the analytic two-pool serving loop
// (RunAnalyticDisaggServing): service time at light load, queueing under
// load, decode batching, FIFO prefill, the pipeline against
// collect-then-batch, and pool utilization.
#include <gtest/gtest.h>

#include "core/migration.h"
#include "hw/chip.h"
#include "serve/disagg.h"
#include "serve/queue.h"
#include "sim/trace.h"

namespace tsi {
namespace {

constexpr int64_t kPrompt = 512;
constexpr int64_t kNew = 32;

InferenceEstimator Estimator() { return InferenceEstimator(Palm62B(), TpuV4()); }

// Batch-1 prefill pool and a decode pool with a `decode_slots`-lane frame,
// 16 chips each, joined by one TPU v4 link.
DisaggConfig Config(int64_t decode_slots = 8, int64_t prefill_slots = 1) {
  DisaggConfig c;
  c.prefill_spec = {Torus3D(2, 2, 4), FfnLayout::kWS2D, AttnSharding::kHeads,
                    WeightFormat::kInt8};
  c.decode_spec = {Torus3D(2, 2, 4), FfnLayout::kWS2D, AttnSharding::kBatch,
                   WeightFormat::kInt8};
  c.prefill_slots = prefill_slots;
  c.decode_slots = decode_slots;
  c.link.network_bw = TpuV4().network_bw;
  return c;
}

// One prefill chunk per prompt: the prefill pool runs §4.4's batch-1
// prefill of the whole prompt.
ServeOptions Options() {
  ServeOptions o;
  o.prefill_chunk = kPrompt;
  return o;
}

std::vector<ServeRequest> Uniform(int64_t n, double gap) {
  std::vector<ServeRequest> requests;
  for (int64_t i = 0; i < n; ++i) {
    ServeRequest r;
    r.id = i;
    r.arrival = gap * static_cast<double>(i);
    r.prompt.assign(static_cast<size_t>(kPrompt), 1);
    r.max_new_tokens = kNew;
    requests.push_back(std::move(r));
  }
  return requests;
}

AnalyticDisaggRun Serve(const DisaggConfig& config,
                        std::vector<ServeRequest> requests,
                        const ServeOptions& options = Options()) {
  return RunAnalyticDisaggServing(Estimator(), config, std::move(requests),
                                  options);
}

double MeanLatency(const ServeReport& report) {
  return report.LatencySummaryStats().mean;
}

TEST(ServingTest, LightLoadLatencyIsPrefillPlusMigrationPlusDecode) {
  // Sparse arrivals: nothing queues, so every request's latency is its
  // batch-1 prefill, one KV transfer, and kNew - 1 decode steps of the
  // fixed frame at a growing context.
  const InferenceEstimator est = Estimator();
  const DisaggConfig cfg = Config();
  const AnalyticDisaggRun run = Serve(cfg, Uniform(5, 100.0));
  ASSERT_EQ(run.report.serve.completed(), 5);

  double service = est.Prefill(cfg.prefill_spec, 1, kPrompt).seconds +
                   EstimateKvMigration(est.config(), kPrompt,
                                       ActivationBytes(cfg.decode_spec.kv_format),
                                       cfg.decode_spec.kv_page_size, cfg.link)
                       .seconds;
  for (int64_t step = 0; step < kNew - 1; ++step)
    service += est.DecodeStep(cfg.decode_spec,
                              static_cast<double>(cfg.decode_slots),
                              static_cast<double>(kPrompt + step))
                   .seconds;
  for (const RequestRecord& r : run.report.serve.requests) {
    EXPECT_EQ(r.QueueWait(), 0.0) << "request " << r.id;
    EXPECT_NEAR(r.Latency(), service, 1e-9 * service) << "request " << r.id;
  }
  EXPECT_EQ(run.report.migrations, 5);
}

TEST(ServingTest, HeavierLoadIncreasesLatency) {
  // A one-lane decode frame isolates queueing: every request waits for the
  // previous one's whole generation.
  const AnalyticDisaggRun light = Serve(Config(1), Uniform(30, 1.0));
  const AnalyticDisaggRun heavy = Serve(Config(1), Uniform(30, 0.02));
  EXPECT_GT(MeanLatency(heavy.report.serve), MeanLatency(light.report.serve));
  const LatencySummary s = heavy.report.serve.LatencySummaryStats();
  EXPECT_GE(s.p99, s.p50);
}

TEST(ServingTest, WiderDecodeFrameImprovesThroughputUnderLoad) {
  // Saturating arrivals (everything at t=0): a 16-lane decode frame
  // amortizes each step's weight loads over 16 requests. 16 prefill slots
  // let finished prefills wait for decode lanes without blocking the next
  // prompt's prefill.
  const auto burst = Uniform(64, 0.0);
  const AnalyticDisaggRun b1 = Serve(Config(1, 16), burst);
  const AnalyticDisaggRun b16 = Serve(Config(16, 16), burst);
  EXPECT_GT(b16.report.serve.ThroughputTokensPerSec(),
            1.5 * b1.report.serve.ThroughputTokensPerSec());
}

TEST(ServingTest, PrefillIsFifoAndNonOverlapping) {
  // One prefill slot: prompts prefill one at a time in arrival order.
  Tracer tracer;
  ServeOptions options = Options();
  options.tracer = &tracer;
  const AnalyticDisaggRun run = Serve(Config(8, 1), Uniform(10, 0.01), options);
  ASSERT_EQ(run.report.serve.completed(), 10);

  const std::vector<TimelineEvent> timeline = tracer.timeline();
  std::vector<const TimelineEvent*> spans;
  for (const TimelineEvent& e : timeline)
    if (e.ph == 'X' && e.name == "prefill") spans.push_back(&e);
  ASSERT_EQ(spans.size(), 10u);
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i]->args[0].second, std::to_string(i)) << "span " << i;
    if (i > 0) {
      EXPECT_GE(spans[i]->ts, spans[i - 1]->ts + spans[i - 1]->dur)
          << "prefill spans " << i - 1 << " and " << i << " overlap";
    }
  }
}

TEST(ServingTest, PipelineBeatsCollectThenBatchOnStreamingArrivals) {
  // The point of the paper's pipeline: when requests stream in, prefilling
  // each at batch 1 on arrival (and batching only the decode) beats
  // collecting a full batch before a batched prefill, because the prefill
  // work hides behind the arrival gaps.
  const InferenceEstimator est = Estimator();
  const DisaggConfig cfg = Config(8);
  const auto requests = Uniform(8, 0.3);
  const AnalyticDisaggRun pipeline = Serve(cfg, requests);

  // Alternative: wait for all 8, then one batch-8 prefill + batch-8 decode.
  const double done = requests.back().arrival +
                      est.Prefill(cfg.prefill_spec, 8, kPrompt).seconds +
                      est.Generate(cfg.decode_spec, 8, kPrompt, kNew).seconds;
  double collect_mean = 0;
  for (const ServeRequest& r : requests) collect_mean += done - r.arrival;
  collect_mean /= static_cast<double>(requests.size());

  EXPECT_LT(MeanLatency(pipeline.report.serve), collect_mean);
}

TEST(ServingTest, PoolBusyFractionsAreFractions) {
  const AnalyticDisaggRun run = Serve(Config(8, 2), Uniform(40, 0.05));
  const double prefill_frac =
      run.prefill_busy_seconds / run.report.prefill_makespan;
  const double decode_frac =
      run.decode_busy_seconds / run.report.decode_makespan;
  EXPECT_GT(prefill_frac, 0);
  EXPECT_LE(prefill_frac, 1.0);
  EXPECT_GT(decode_frac, 0);
  EXPECT_LE(decode_frac, 1.0);
}

TEST(PoissonArrivalsTest, SortedDeterministicAndRateRoughlyRight) {
  auto a = PoissonArrivals(10.0, 2000, 42);
  auto b = PoissonArrivals(10.0, 2000, 42);
  EXPECT_EQ(a, b);
  for (size_t i = 1; i < a.size(); ++i) EXPECT_GE(a[i], a[i - 1]);
  // Mean inter-arrival ~ 1/rate.
  double mean = a.back() / static_cast<double>(a.size());
  EXPECT_NEAR(mean, 0.1, 0.02);
}

}  // namespace
}  // namespace tsi
