// Tests for the benchmark's own statistics and its per-call timing.
#include <gtest/gtest.h>

#include <thread>

#include "stats.h"
#include "timed.h"

namespace perfbench {
namespace {

std::vector<double> Iota(int n) {
  std::vector<double> v(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) v[static_cast<size_t>(i)] = i + 1;
  return v;
}

TEST(Percentile, NearestRankAndSamplesBeyond) {
  const Percentile p = ComputePercentile(Iota(100), 0.9);
  EXPECT_EQ(p.value, 90);
  EXPECT_EQ(p.n, 100);
  EXPECT_EQ(p.beyond, 10);
  EXPECT_TRUE(Supported(p));
  const Percentile m = ComputePercentile({5, 1, 3}, 0.5);
  EXPECT_EQ(m.value, 3);
  EXPECT_EQ(m.beyond, 1);
}

TEST(Percentile, ReportedOnlyWithTenSamplesBeyond) {
  EXPECT_FALSE(Supported(ComputePercentile(Iota(99), 0.9)));  // 9 beyond
  EXPECT_TRUE(Supported(ComputePercentile(Iota(100), 0.9)));
  EXPECT_FALSE(Supported(ComputePercentile(Iota(19), 0.5)));
  EXPECT_TRUE(Supported(ComputePercentile(Iota(20), 0.5)));
  EXPECT_FALSE(Supported(ComputePercentile({}, 0.5)));
  EXPECT_THROW(RequirePercentile(Iota(99), 0.9, "x"), std::runtime_error);
  try {
    RequirePercentile(Iota(50), 0.99, "host_decode_ms_p99");
    FAIL();
  } catch (const std::runtime_error& e) {
    // The message names the metric and its sample count.
    EXPECT_NE(std::string(e.what()).find("host_decode_ms_p99"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("of 50"), std::string::npos);
  }
  EXPECT_EQ(RequirePercentile(Iota(40), 0.75, "x").value, 30);
}

TEST(Goodput, HighestFixedRateMeetingTarget) {
  const std::vector<double> rates = {100, 200, 400, 800};
  auto frac = [](double r) { return r <= 400 ? 0.95 : 0.5; };
  EXPECT_EQ(GoodputRate(rates, 0.9, frac), 400);
  // Unsorted ladders and non-monotone curves: every rate is tried.
  EXPECT_EQ(GoodputRate({800, 100, 400}, 0.9,
                        [](double r) { return r == 800 ? 1.0 : 0.0; }),
            800);
  EXPECT_EQ(GoodputRate(rates, 0.9, [](double) { return 0.0; }), 0);
  EXPECT_EQ(GoodputRate(rates, 0.9, [](double) { return 0.9; }), 800);
}

TEST(Slo, FailedAndMissingRequestsCountAsMisses) {
  std::vector<Outcome> o = {{true, 0.1, 0.01}, {true, 0.1, 0.01},
                            {false, 0.0, 0.0},  // failed: a miss whatever its stamps
                            {true, 0.5, 0.01},  // TTFT over the limit
                            {true, 0.1, 0.05}};  // TPOT over the limit
  EXPECT_DOUBLE_EQ(SloFraction(o, 5, 0.2, 0.02), 2.0 / 5.0);
  // Two more attempted requests that never produced an outcome.
  EXPECT_DOUBLE_EQ(SloFraction(o, 7, 0.2, 0.02), 2.0 / 7.0);
  EXPECT_EQ(SloFraction({}, 0, 1, 1), 0);
}

TEST(Stratified, SeedPermutesAFixedMix) {
  tsi::Rng a(1), b(2);
  auto la = StratifiedLengths(20, 16, 64, a), lb = StratifiedLengths(20, 16, 64, b);
  EXPECT_NE(la, lb);
  std::sort(la.begin(), la.end());
  std::sort(lb.begin(), lb.end());
  EXPECT_EQ(la, lb);
  EXPECT_GE(la.front(), 16);
  EXPECT_LE(la.back(), 64);
  tsi::Rng c(3);
  const auto arr = StratifiedArrivals(1000, 50.0, c);
  EXPECT_EQ(arr.front(), 0);
  EXPECT_TRUE(std::is_sorted(arr.begin(), arr.end()));
  EXPECT_NEAR(arr.back() / 999.0, 1.0 / 50.0, 0.1 / 50.0);  // mean gap 1/rate
}

// A backend whose decode and prefill take known, different host times.
class FakeBackend : public tsi::ServeBackend {
 public:
  int64_t num_slots() const override { return 4; }
  double Now() const override { return now_; }
  void AdvanceTo(double t) override { now_ = std::max(now_, t); }
  int32_t Prefill(int64_t, int64_t, const std::vector<int32_t>&, bool) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    now_ += 2;
    return 7;
  }
  std::vector<int32_t> Decode(const std::vector<DecodeLane>& lanes) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    now_ += 1;
    return std::vector<int32_t>(lanes.size(), 1);
  }
  void Release(int64_t) override {}

 private:
  double now_ = 0;
};

TEST(TimedBackend, AttributesEachCallToItsPhase) {
  FakeBackend fake;
  CallLog log;
  SpanLog spans(true);
  TimedBackend timed(&fake, "engine", &log, &spans);
  EXPECT_EQ(timed.Prefill(0, 3, std::vector<int32_t>(100, 1), true), 7);
  timed.Decode({{0, 1, 3}, {1, 1, 4}});
  timed.Decode({{0, 1, 3}});
  timed.Release(0);
  ASSERT_EQ(log.calls.size(), 4u);
  EXPECT_EQ(log.Count(Phase::kPrefill), 1);
  EXPECT_EQ(log.Count(Phase::kDecode), 2);
  EXPECT_EQ(log.Count(Phase::kRelease), 1);
  const auto pre = log.HostMs(Phase::kPrefill), dec = log.HostMs(Phase::kDecode);
  ASSERT_EQ(pre.size(), 1u);
  ASSERT_EQ(dec.size(), 2u);
  EXPECT_GE(pre[0], 30.0);
  for (double d : dec) {
    EXPECT_GE(d, 5.0);
    EXPECT_LT(d, 30.0);  // a decode never absorbs the prefill's time
  }
  // Per-ktok prefill samples divide by the chunk's prompt tokens.
  ASSERT_EQ(log.PrefillMsPerKtok().size(), 1u);
  EXPECT_DOUBLE_EQ(log.PrefillMsPerKtok()[0], pre[0] * 10.0);
  EXPECT_EQ(log.calls[1].tokens, 2);  // lanes
  EXPECT_EQ(log.calls[1].frame, 4);
  EXPECT_EQ(log.calls[0].virt_s, 2);
  EXPECT_EQ(log.calls[1].virt_s, 1);
  // One span per call, named by pool and phase, carrying both clocks.
  ASSERT_EQ(spans.spans().size(), 4u);
  EXPECT_EQ(spans.spans()[0].name, "engine.prefill");
  EXPECT_EQ(spans.spans()[0].request, 3);
  EXPECT_EQ(spans.spans()[0].virt_end, 2);
  EXPECT_EQ(spans.spans()[1].name, "engine.decode");
}

TEST(SpanLog, NestsByCallOrderAndCanBeOff) {
  SpanLog log(true);
  const int a = log.Begin("outer");
  const int b = log.Begin("inner");
  log.End(b);
  log.End(a);
  EXPECT_EQ(log.spans()[1].parent, 0);
  EXPECT_EQ(log.spans()[0].parent, -1);
  SpanLog off(false);
  EXPECT_EQ(off.Begin("x"), -1);
  off.End(-1);
  EXPECT_TRUE(off.spans().empty());
}

}  // namespace
}  // namespace perfbench
