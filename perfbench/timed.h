// Host-clock instrumentation the benchmark wraps around the serving stack
// from outside the program: a ServeBackend decorator and a KvMigrator
// decorator that time every engine call (one Decode step, one Prefill
// chunk, one Migrate) and, when tracing, record a span per call.
//
// Per-call timing is the benchmark's host latency unit. A request's
// host-clock TTFT would add up the host cost of every call the virtual
// schedule happens to interleave before it -- including the other pool's
// work under disaggregation -- so it multiplies per-call jitter by queue
// depth. Request latencies stay on the virtual clock.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "serve/disagg.h"
#include "serve/scheduler.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// In-memory span recorder: spans nest by call order (single-threaded use),
// carry both clocks, and are written out once the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double host_start_us = 0, host_end_us = 0;
    int parent = -1;
    int64_t request = -1;
    double virt_start = 0, virt_end = 0;  // virtual seconds (0 when none)
  };

  explicit SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  // Opens a span under the innermost open one; returns its index (-1 when
  // disabled).
  int Begin(std::string name, int64_t request = -1, double virt = 0) {
    if (!enabled_) return -1;
    Span s;
    s.name = std::move(name);
    s.host_start_us = NowUs();
    s.parent = open_.empty() ? -1 : open_.back();
    s.request = request;
    s.virt_start = s.virt_end = virt;
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void End(int idx, double virt = 0) {
    if (idx < 0) return;
    spans_[static_cast<size_t>(idx)].host_end_us = NowUs();
    spans_[static_cast<size_t>(idx)].virt_end = virt;
    open_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int64_t request = -1)
      : log_(log), idx_(log ? log->Begin(std::move(name), request) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->End(idx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int idx_;
};

enum class Phase { kPrefill, kDecode, kAdopt, kRelease, kMigrate };

inline const char* PhaseName(Phase p) {
  switch (p) {
    case Phase::kPrefill: return "prefill";
    case Phase::kDecode: return "decode";
    case Phase::kAdopt: return "adopt_prefix";
    case Phase::kRelease: return "release";
    case Phase::kMigrate: return "migrate";
  }
  return "?";
}

// One timed call.
struct CallSample {
  Phase phase = Phase::kDecode;
  double host_s = 0;
  int64_t tokens = 0;  // prefill: prompt tokens in the chunk; decode: lanes
  int64_t frame = 0;   // decode: fixed frame lanes
  double virt_s = 0;   // virtual seconds the call advanced its pool clock
  double hbm_bytes = 0, net_bytes = 0;  // charged on the pool's chips
  double page_fill = 0;  // decode: tokens / allocated page capacity, lanes
};

struct CallLog {
  std::vector<CallSample> calls;

  std::vector<double> HostMs(Phase phase) const {
    std::vector<double> out;
    for (const CallSample& c : calls)
      if (c.phase == phase) out.push_back(c.host_s * 1e3);
    return out;
  }
  // Prefill host ms per 1000 prompt tokens, one sample per chunk.
  std::vector<double> PrefillMsPerKtok() const {
    std::vector<double> out;
    for (const CallSample& c : calls)
      if (c.phase == Phase::kPrefill && c.tokens > 0)
        out.push_back(c.host_s * 1e3 * 1000.0 / static_cast<double>(c.tokens));
    return out;
  }
  double HostSeconds() const {
    double s = 0;
    for (const CallSample& c : calls) s += c.host_s;
    return s;
  }
  int64_t Count(Phase phase) const {
    int64_t n = 0;
    for (const CallSample& c : calls) n += c.phase == phase;
    return n;
  }
};

namespace internal {
inline double ChargedBytes(const tsi::SimMachine* m, bool network) {
  if (!m) return 0;
  double b = 0;
  for (int c = 0; c < m->num_chips(); ++c)
    b += network ? m->counters(c).network_bytes : m->counters(c).hbm_bytes;
  return b;
}
}  // namespace internal

// Times every call into `inner` and appends a CallSample to `log`; with an
// enabled SpanLog also records a span per call. `engine` (optional) lets
// decode samples carry the pool's charged HBM/network bytes and page fill.
class TimedBackend : public tsi::ServeBackend {
 public:
  TimedBackend(tsi::ServeBackend* inner, std::string pool, CallLog* log,
               SpanLog* spans, tsi::DistributedEngine* engine = nullptr)
      : inner_(inner), pool_(std::move(pool)), log_(log), spans_(spans),
        engine_(engine) {}

  int64_t num_slots() const override { return inner_->num_slots(); }
  double Now() const override { return inner_->Now(); }
  void AdvanceTo(double t) override { inner_->AdvanceTo(t); }

  int32_t Prefill(int64_t slot, int64_t request,
                  const std::vector<int32_t>& tokens, bool last) override {
    CallSample s;
    s.phase = Phase::kPrefill;
    s.tokens = static_cast<int64_t>(tokens.size());
    int32_t out = 0;
    Timed(s, request, [&] { out = inner_->Prefill(slot, request, tokens, last); });
    return out;
  }

  std::vector<int32_t> Decode(const std::vector<DecodeLane>& lanes) override {
    CallSample s;
    s.phase = Phase::kDecode;
    s.tokens = static_cast<int64_t>(lanes.size());
    s.frame = inner_->num_slots();
    if (engine_) {
      const auto& cache = engine_->cache();
      double tokens = 0, capacity = 0;
      for (const DecodeLane& l : lanes) {
        const double len = static_cast<double>(cache.slot_length(l.slot));
        const double ps = static_cast<double>(cache.page_size());
        tokens += len;
        capacity += std::ceil(len / ps) * ps;
      }
      s.page_fill = capacity > 0 ? tokens / capacity : 0;
    }
    std::vector<int32_t> out;
    Timed(s, -1, [&] { out = inner_->Decode(lanes); });
    return out;
  }

  void Release(int64_t slot) override {
    CallSample s;
    s.phase = Phase::kRelease;
    Timed(s, -1, [&] { inner_->Release(slot); });
  }

  int64_t AdoptPrefix(int64_t slot, const tsi::ServeRequest& req) override {
    CallSample s;
    s.phase = Phase::kAdopt;
    int64_t out = 0;
    Timed(s, req.id, [&] { out = inner_->AdoptPrefix(slot, req); });
    log_->calls.back().tokens = out;  // adopted prompt tokens
    return out;
  }

 private:
  template <typename F>
  void Timed(CallSample& s, int64_t request, F&& call) {
    const tsi::SimMachine* m = engine_ ? &engine_->machine() : nullptr;
    const double hbm0 = internal::ChargedBytes(m, false);
    const double net0 = internal::ChargedBytes(m, true);
    const double v0 = inner_->Now();
    const int span = spans_->Begin(pool_ + "." + PhaseName(s.phase), request, v0);
    const auto t0 = Clock::now();
    call();
    s.host_s = SecondsSince(t0);
    const double v1 = inner_->Now();
    spans_->End(span, v1);
    s.virt_s = v1 - v0;
    s.hbm_bytes = internal::ChargedBytes(m, false) - hbm0;
    s.net_bytes = internal::ChargedBytes(m, true) - net0;
    log_->calls.push_back(s);
  }

  tsi::ServeBackend* inner_;
  std::string pool_;
  CallLog* log_;
  SpanLog* spans_;
  tsi::DistributedEngine* engine_;
};

// Times every Migrate of `inner`.
class TimedMigrator : public tsi::KvMigrator {
 public:
  TimedMigrator(tsi::KvMigrator* inner, CallLog* log, SpanLog* spans)
      : inner_(inner), log_(log), spans_(spans) {}

  Result Migrate(int64_t src_slot, int64_t dst_slot, int64_t context) override {
    const int span = spans_->Begin("link.migrate");
    const auto t0 = Clock::now();
    Result r = inner_->Migrate(src_slot, dst_slot, context);
    CallSample s;
    s.phase = Phase::kMigrate;
    s.host_s = SecondsSince(t0);
    s.tokens = context;
    s.virt_s = r.seconds;
    s.net_bytes = r.bytes;
    spans_->End(span);
    log_->calls.push_back(s);
    return r;
  }

 private:
  tsi::KvMigrator* inner_;
  CallLog* log_;
  SpanLog* spans_;
};

}  // namespace perfbench
