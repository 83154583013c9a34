#include "serve/scheduler.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <list>
#include <optional>
#include <string>
#include <utility>

#include "serve/slots.h"
#include "sim/trace.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace tsi {

int64_t ServeReport::total_tokens() const {
  int64_t n = 0;
  for (const auto& r : requests) n += static_cast<int64_t>(r.tokens.size());
  return n;
}

double ServeReport::ThroughputRequestsPerSec() const {
  return makespan > 0 ? static_cast<double>(completed()) / makespan : 0;
}

double ServeReport::ThroughputTokensPerSec() const {
  return makespan > 0 ? static_cast<double>(total_tokens()) / makespan : 0;
}

namespace {
template <typename Fn>
LatencySummary SummarizeOver(const std::vector<RequestRecord>& requests, Fn fn) {
  std::vector<double> values;
  values.reserve(requests.size());
  for (const auto& r : requests) values.push_back(fn(r));
  return Summarize(values);
}
}  // namespace

LatencySummary ServeReport::QueueWaitSummary() const {
  return SummarizeOver(requests, [](const RequestRecord& r) { return r.QueueWait(); });
}
LatencySummary ServeReport::TtftSummary() const {
  return SummarizeOver(requests, [](const RequestRecord& r) { return r.Ttft(); });
}
LatencySummary ServeReport::LatencySummaryStats() const {
  return SummarizeOver(requests, [](const RequestRecord& r) { return r.Latency(); });
}
LatencySummary ServeReport::TimePerOutputTokenSummary() const {
  return SummarizeOver(requests,
                       [](const RequestRecord& r) { return r.TimePerOutputToken(); });
}

std::vector<double> RequestRecord::TokenGaps() const {
  std::vector<double> gaps;
  if (token_times.size() < 2) return gaps;
  gaps.reserve(token_times.size() - 1);
  for (size_t i = 1; i < token_times.size(); ++i)
    gaps.push_back(token_times[i] - token_times[i - 1]);
  return gaps;
}

std::map<std::string, obs::SloClassSamples> ServeReport::ClassSamples() const {
  std::map<std::string, obs::SloClassSamples> samples;
  for (const RequestRecord& r : requests) {
    obs::SloClassSamples& s = samples[r.klass];
    s.ttft.push_back(r.Ttft());
    for (double g : r.TokenGaps()) s.tpot.push_back(g);
  }
  return samples;
}

DisaggReport RunServing(ServeBackend& prefill, ServeBackend& decode,
                        KvMigrator* migrator, std::vector<ServeRequest> requests,
                        const ServeOptions& options) {
  TSI_CHECK_GT(options.prefill_chunk, 0);
  const bool one_pool = &prefill == &decode;
  TSI_CHECK(one_pool == (migrator == nullptr))
      << "two pools need a KV migrator; one pool takes none";
  TSI_CHECK(one_pool || !options.share_prefixes)
      << "disaggregation does not compose with KV prefix sharing: migrating "
      << "a forked slot would detach its COW pages";
  RequestQueue queue(std::move(requests));
  SlotAllocator prefill_slots(prefill.num_slots());
  std::optional<SlotAllocator> own_decode_slots;
  if (!one_pool) own_decode_slots.emplace(decode.num_slots());
  SlotAllocator& decode_slots = one_pool ? prefill_slots : *own_decode_slots;

  // Observability sinks. The scheduler loop is single-threaded, so timeline
  // rows keep insertion order and the "serve/" metrics are deterministic
  // functions of the workload (the golden tests rely on both).
  Tracer* tracer = options.tracer;
  obs::MetricsRegistry& metrics =
      options.metrics ? *options.metrics : obs::MetricsRegistry::Global();
  obs::Counter* m_admitted = metrics.GetCounter("serve/admitted");
  obs::Counter* m_retired = metrics.GetCounter("serve/retired");
  obs::Counter* m_prefill_chunks = metrics.GetCounter("serve/prefill_chunks");
  obs::Counter* m_decode_steps = metrics.GetCounter("serve/decode_steps");
  obs::Counter* m_idle_jumps = metrics.GetCounter("serve/idle_jumps");
  obs::Gauge* m_queue_depth = metrics.GetGauge("serve/queue_depth");
  obs::Gauge* m_active = metrics.GetGauge("serve/active");
  obs::Histogram* m_chunk_tokens = metrics.GetHistogram(
      "serve/prefill_chunk_tokens", {1, 2, 4, 8, 16, 32, 64, 128, 256});
  obs::Histogram* m_decode_lanes = metrics.GetHistogram(
      "serve/decode_lanes", {1, 2, 4, 8, 16, 32, 64, 128, 256});
  // Exact-sample mode (single-writer: this loop), so the exported p99s are
  // order statistics of the real waits/transfers, not bucket bounds. 64Ki
  // samples cover every workload the benches and tests run without
  // truncation.
  obs::Histogram* m_queue_wait = metrics.GetHistogram(
      "serve/queue_wait_s", {1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0},
      /*sample_cap=*/1 << 16);
  obs::Counter* m_prefill_tokens = metrics.GetCounter("serve/prefill_tokens");
  // Prefix-sharing and migration metrics exist only when the feature is in
  // play, so other runs' metric exports (and their golden tests) lack them.
  obs::Counter* m_prefix_hits =
      options.share_prefixes ? metrics.GetCounter("serve/prefix_hits") : nullptr;
  obs::Counter* m_prefix_tokens =
      options.share_prefixes ? metrics.GetCounter("serve/shared_prefix_tokens")
                             : nullptr;
  obs::Counter* m_migrations =
      migrator ? metrics.GetCounter("serve/migrations") : nullptr;
  obs::Counter* m_migrated_bytes =
      migrator ? metrics.GetCounter("serve/migrated_kv_bytes") : nullptr;
  obs::Gauge* m_migration_depth =
      migrator ? metrics.GetGauge("serve/migration_queue_depth") : nullptr;
  obs::Histogram* m_migration_s =
      migrator ? metrics.GetHistogram(
                     "serve/migration_s",
                     {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0},
                     /*sample_cap=*/1 << 16)
               : nullptr;

  enum class Stage { kPrefill, kMigrating, kDecode, kDone };
  struct Job {
    ServeRequest req;
    RequestRecord rec;
    Stage stage = Stage::kPrefill;
    int64_t slot = -1;       // prefill-pool slot; decode-pool once migrated
    int64_t prefilled = 0;   // prompt tokens already fed
    int32_t last_token = 0;  // fed back at the next decode step
    // kMigrating: decode-pool time the KV lands; infinite while queued.
    double landed = std::numeric_limits<double>::infinity();
  };
  std::list<Job> jobs;  // admission order (also the decode lane order)
  std::deque<Job*> migration_q;  // prefilled, waiting for link + decode slot
  int64_t migrating = 0;         // jobs queued or in flight on the link
  // A migrated source slot's id returns to the allocator once the prefill
  // clock passes the transfer's completion (the pages are gone at Migrate
  // time; only the virtual reuse point is gated).
  std::vector<std::pair<int64_t, double>> prefill_frees;
  std::vector<double> decode_slot_free(static_cast<size_t>(decode.num_slots()),
                                       0.0);
  double link_free = 0;
  DisaggReport out;
  ServeReport& report = out.serve;
  std::vector<ServeBackend::DecodeLane> lanes;
  std::vector<Job*> lane_jobs;

  auto hits_budget = [&](const Job& j, int32_t token) {
    return (options.eos_token && token == *options.eos_token) ||
           static_cast<int64_t>(j.rec.tokens.size()) >= j.req.max_new_tokens;
  };
  auto retire = [&](Job& j, ServeBackend& pool, SlotAllocator& slots) {
    j.rec.finished = pool.Now();
    pool.Release(j.slot);
    slots.Release(j.slot);
    m_retired->Add(1);
    if (tracer) {
      tracer->RecordInstant(
          "retire", j.rec.finished,
          {{"request", std::to_string(j.rec.id)},
           {"tokens", std::to_string(j.rec.tokens.size())}});
      tracer->RecordLifecycle('e', "request", j.rec.id, j.rec.finished);
    }
    TSI_LOG(DEBUG) << "retire request " << j.rec.id << " after "
                   << j.rec.tokens.size() << " tokens at t="
                   << j.rec.finished;
    report.requests.push_back(std::move(j.rec));
    j.stage = Stage::kDone;
  };

  while (!queue.empty() || !jobs.empty()) {
    bool worked = false;

    // 1. Two pools: release prefill slots whose transfer has completed, then
    //    start migrations FIFO while decode slots are free. The data is
    //    copied now (host side); virtually the transfer holds only the
    //    serialized link from max(ready, link free, slot free) for the A.1
    //    transfer time -- the prefill pool's next chunk overlaps it.
    for (auto it = prefill_frees.begin(); it != prefill_frees.end();) {
      if (it->second <= prefill.Now()) {
        prefill_slots.Release(it->first);
        it = prefill_frees.erase(it);
      } else {
        ++it;
      }
    }
    while (!migration_q.empty() && decode_slots.HasFree()) {
      Job& j = *migration_q.front();
      migration_q.pop_front();
      const int64_t src = j.slot;
      const int64_t dst = decode_slots.Acquire();
      const int64_t context = j.prefilled;
      const double start =
          std::max({j.rec.first_token, link_free,
                    decode_slot_free[static_cast<size_t>(dst)]});
      const KvMigrator::Result r = migrator->Migrate(src, dst, context);
      const double done = start + r.seconds;
      link_free = done;
      out.migrations += 1;
      out.migrated_bytes += r.bytes;
      out.link_busy_seconds += r.seconds;
      m_migrations->Add(1);
      m_migrated_bytes->Add(r.bytes);
      m_migration_s->Observe(r.seconds);
      if (tracer) {
        tracer->RecordScheduler(
            "migrate", start, done - start,
            {{"request", std::to_string(j.req.id)},
             {"bytes", FormatJsonDouble(r.bytes)},
             {"context", std::to_string(context)},
             {"src_slot", std::to_string(src)},
             {"dst_slot", std::to_string(dst)}});
        tracer->RecordLifecycle('n', "migrated", j.req.id, done);
      }
      TSI_LOG(DEBUG) << "migrate request " << j.req.id << " slot " << src
                     << " -> " << dst << " [" << start << ", " << done << ") "
                     << r.bytes << " bytes";
      prefill.Release(src);
      prefill_frees.emplace_back(src, done);
      j.slot = dst;
      j.landed = done;
    }

    // 2. Admission: arrived requests claim free prefill slots in arrival
    //    order.
    while (prefill_slots.HasFree() && queue.HasArrived(prefill.Now())) {
      Job& j = jobs.emplace_back();
      j.req = queue.Pop();
      j.slot = prefill_slots.Acquire();
      j.rec.id = j.req.id;
      j.rec.klass = j.req.klass;
      j.rec.arrival = j.req.arrival;
      j.rec.admitted = prefill.Now();
      m_admitted->Add(1);
      m_queue_wait->Observe(j.rec.QueueWait());
      if (tracer) {
        // The request row opens at arrival so Perfetto shows queue wait as
        // the gap between 'b' and the "admitted" instant.
        std::vector<std::pair<std::string, std::string>> bargs{
            {"prompt_tokens", std::to_string(j.req.prompt.size())}};
        if (!j.req.klass.empty()) bargs.emplace_back("class", j.req.klass);
        tracer->RecordLifecycle('b', "request", j.rec.id, j.rec.arrival,
                                std::move(bargs));
        tracer->RecordLifecycle('n', "admitted", j.rec.id, j.rec.admitted);
        tracer->RecordInstant(
            "admit", j.rec.admitted,
            {{"request", std::to_string(j.rec.id)},
             {"queue_wait", FormatJsonDouble(j.rec.QueueWait())}});
      }
      TSI_LOG(DEBUG) << "admit request " << j.rec.id << " into slot " << j.slot
                     << " at t=" << j.rec.admitted;
      if (options.share_prefixes) {
        // Fork-at-admission: prompt tokens covered by a shared KV prefix
        // never enter chunked prefill (they are already cached pages).
        j.prefilled = prefill.AdoptPrefix(j.slot, j.req);
        TSI_CHECK_GE(j.prefilled, 0);
        TSI_CHECK_LT(j.prefilled, static_cast<int64_t>(j.req.prompt.size()))
            << "AdoptPrefix must leave at least one prompt token to prefill";
        j.rec.shared_prefix_tokens = j.prefilled;
        if (j.prefilled > 0) {
          m_prefix_hits->Add(1);
          m_prefix_tokens->Add(j.prefilled);
          if (tracer)
            tracer->RecordInstant(
                "prefix_fork", j.rec.admitted,
                {{"request", std::to_string(j.rec.id)},
                 {"tokens", std::to_string(j.prefilled)}});
          TSI_LOG(DEBUG) << "request " << j.rec.id << " adopted "
                         << j.prefilled << " prefix tokens into slot "
                         << j.slot;
        }
      }
    }
    m_queue_depth->Set(static_cast<double>(queue.size()));
    m_active->Set(static_cast<double>(jobs.size()));
    if (m_migration_depth)
      m_migration_depth->Set(static_cast<double>(migrating));

    // 3. One prefill chunk for every request still in prefill (oldest
    //    first). Capping each request at one chunk bounds how long the
    //    decode lanes stall behind a long prompt (§3.5); feeding ALL
    //    prefilling requests keeps the decode frame from starving behind a
    //    single-request prefill pipeline when slots turn over quickly.
    for (Job& j : jobs) {
      if (j.stage != Stage::kPrefill) continue;
      const auto len = static_cast<int64_t>(j.req.prompt.size());
      const int64_t chunk = std::min(options.prefill_chunk, len - j.prefilled);
      const bool last = j.prefilled + chunk == len;
      std::vector<int32_t> piece(j.req.prompt.begin() + j.prefilled,
                                 j.req.prompt.begin() + j.prefilled + chunk);
      const double prefill_begin = prefill.Now();
      // KV tokens already cached before this chunk -- what the analytic
      // model (and the roofline fold) prices the chunk's attention against.
      const int64_t context = j.prefilled;
      const int32_t token = prefill.Prefill(j.slot, j.req.id, piece, last);
      j.prefilled += chunk;
      ++report.prefill_chunks;
      m_prefill_chunks->Add(1);
      m_prefill_tokens->Add(chunk);
      m_chunk_tokens->Observe(static_cast<double>(chunk));
      if (tracer)
        tracer->RecordScheduler(
            "prefill", prefill_begin, prefill.Now() - prefill_begin,
            {{"request", std::to_string(j.req.id)},
             {"tokens", std::to_string(chunk)},
             {"context", std::to_string(context)},
             {"last", last ? "true" : "false"}});
      worked = true;
      if (!last) continue;
      j.rec.first_token = prefill.Now();
      j.rec.tokens.push_back(token);
      j.rec.token_times.push_back(j.rec.first_token);
      j.last_token = token;
      if (tracer)
        tracer->RecordLifecycle('n', "first_token", j.req.id,
                                j.rec.first_token);
      if (hits_budget(j, token)) {
        retire(j, prefill, prefill_slots);  // done without a decode step
      } else if (one_pool) {
        j.stage = Stage::kDecode;  // same slot, this iteration's frame
      } else {
        j.stage = Stage::kMigrating;
        migration_q.push_back(&j);
        ++migrating;
      }
    }

    // 4. Two pools: transfers that have landed by the decode clock join the
    //    frame.
    if (migrating > 0) {
      for (Job& j : jobs) {
        if (j.stage == Stage::kMigrating && j.landed <= decode.Now()) {
          j.stage = Stage::kDecode;
          --migrating;
        }
      }
    }

    // 5. One decode step across every decoding lane.
    lanes.clear();
    lane_jobs.clear();
    for (Job& j : jobs) {
      if (j.stage != Stage::kDecode) continue;
      lanes.push_back({j.slot, j.last_token, j.req.id});
      lane_jobs.push_back(&j);
    }
    if (!lanes.empty()) {
      const double decode_begin = decode.Now();
      // Span args for the anatomy/roofline folds: which requests advanced
      // (lane order), the frame width the backend charges (every slot's KV
      // is streamed whether occupied or not, serve/analytic.cc), and the
      // longest lane's cached context before this step.
      std::string lane_requests;
      int64_t max_context = 0;
      for (const Job* j : lane_jobs) {
        if (!lane_requests.empty()) lane_requests += ',';
        lane_requests += std::to_string(j->req.id);
        max_context = std::max(
            max_context, static_cast<int64_t>(j->req.prompt.size()) +
                             static_cast<int64_t>(j->rec.tokens.size()) - 1);
      }
      const std::vector<int32_t> next = decode.Decode(lanes);
      TSI_CHECK_EQ(next.size(), lanes.size());
      ++report.decode_steps;
      m_decode_steps->Add(1);
      m_decode_lanes->Observe(static_cast<double>(lanes.size()));
      if (tracer)
        tracer->RecordScheduler(
            "decode", decode_begin, decode.Now() - decode_begin,
            {{"lanes", std::to_string(lanes.size())},
             {"requests", std::move(lane_requests)},
             {"frame", std::to_string(decode.num_slots())},
             {"context", std::to_string(max_context)}});
      for (size_t i = 0; i < lanes.size(); ++i) {
        Job& j = *lane_jobs[i];
        j.rec.tokens.push_back(next[i]);
        j.rec.token_times.push_back(decode.Now());
        j.last_token = next[i];
        if (hits_budget(j, next[i])) {
          decode_slot_free[static_cast<size_t>(j.slot)] = decode.Now();
          retire(j, decode, decode_slots);
        }
      }
      worked = true;
    }
    jobs.remove_if([](const Job& j) { return j.stage == Stage::kDone; });

    // 6. Idle: nothing ran, so fast-forward each pool to its next event --
    //    the prefill pool to the next arrival or slot release, the decode
    //    pool to the next transfer landing. Only events strictly in the
    //    future can unblock anything: an arrival at or before Now already
    //    failed admission (no free slot), so the unblocking event is the
    //    slot release.
    if (!worked) {
      constexpr double kInf = std::numeric_limits<double>::infinity();
      double tp_next = kInf, td_next = kInf;
      if (!queue.empty() && queue.NextArrival() > prefill.Now())
        tp_next = queue.NextArrival();
      for (const auto& [slot, when] : prefill_frees)
        if (when > prefill.Now()) tp_next = std::min(tp_next, when);
      for (const Job& j : jobs)
        if (j.stage == Stage::kMigrating && j.landed > decode.Now())
          td_next = std::min(td_next, j.landed);
      m_idle_jumps->Add(1);
      if (tracer)
        tracer->RecordInstant("idle", std::max(prefill.Now(), decode.Now()));
      TSI_CHECK(tp_next < kInf || td_next < kInf)
          << "scheduler stalled with work pending (queue=" << queue.size()
          << " in flight=" << jobs.size() << ")";
      if (tp_next < kInf) prefill.AdvanceTo(tp_next);
      if (td_next < kInf) decode.AdvanceTo(td_next);
    }
  }
  m_queue_depth->Set(0);
  m_active->Set(0);
  if (m_migration_depth) m_migration_depth->Set(0);

  std::sort(report.requests.begin(), report.requests.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              return a.id < b.id;
            });
  for (const auto& r : report.requests)
    report.makespan = std::max(report.makespan, r.finished);
  out.prefill_makespan = prefill.Now();
  out.decode_makespan = decode.Now();
  if (!options.slo.empty())
    report.slo = obs::EvaluateSlo(options.slo, report.ClassSamples());
  return out;
}

ServeReport RunContinuousServing(ServeBackend& backend,
                                 std::vector<ServeRequest> requests,
                                 const ServeOptions& options) {
  return RunServing(backend, backend, nullptr, std::move(requests), options)
      .serve;
}

DisaggReport RunDisaggServing(ServeBackend& prefill, ServeBackend& decode,
                              KvMigrator& migrator,
                              std::vector<ServeRequest> requests,
                              const ServeOptions& options) {
  return RunServing(prefill, decode, &migrator, std::move(requests), options);
}

}  // namespace tsi
