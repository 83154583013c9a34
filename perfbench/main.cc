// Serving benchmark (serve_bench): runs one serving workload on the functional
// engine (DistributedEngine behind EngineServeBackend, through
// RunContinuousServing or RunDisaggServing) and prints its metrics on two
// clocks -- the host clock (what the simulator costs its user, timed per
// engine call and over the whole run) and the virtual TPU v4 clock (exact
// request latencies). With --trace 1 it instead runs a traced pass plus
// kernel and collective probes and prints per-layer metrics.
//
//   serve_bench --workload chat|rag_disagg|multiturn_prefix --seed N
//               --seconds S --trace 0|1 [--trace-out FILE]
//
// TSI_NUM_THREADS and TSI_SPMD_SLOTS must be set; they are part of the
// host fingerprint every run prints. The last stdout line is the result
// object {"correct", "attempted", "failed", "metrics"}. A correctness
// failure still prints it (correct: false) and exits 1; any other error
// exits 2 without a result. perfbench/README.md defines every metric.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "hw/chip.h"
#include "model/attention.h"
#include "model/reference.h"
#include "quant/int8.h"
#include "serve/analytic.h"
#include "serve/disagg.h"
#include "serve/runtime.h"
#include "sim/spmd.h"
#include "stats.h"
#include "timed.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace {

using namespace tsi;
namespace pb = perfbench;

// ---------------------------------------------------------------------------
// Command line and host fingerprint

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--trace-out") a.trace_out = v;
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

int RequiredEnvInt(const char* name) {
  const char* v = std::getenv(name);
  if (!v || !*v) throw std::runtime_error(std::string(name) + " must be set");
  const int n = std::atoi(v);
  if (n < 1) throw std::runtime_error(std::string(name) + " must be >= 1");
  return n;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Fingerprint(int threads, int slots) {
  std::ostringstream os;
  os << "{\"cpu\":" << JsonEscape(CpuModel())
     << ",\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"avx2\":" << (__builtin_cpu_supports("avx2") ? "true" : "false")
     << ",\"avx512f\":" << (__builtin_cpu_supports("avx512f") ? "true" : "false")
     << ",\"compiler\":\"" << PERFBENCH_COMPILER << "\""
     << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\""
     << ",\"TSI_NUM_THREADS\":" << threads << ",\"TSI_SPMD_SLOTS\":" << slots
     << "}";
  return os.str();
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Model and weights

// PaLM 540B proportions at 1/8 of the feature width (the same shape as the
// decode fast-path benches): F = 4E SwiGLU FFN, multiquery attention,
// parallel block, so decode is weight-bandwidth bound as at full scale.
ModelConfig BenchModel() {
  ModelConfig cfg;
  cfg.name = "palm540b-class-e2304";
  cfg.num_layers = 2;
  cfg.d_model = 2304;
  cfg.d_ff = 9216;
  cfg.n_heads = 16;
  cfg.d_head = 144;
  cfg.vocab_size = 1024;
  cfg.attention = AttentionKind::kMultiQuery;
  cfg.gated_ffn = true;
  cfg.parallel_block = true;
  return cfg;
}

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Uniform values of standard deviation `stddev` around `mean`, a pure
// function of (seed, tag, element index) so the fill is parallel and still
// deterministic. This is benchmark input generation, outside set-up time.
Tensor SynthTensor(Shape shape, uint64_t seed, uint64_t tag, float mean,
                   float stddev) {
  Tensor t(std::move(shape));
  float* d = t.data();
  const uint64_t base = SplitMix(seed * 1000003ull + tag);
  const float half_width = std::sqrt(3.0f) * stddev;
  ThreadPool::Global().ParallelFor(t.numel(), 1 << 16, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      const uint64_t r = SplitMix(base + static_cast<uint64_t>(i));
      const float u = static_cast<float>(r >> 40) * (1.0f / 16777216.0f);
      d[i] = mean + half_width * (2.0f * u - 1.0f);
    }
  });
  return t;
}

ModelWeights SynthWeights(const ModelConfig& cfg, uint64_t seed) {
  ModelWeights w;
  w.config = cfg;
  const int64_t E = cfg.d_model, F = cfg.d_ff;
  const int64_t HD = cfg.n_heads * cfg.d_head, KD = cfg.n_kv_heads() * cfg.d_head;
  uint64_t tag = 0;
  auto mat = [&](int64_t rows, int64_t cols) {
    return SynthTensor({rows, cols}, seed, ++tag, 0.0f,
                       1.0f / std::sqrt(static_cast<float>(rows)));
  };
  auto gain = [&](int64_t n) { return SynthTensor({n}, seed, ++tag, 1.0f, 0.1f); };
  w.embedding = mat(cfg.vocab_size, E);
  w.final_ln_gain = gain(E);
  for (int64_t l = 0; l < cfg.num_layers; ++l) {
    LayerWeights lw;
    lw.ln_gain = gain(E);
    lw.ln2_gain = gain(E);
    lw.wq = mat(E, HD);
    lw.wk = mat(E, KD);
    lw.wv = mat(E, KD);
    lw.wo = mat(HD, E);
    lw.win = mat(E, F);
    lw.win_gate = mat(E, F);
    lw.wout = mat(F, E);
    w.layers.push_back(std::move(lw));
  }
  return w;
}

// ---------------------------------------------------------------------------
// Workloads

struct Pool {
  Torus3D mesh;
  EngineSpec spec;
  int64_t slots = 0;
};

struct Workload {
  std::string name;
  bool disagg = false;
  bool int8 = false;
  Pool main;     // the colocated pool, or the decode pool when disaggregated
  Pool prefill;  // disaggregated only
  ServeOptions options;
  std::vector<int32_t> system_prompt;
  std::vector<ServeRequest> requests;
  double rate = 0;  // virtual arrivals per second
  // The goodput sweep's rate ladder: sweep_base * 2^(k/8), k = 0..24.
  double sweep_base = 0;
  // Fixed SLO limits (virtual seconds) and the goodput target.
  double ttft_limit = 0, tpot_limit = 0;
  double slo_target = 0.9;
  uint64_t seed = 0;
};

std::vector<int32_t> Tokens(int64_t n, int64_t vocab, Rng& rng) {
  std::vector<int32_t> t(static_cast<size_t>(n));
  for (auto& v : t) v = static_cast<int32_t>(rng.NextBelow(static_cast<uint64_t>(vocab)));
  return t;
}

EngineSpec FusedSpec(FfnLayout prefill, FfnLayout decode, AttnSharding attn,
                     bool int8) {
  EngineSpec s;
  s.prefill_ffn = prefill;
  s.decode_ffn = decode;
  s.attn = attn;
  s.fastpath.fuse_ops = true;
  if (int8) s.fastpath.precision = FastPathPrecision::kInt8;
  return s;
}

// The request mix of `name` at arrival `rate`, `scale` times the functional
// run's population (the goodput sweep uses a larger one). Lengths and
// inter-arrival gaps are stratified and only their order depends on the
// seed; see README.md.
std::vector<ServeRequest> MakeRequests(const std::string& name, uint64_t seed,
                                       double rate, int64_t scale,
                                       const std::vector<int32_t>& system_prompt,
                                       int64_t vocab) {
  Rng rng(Rng::DeriveSeed(seed, 17));
  std::vector<ServeRequest> out;
  if (name == "chat") {
    const int64_t n = 20 * scale;
    auto prompts = pb::StratifiedLengths(n, 16, 48, rng);
    auto outputs = pb::StratifiedLengths(n, 16, 40, rng);
    auto arrivals = pb::StratifiedArrivals(n, rate, rng);
    for (int64_t i = 0; i < n; ++i) {
      ServeRequest r;
      r.id = i;
      r.klass = "chat";
      r.arrival = arrivals[static_cast<size_t>(i)];
      r.prompt = Tokens(prompts[static_cast<size_t>(i)], vocab, rng);
      r.max_new_tokens = outputs[static_cast<size_t>(i)];
      out.push_back(std::move(r));
    }
  } else if (name == "rag_disagg") {
    const int64_t n_rag = 2 * scale, n_chat = 18 * scale, n = n_rag + n_chat;
    auto rag_prompts = pb::StratifiedLengths(n_rag, 256, 384, rng);
    auto rag_outputs = pb::StratifiedLengths(n_rag, 3, 6, rng);
    auto chat_prompts = pb::StratifiedLengths(n_chat, 16, 32, rng);
    auto chat_outputs = pb::StratifiedLengths(n_chat, 3, 6, rng);
    auto arrivals = pb::StratifiedArrivals(n, rate, rng);
    size_t ri = 0, ci = 0;
    for (int64_t i = 0; i < n; ++i) {
      ServeRequest r;
      r.id = i;
      r.arrival = arrivals[static_cast<size_t>(i)];
      // RAG requests hold fixed places in the arrival order (the 6th and
      // 16th of every 20): where a long prefill lands in the queue sets every
      // later request's wait, so it is part of the workload, not the seed.
      if (i % 10 == 5) {
        r.klass = "rag";
        r.prompt = Tokens(rag_prompts[ri], vocab, rng);
        r.max_new_tokens = rag_outputs[ri++];
      } else {
        r.klass = "interactive";
        r.prompt = Tokens(chat_prompts[ci], vocab, rng);
        r.max_new_tokens = chat_outputs[ci++];
      }
      out.push_back(std::move(r));
    }
  } else if (name == "multiturn_prefix") {
    // Conversations of 3-4 turns opened by Poisson-shaped arrivals. Turn k+1
    // repeats turn k's prompt, then a client-side transcript of the reply
    // and the next user message, and names turn k as its parent; it arrives
    // a think time of 5 ms after turn k, which outlasts turn k's service,
    // so the parent is retained and forkable when the follow-up is admitted.
    std::vector<int64_t> turns;
    for (int64_t c = 0; c < 6 * scale; ++c) turns.push_back(c % 3 == 2 ? 4 : 3);
    pb::Shuffle(turns, rng);
    int64_t n = 0;
    for (int64_t t : turns) n += t;
    auto users = pb::StratifiedLengths(n, 16, 32, rng);
    auto outputs = pb::StratifiedLengths(n, 8, 16, rng);
    auto starts = pb::StratifiedArrivals(static_cast<int64_t>(turns.size()), rate, rng);
    const double kThink = 5e-3;  // virtual seconds
    int64_t id = 0;
    for (size_t c = 0; c < turns.size(); ++c) {
      std::vector<int32_t> prompt = system_prompt;
      double arrival = starts[c];
      int64_t parent = -1;
      for (int64_t k = 0; k < turns[c]; ++k) {
        const size_t i = static_cast<size_t>(id);
        if (k > 0) {
          auto reply = Tokens(16, vocab, rng);
          prompt.insert(prompt.end(), reply.begin(), reply.end());
          arrival += kThink;
        }
        auto user = Tokens(users[i], vocab, rng);
        prompt.insert(prompt.end(), user.begin(), user.end());
        ServeRequest r;
        r.id = id;
        r.klass = "chat";
        r.arrival = arrival;
        r.prompt = prompt;
        r.max_new_tokens = outputs[i];
        r.parent = parent;
        parent = id++;
        out.push_back(std::move(r));
      }
    }
  } else {
    throw std::invalid_argument("unknown workload " + name);
  }
  return out;
}

Workload MakeWorkload(const std::string& name, uint64_t seed, int64_t vocab) {
  Workload w;
  w.name = name;
  w.seed = seed;
  w.options.sampling.temperature = 0;  // greedy: tokens are checkable
  if (name == "chat") {
    // Decode-heavy colocated serving: the skinny per-chip GEMM, short-context
    // SDPA and per-step collectives dominate host time.
    w.main = {Torus3D(2, 2, 2),
              FusedSpec(FfnLayout::kWS2D, FfnLayout::kWS2D, AttnSharding::kHeads, false),
              16};
    w.options.prefill_chunk = 64;
    w.rate = 4000;
    w.sweep_base = 1000;
    w.ttft_limit = 3.0e-3;
    w.tpot_limit = 0.2e-3;
  } else if (name == "rag_disagg") {
    // Prefill-heavy two-pool serving: a small weight-gathered prefill pool
    // hands KV over the link to a weight-stationary decode pool.
    w.disagg = true;
    w.prefill = {Torus3D(1, 1, 2),
                 FusedSpec(FfnLayout::kWGXYZ, FfnLayout::kWS2D, AttnSharding::kBatch, false),
                 2};
    w.main = {Torus3D(2, 2, 1),
              FusedSpec(FfnLayout::kWS2D, FfnLayout::kWS2D, AttnSharding::kHeads, false),
              8};
    w.options.prefill_chunk = 192;
    w.rate = 3000;
    w.sweep_base = 500;
    w.ttft_limit = 20.0e-3;
    w.tpot_limit = 0.3e-3;
  } else if (name == "multiturn_prefix") {
    // Prefix-cache reads (AdoptPrefix/ForkSlot) beside appends and COW
    // splits on int8 pages; the retention caps force evictions.
    w.int8 = true;
    w.main = {Torus3D(2, 2, 2),
              FusedSpec(FfnLayout::kWS2D, FfnLayout::kWS2D, AttnSharding::kHeads, true),
              8};
    w.options.prefill_chunk = 128;
    w.options.share_prefixes = true;
    // Every turn's context is retained on retirement; the count cap then
    // evicts the superseded contexts of earlier turns, LRU first.
    w.options.retain_parents = 6;
    w.options.retain_page_budget = 256;
    Rng rng(Rng::DeriveSeed(seed, 5));
    w.system_prompt = Tokens(256, vocab, rng);
    w.rate = 20000;
    w.sweep_base = 500;
    w.ttft_limit = 1.0e-3;
    w.tpot_limit = 0.2e-3;
  } else {
    throw std::invalid_argument("unknown workload " + name);
  }
  w.requests = MakeRequests(name, seed, w.rate, 1, w.system_prompt, vocab);
  return w;
}

// ---------------------------------------------------------------------------
// Bring-up (the set-up the setup_s metric times) and one serving pass

CommCostModel Link() {
  CommCostModel link;
  link.network_bw = TpuV4().network_bw;
  return link;
}

struct Rig {
  obs::MetricsRegistry metrics;
  ServeOptions options;
  std::unique_ptr<SimMachine> machine, prefill_machine;
  std::unique_ptr<DistributedEngine> engine, prefill_engine;
  std::unique_ptr<EngineServeBackend> backend, prefill_backend;
  std::unique_ptr<EngineKvMigrator> migrator;
};

std::unique_ptr<Rig> BringUp(const Workload& w, const ModelWeights& weights,
                             bool share_prefixes) {
  auto rig = std::make_unique<Rig>();
  rig->options = w.options;
  rig->options.share_prefixes = share_prefixes && w.options.share_prefixes;
  rig->options.metrics = &rig->metrics;
  rig->machine = std::make_unique<SimMachine>(w.main.mesh, TpuV4());
  rig->engine = std::make_unique<DistributedEngine>(weights, rig->machine.get(), w.main.spec);
  rig->engine->set_metrics(&rig->metrics);
  rig->backend = std::make_unique<EngineServeBackend>(rig->engine.get(), w.main.slots, rig->options);
  if (rig->options.share_prefixes) rig->backend->RegisterSystemPrompt(w.system_prompt);
  if (w.disagg) {
    rig->prefill_machine = std::make_unique<SimMachine>(w.prefill.mesh, TpuV4());
    rig->prefill_engine = std::make_unique<DistributedEngine>(
        weights, rig->prefill_machine.get(), w.prefill.spec);
    rig->prefill_engine->set_metrics(&rig->metrics);
    rig->prefill_backend = std::make_unique<EngineServeBackend>(
        rig->prefill_engine.get(), w.prefill.slots, rig->options);
    rig->migrator = std::make_unique<EngineKvMigrator>(
        rig->prefill_engine.get(), rig->engine.get(), w.main.slots, Link());
  }
  return rig;
}

struct Pass {
  ServeReport report;
  double migrated_bytes = 0, link_busy_s = 0;
  pb::CallLog calls;
  double loop_s = 0;  // host wall of the serving loop
  // Registry reads after the loop.
  int64_t fused_ops = 0, kv_forks = 0, kv_cow_splits = 0, evicted_parents = 0;
  double kv_pages_peak = 0, kv_bytes_peak = 0;
};

Pass RunPass(Rig& rig, const Workload& w, const std::vector<ServeRequest>& requests,
             pb::SpanLog* spans) {
  Pass p;
  pb::TimedBackend main(rig.backend.get(), w.disagg ? "decode" : "engine", &p.calls,
                        spans, rig.engine.get());
  const int loop = spans->Begin("serve.loop");
  const auto t0 = pb::Clock::now();
  if (w.disagg) {
    pb::TimedBackend pre(rig.prefill_backend.get(), "prefill", &p.calls, spans,
                         rig.prefill_engine.get());
    pb::TimedMigrator mig(rig.migrator.get(), &p.calls, spans);
    DisaggReport d = RunDisaggServing(pre, main, mig, requests, rig.options);
    p.report = std::move(d.serve);
    p.migrated_bytes = d.migrated_bytes;
    p.link_busy_s = d.link_busy_seconds;
  } else {
    p.report = RunContinuousServing(main, requests, rig.options);
  }
  p.loop_s = pb::SecondsSince(t0);
  spans->End(loop, p.report.makespan);
  auto counter = [&](const char* n) { return rig.metrics.GetCounter(n)->value(); };
  auto gauge = [&](const char* n) { return rig.metrics.GetGauge(n)->value(); };
  p.fused_ops = counter("fastpath/fused_ops");
  p.kv_forks = counter("kv/forks");
  p.kv_cow_splits = counter("kv/cow_splits");
  p.evicted_parents = counter("serve/evicted_parents");
  p.kv_pages_peak = gauge("kv/pages_peak");
  p.kv_bytes_peak = gauge("kv/pages_bytes_peak");
  return p;
}

// Tokens and virtual stamps of two passes over the same requests.
bool SameVirtualOutcome(const ServeReport& a, const ServeReport& b) {
  if (a.requests.size() != b.requests.size() || a.makespan != b.makespan) return false;
  for (size_t i = 0; i < a.requests.size(); ++i) {
    const RequestRecord &x = a.requests[i], &y = b.requests[i];
    if (x.id != y.id || x.tokens != y.tokens || x.token_times != y.token_times ||
        x.admitted != y.admitted || x.shared_prefix_tokens != y.shared_prefix_tokens)
      return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Correctness

struct Check {
  int64_t failed_requests = 0;  // missing, short, or mismatching requests
  int64_t checked_tokens = 0, matched_tokens = 0;
  std::vector<std::string> problems;
};

const RequestRecord* Find(const ServeReport& r, int64_t id) {
  for (const RequestRecord& rec : r.requests)
    if (rec.id == id) return &rec;
  return nullptr;
}

// Greedy agreement with a tie allowance: the served token must be the
// reference argmax, or score within fp32 reordering noise of it.
bool AgreesWithReference(const float* logits, int64_t vocab, int32_t token) {
  const float best = *std::max_element(logits, logits + vocab);
  return logits[token] >= best - 1e-4f * (1.0f + std::fabs(best));
}

// Teacher-forces the single-chip reference over prompt + served tokens and
// counts positions whose served token the reference also picks. Requests
// that share a parent chain reuse the parent's prompt KV.
// With `strict` (fp32 serving) a request with any disagreeing token fails;
// otherwise (int8 serving) disagreement only lowers the agreement count.
void TeacherForce(const ModelWeights& weights, const std::vector<ServeRequest>& reqs,
                  const ServeReport& report, bool strict,
                  Check* check) {
  ReferenceModel ref(&weights);
  const int64_t V = weights.config.vocab_size;
  std::vector<const ServeRequest*> flat;  // served requests without a parent
  for (const ServeRequest& r : reqs) {
    const RequestRecord* rec = Find(report, r.id);
    if (!rec || static_cast<int64_t>(rec->tokens.size()) != r.max_new_tokens) {
      ++check->failed_requests;
      check->checked_tokens += r.max_new_tokens;
      check->problems.push_back("request " + std::to_string(r.id) + " not fully served");
      continue;
    }
    if (r.parent < 0) flat.push_back(&r);
  }
  auto score = [&](const ServeRequest& r, const RequestRecord& rec,
                   const float* first_row, int64_t row_stride) {
    // first_row: logits predicting token 0; the next rows predict 1, 2, ...
    bool ok = true;
    for (size_t j = 0; j < rec.tokens.size(); ++j) {
      const bool m = AgreesWithReference(first_row + static_cast<int64_t>(j) * row_stride,
                                         V, rec.tokens[j]);
      check->matched_tokens += m;
      ok = ok && m;
    }
    check->checked_tokens += static_cast<int64_t>(rec.tokens.size());
    if (strict && !ok) {
      ++check->failed_requests;
      check->problems.push_back("request " + std::to_string(r.id) +
                                " diverges from the reference");
    }
  };
  const bool chained = std::any_of(reqs.begin(), reqs.end(),
                                   [](const ServeRequest& r) { return r.parent >= 0; });
  if (!chained) {
    // Independent requests run in end-padded batches of similar length:
    // causal attention never lets a real position see the padding.
    std::sort(flat.begin(), flat.end(), [](const ServeRequest* a, const ServeRequest* b) {
      return a->prompt.size() + static_cast<size_t>(a->max_new_tokens) <
             b->prompt.size() + static_cast<size_t>(b->max_new_tokens);
    });
    // Close a batch at 8 sequences or once padding would exceed a quarter
    // of the real tokens.
    auto len = [&](const ServeRequest* r) {
      return static_cast<int64_t>(r->prompt.size()) + r->max_new_tokens - 1;
    };
    for (size_t g = 0, end = 0; g < flat.size(); g = end) {
      int64_t real = 0;
      end = g;
      while (end < flat.size() && end - g < 8 &&
             4 * len(flat[end]) * static_cast<int64_t>(end - g + 1) <= 5 * (real + len(flat[end]))) {
        real += len(flat[end]);
        ++end;
      }
      if (end == g) ++end;
      const int64_t L = len(flat[end - 1]);
      std::vector<int32_t> batch;
      for (size_t i = g; i < end; ++i) {
        const RequestRecord* rec = Find(report, flat[i]->id);
        std::vector<int32_t> seq = flat[i]->prompt;
        seq.insert(seq.end(), rec->tokens.begin(), rec->tokens.end() - 1);
        seq.resize(static_cast<size_t>(L), 0);
        batch.insert(batch.end(), seq.begin(), seq.end());
      }
      KvCache kv;
      const Tensor logits = ref.Prefill(batch, static_cast<int64_t>(end - g), &kv);
      for (size_t i = g; i < end; ++i) {
        const RequestRecord* rec = Find(report, flat[i]->id);
        const int64_t row0 = static_cast<int64_t>(i - g) * L +
                             static_cast<int64_t>(flat[i]->prompt.size()) - 1;
        score(*flat[i], *rec, logits.data() + row0 * V, V);
      }
    }
    return;
  }
  // Conversation chains: each prompt extends its parent's (or the system
  // prompt), so only the new suffix is prefilled on a copy of that KV.
  std::map<int64_t, std::pair<KvCache, int64_t>> prompt_kv;  // id -> (kv, len)
  KvCache root;
  int64_t root_len = 0;
  for (const ServeRequest& r : reqs) {
    const RequestRecord* rec = Find(report, r.id);
    if (!rec || static_cast<int64_t>(rec->tokens.size()) != r.max_new_tokens) continue;
    KvCache kv;
    int64_t start = 0;
    if (r.parent >= 0 && prompt_kv.count(r.parent)) {
      kv = prompt_kv[r.parent].first;
      start = prompt_kv[r.parent].second;
    } else {
      if (root_len == 0) {
        // The system prefix every conversation opens with: the longest
        // common prefix of the root prompts, leaving each one token.
        const ServeRequest* first_root = nullptr;
        for (const ServeRequest& q : reqs) {
          if (q.parent >= 0) continue;
          if (!first_root) {
            first_root = &q;
            root_len = static_cast<int64_t>(q.prompt.size()) - 1;
          }
          int64_t k = 0;
          while (k < root_len && q.prompt[static_cast<size_t>(k)] ==
                                     first_root->prompt[static_cast<size_t>(k)])
            ++k;
          root_len = std::min<int64_t>(k, static_cast<int64_t>(q.prompt.size()) - 1);
        }
        std::vector<int32_t> sys(r.prompt.begin(), r.prompt.begin() + root_len);
        ref.Prefill(sys, 1, &root);
      }
      kv = root;
      start = root_len;
    }
    std::vector<int32_t> seq(r.prompt.begin() + start, r.prompt.end());
    const int64_t new_prompt = static_cast<int64_t>(seq.size());
    seq.insert(seq.end(), rec->tokens.begin(), rec->tokens.end() - 1);
    const Tensor logits = ref.Prefill(seq, 1, &kv);
    score(r, *rec, logits.data() + (new_prompt - 1) * V, V);
    // Keep the KV of the prompt alone for follow-up turns.
    const int64_t plen = static_cast<int64_t>(r.prompt.size());
    for (size_t l = 0; l < kv.k.size(); ++l) {
      kv.k[l] = kv.k[l].Slice(1, 0, plen);
      kv.v[l] = kv.v[l].Slice(1, 0, plen);
    }
    prompt_kv[r.id] = {std::move(kv), plen};
  }
}

// int8 serving: every turn of three seed-chosen conversations must agree
// with the fp32 reference (the floor is checked by the caller), and the
// first one's deepest turn must equal a solo run of that request on a fresh
// engine without prefix sharing, token for token.
template <typename BringUpFn>
void CheckInt8(const Workload& w, const ModelWeights& weights, const ServeReport& report,
               uint64_t seed, BringUpFn&& bring_up, pb::SpanLog* spans, Check* check) {
  std::vector<int64_t> leaves;
  for (const ServeRequest& r : w.requests) {
    const bool has_child = std::any_of(w.requests.begin(), w.requests.end(),
                                       [&](const ServeRequest& q) { return q.parent == r.id; });
    if (!has_child) leaves.push_back(r.id);
  }
  Rng pick(Rng::DeriveSeed(seed, 23));
  pb::Shuffle(leaves, pick);
  auto root_of = [&](int64_t id) {
    while (w.requests[static_cast<size_t>(id)].parent >= 0)
      id = w.requests[static_cast<size_t>(id)].parent;
    return id;
  };
  const std::set<int64_t> roots = {root_of(leaves[0]), root_of(leaves[1]), root_of(leaves[2])};
  std::vector<ServeRequest> chains;
  for (const ServeRequest& r : w.requests)
    if (roots.count(root_of(r.id))) chains.push_back(r);
  TeacherForce(weights, chains, report, /*strict=*/false, check);

  ServeRequest solo = w.requests[static_cast<size_t>(leaves[0])];
  solo.parent = -1;
  solo.arrival = 0;
  auto rig = bring_up(false);
  pb::ScopedSpan span(spans, "check.solo");
  pb::SpanLog untraced(false);
  const Pass alone = RunPass(*rig, w, {solo}, &untraced);
  const RequestRecord* a = Find(alone.report, solo.id);
  const RequestRecord* b = Find(report, solo.id);
  if (!a || !b || a->tokens != b->tokens) {
    ++check->failed_requests;
    check->problems.push_back("request " + std::to_string(solo.id) + " differs from its solo run");
  }
}

// ---------------------------------------------------------------------------
// Analytic goodput sweep

PartitionSpec AnalyticSpec(const Pool& p, bool prefill) {
  PartitionSpec s;
  s.mesh = p.mesh;
  s.ffn = prefill ? p.spec.prefill_ffn : p.spec.decode_ffn;
  s.attn = p.spec.attn;
  if (p.spec.fastpath.int8()) {
    s.weight_format = WeightFormat::kInt8;
    s.activations = WeightFormat::kInt8;
    s.kv_format = WeightFormat::kInt8;
  }
  s.kv_page_size = p.spec.kv.page_size;
  return s;
}

std::vector<pb::Outcome> Outcomes(const ServeReport& r) {
  std::vector<pb::Outcome> out;
  for (const RequestRecord& rec : r.requests)
    out.push_back({true, rec.Ttft(), rec.TimePerOutputToken()});
  return out;
}

// Highest of a fixed ladder of virtual arrival rates at which the analytic model of the same mix keeps the
// SLO fraction at its target. Larger population than the functional run.
double GoodputSweep(const Workload& w, const ModelConfig& cfg) {
  const InferenceEstimator est(cfg, TpuV4());
  std::vector<double> rates;
  for (int k = 0; k <= 24; ++k) rates.push_back(w.sweep_base * std::pow(2.0, k / 8.0));
  const int64_t kScale = 20;
  return pb::GoodputRate(rates, w.slo_target, [&](double rate) {
    std::vector<ServeRequest> reqs =
        MakeRequests(w.name, w.seed, rate, kScale, w.system_prompt, cfg.vocab_size);
    const auto attempted = static_cast<int64_t>(reqs.size());
    ServeOptions o = w.options;
    obs::MetricsRegistry scratch;
    o.metrics = &scratch;
    ServeReport rep;
    if (w.disagg) {
      DisaggConfig dc;
      dc.prefill_spec = AnalyticSpec(w.prefill, true);
      dc.decode_spec = AnalyticSpec(w.main, false);
      dc.prefill_slots = w.prefill.slots;
      dc.decode_slots = w.main.slots;
      dc.link = Link();
      rep = RunAnalyticDisaggServing(est, dc, std::move(reqs), o).report.serve;
    } else {
      AnalyticServeConfig ac;
      ac.spec = AnalyticSpec(w.main, false);
      ac.num_slots = w.main.slots;
      ac.shared_prefix_len = static_cast<int64_t>(w.system_prompt.size());
      AnalyticServeBackend backend(&est, ac);
      rep = RunContinuousServing(backend, std::move(reqs), o);
    }
    const double frac = pb::SloFraction(Outcomes(rep), attempted, w.ttft_limit, w.tpot_limit);
    std::vector<double> ttft, tpot;
    for (const pb::Outcome& o : Outcomes(rep)) {
      ttft.push_back(o.ttft * 1e3);
      tpot.push_back(o.tpot * 1e3);
    }
    std::printf("  analytic rate %9.1f req/s: slo_frac %.3f ttft_p50 %.4f ms tpot_p50 %.4f ms\n",
                rate, frac, pb::Median(ttft), pb::Median(tpot));
    return frac;
  });
}

// ---------------------------------------------------------------------------
// Probes: public kernels and collectives at the workload's per-chip shapes

// Median seconds of `fn` over at least 3 calls and about `budget_s`.
template <typename F>
double MedianSeconds(F&& fn, double budget_s = 0.25, int max_reps = 200) {
  std::vector<double> t;
  const auto start = pb::Clock::now();
  fn();  // warm-up
  while (static_cast<int>(t.size()) < max_reps &&
         (t.size() < 3 || pb::SecondsSince(start) < budget_s)) {
    const auto t0 = pb::Clock::now();
    fn();
    t.push_back(pb::SecondsSince(t0));
  }
  return pb::Median(t);
}

Tensor RandomMatrix(int64_t r, int64_t c, uint64_t tag) {
  return SynthTensor({r, c}, 99, tag, 0.0f, 1.0f);
}

struct Shapes {
  int64_t decode_m, decode_k, decode_n;     // per-chip decode FFN-in GEMM
  int64_t prefill_m, prefill_k, prefill_n;  // per-chip prefill FFN-in GEMM
  int64_t heads;                            // query heads per chip (decode)
  int64_t decode_ctx;                       // mean decode context
  int64_t prefill_heads, prefill_chunk;
  Torus3D decode_mesh, prefill_mesh;
  int64_t wg_chips;  // chips the prefill weights gather over (1: none)
};

Shapes ShapesOf(const Workload& w, const ModelConfig& cfg, const ServeReport& r) {
  Shapes s;
  const int X = w.main.mesh.x(), YZ = w.main.mesh.num_chips() / w.main.mesh.x();
  s.decode_m = w.main.slots;
  s.decode_k = cfg.d_model / X;
  s.decode_n = cfg.d_ff / YZ;
  s.heads = cfg.n_heads / YZ;
  double ctx = 0, n = 0;
  for (const RequestRecord& rec : r.requests) {
    for (const ServeRequest& q : w.requests)
      if (q.id == rec.id) ctx += static_cast<double>(q.prompt.size()) +
                                 0.5 * static_cast<double>(rec.tokens.size());
    n += 1;
  }
  s.decode_ctx = std::max<int64_t>(1, static_cast<int64_t>(ctx / std::max(1.0, n)));
  s.prefill_chunk = w.options.prefill_chunk;
  s.decode_mesh = w.main.mesh;
  if (w.disagg) {
    // Weight-gathered, batch-sharded prefill: full weights, one lane per chip.
    s.prefill_m = w.options.prefill_chunk;
    s.prefill_k = cfg.d_model;
    s.prefill_n = cfg.d_ff;
    s.prefill_heads = cfg.n_heads;
    s.prefill_mesh = w.prefill.mesh;
    s.wg_chips = w.prefill.mesh.num_chips();
  } else {
    s.prefill_m = w.options.prefill_chunk;
    s.prefill_k = s.decode_k;
    s.prefill_n = s.decode_n;
    s.prefill_heads = s.heads;
    s.prefill_mesh = w.main.mesh;
    s.wg_chips = 1;
  }
  return s;
}

using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

void RunProbes(const Shapes& s, const ModelConfig& cfg, pb::SpanLog* spans,
               Metrics* m) {
  auto add = [&](const std::string& n, double v, const char* unit) {
    m->push_back({n, {v, unit}});
  };
  auto probe = [&](const std::string& name, auto&& fn) {
    pb::ScopedSpan span(spans, "probe." + name);
    return MedianSeconds(fn);
  };
  // Host ceilings.
  const Tensor a = RandomMatrix(1024, 1024, 1), b = RandomMatrix(1024, 1024, 2);
  const double gemm_s = probe("gemm_peak", [&] { (void)MatMul(a, b); });
  const double peak_gflops = 2.0 * 1024 * 1024 * 1024 / gemm_s / 1e9;
  add("tensor.gemm_peak_gflops", peak_gflops, "GFLOP/s");
  const int64_t n = 1 << 23;  // 32 MiB per array
  std::vector<float> x(static_cast<size_t>(n), 1.0f), y(static_cast<size_t>(n), 2.0f),
      z(static_cast<size_t>(n), 0.0f);
  const double triad_s = probe("stream_triad", [&] {
    ThreadPool::Global().ParallelFor(n, 1 << 16, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) z[static_cast<size_t>(i)] =
          x[static_cast<size_t>(i)] + 3.0f * y[static_cast<size_t>(i)];
    });
  });
  const double stream_gbps = 3.0 * 4.0 * static_cast<double>(n) / triad_s / 1e9;
  add("tensor.stream_gbps", stream_gbps, "GB/s");

  // GEMMs at the per-chip shard shapes.
  const Tensor dx = RandomMatrix(s.decode_m, s.decode_k, 3);
  const Tensor dw = RandomMatrix(s.decode_k, s.decode_n, 4);
  const double dec_s = probe("matmul_decode", [&] { (void)MatMul(dx, dw); });
  const double dec_flops = 2.0 * static_cast<double>(s.decode_m * s.decode_k * s.decode_n);
  add("tensor.matmul_decode_gflops", dec_flops / dec_s / 1e9, "GFLOP/s");
  // Computed bytes: the fp32 weight shard streamed once per call.
  const double dec_bytes = 4.0 * static_cast<double>(s.decode_k * s.decode_n);
  add("tensor.matmul_decode_bw_frac", dec_bytes / dec_s / 1e9 / stream_gbps, "ratio");
  const Tensor px = RandomMatrix(s.prefill_m, s.prefill_k, 5);
  const Tensor pw = RandomMatrix(s.prefill_k, s.prefill_n, 6);
  const double pre_s = probe("matmul_prefill", [&] { (void)MatMul(px, pw); });
  const double pre_gflops =
      2.0 * static_cast<double>(s.prefill_m * s.prefill_k * s.prefill_n) / pre_s / 1e9;
  add("tensor.matmul_prefill_gflops", pre_gflops, "GFLOP/s");
  add("tensor.matmul_prefill_peak_frac", pre_gflops / peak_gflops, "ratio");
  const QuantizedActivations qx = QuantizeActivationsInt8(dx);
  const QuantizedTensor qw = QuantizeInt8(dw);
  const double q_s = probe("matmul_int8_decode", [&] { (void)MatMulInt8(qx, qw); });
  add("quant.matmul_int8_decode_gflops", dec_flops / q_s / 1e9, "GFLOP/s");

  // Paged decode SDPA at the workload's mean context (one lane, this
  // chip's query heads, multiquery K/V, 16-token pages).
  const int64_t dh = cfg.d_head, ps = 16, ctx = s.decode_ctx;
  const int64_t pages = (ctx + ps - 1) / ps;
  const Tensor q = RandomMatrix(1, s.heads * dh, 7).Reshape({1, 1, s.heads, dh});
  const Tensor kpages = RandomMatrix(pages * ps, dh, 8), vpages = RandomMatrix(pages * ps, dh, 9);
  auto span_of = [&](const Tensor& t) {
    PagedKvSpan sp;
    for (int64_t p = 0; p < pages; ++p) sp.pages.push_back(t.data() + p * ps * dh);
    sp.len = ctx;
    sp.page_size = ps;
    sp.kv_stride = 1;
    sp.kv_heads = 1;
    sp.d_head = dh;
    return sp;
  };
  const PagedKvSpan ks = span_of(kpages), vs = span_of(vpages);
  add("model.sdpa_paged_decode_us",
      probe("sdpa_paged_decode",
            [&] { (void)ScaledDotProductAttentionPaged(q, ks, vs, true); }) * 1e6,
      "us");
  std::vector<int8_t> k8(static_cast<size_t>(pages * ps * dh), 3), v8 = k8;
  std::vector<float> scales(static_cast<size_t>(pages * ps), 0.01f);
  auto span8 = [&](const std::vector<int8_t>& t) {
    PagedKvSpanInt8 sp;
    for (int64_t p = 0; p < pages; ++p) {
      sp.pages.push_back(t.data() + p * ps * dh);
      sp.scale_pages.push_back(scales.data() + p * ps);
    }
    sp.len = ctx;
    sp.page_size = ps;
    sp.kv_stride = 1;
    sp.kv_heads = 1;
    sp.d_head = dh;
    return sp;
  };
  const PagedKvSpanInt8 k8s = span8(k8), v8s = span8(v8);
  add("model.sdpa_paged_int8_decode_us",
      probe("sdpa_paged_int8_decode",
            [&] { (void)ScaledDotProductAttentionPagedInt8Kv(q, k8s, v8s, true); }) * 1e6,
      "us");
  const int64_t T = s.prefill_chunk, H = s.prefill_heads;
  const Tensor pq = RandomMatrix(T, H * dh, 10).Reshape({1, T, H, dh});
  const Tensor pk = RandomMatrix(T, dh, 11).Reshape({1, T, 1, dh});
  const Tensor pv = RandomMatrix(T, dh, 12).Reshape({1, T, 1, dh});
  add("model.sdpa_prefill_ms",
      probe("sdpa_prefill", [&] { (void)ScaledDotProductAttention(pq, pk, pv, true); }) * 1e3,
      "ms");

  // SPMD region and collectives on the workload's meshes.
  {
    SimMachine machine(s.decode_mesh, TpuV4());
    SpmdExecutor spmd(&machine);
    add("sim.spmd_region_us",
        probe("spmd_region", [&] { spmd.Run([](SpmdContext&) {}); }) * 1e6, "us");
    const Tensor act = RandomMatrix(s.decode_m, s.decode_k, 13);
    add("sim.allreduce_decode_us",
        probe("allreduce_decode",
              [&] { spmd.Run([&](SpmdContext& ctx) { (void)ctx.AllReduce(kAxisY | kAxisZ, act); }); }) *
            1e6,
        "us");
  }
  double gather_ms = 0;
  if (s.wg_chips > 1) {
    SimMachine machine(s.prefill_mesh, TpuV4());
    SpmdExecutor spmd(&machine);
    const Tensor shard = RandomMatrix(cfg.d_model, cfg.d_ff / s.wg_chips, 14);
    gather_ms = probe("allgather_weights", [&] {
                  spmd.Run([&](SpmdContext& ctx) { (void)ctx.AllGather(kAxisXYZ, shard, 1); });
                }) * 1e3;
  }
  add("sim.allgather_weights_ms", gather_ms, "ms");
}

// ---------------------------------------------------------------------------
// Output

void Emit(bool correct, int64_t attempted, int64_t failed, const Metrics& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << "\"" << metrics[i].first << "\": {\"value\": "
       << FormatJsonDouble(metrics[i].second.first) << ", \"unit\": \""
       << metrics[i].second.second << "\"}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

void WriteTrace(const pb::SpanLog& spans, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"traceEvents\":[";
  const auto& all = spans.spans();
  for (size_t i = 0; i < all.size(); ++i) {
    const auto& s = all[i];
    out << (i ? ",\n" : "\n") << "{\"name\":" << JsonEscape(s.name)
        << ",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":" << FormatJsonDouble(s.host_start_us)
        << ",\"dur\":" << FormatJsonDouble(s.host_end_us - s.host_start_us)
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"virt_start_s\":" << FormatJsonDouble(s.virt_start)
        << ",\"virt_end_s\":" << FormatJsonDouble(s.virt_end) << "}}";
  }
  out << "\n]}\n";
}

// Self time per span name (duration minus the direct children's); the
// rows add up to the root span.
std::map<std::string, double> SelfSeconds(const pb::SpanLog& spans) {
  const auto& all = spans.spans();
  std::vector<double> child(all.size(), 0);
  for (const auto& s : all)
    if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += s.host_end_us - s.host_start_us;
  std::map<std::string, double> self;
  for (size_t i = 0; i < all.size(); ++i)
    self[all[i].name] += (all[i].host_end_us - all[i].host_start_us - child[i]) * 1e-6;
  return self;
}

// The layer a span's self time belongs to: the serving loop itself, the
// engine's decode and prefill calls, the other backend hooks, KV
// migration, bring-up, correctness checks, probes, or the benchmark
// harness (input synthesis, untraced passes, the analytic sweep).
std::string LayerOf(const std::string& span) {
  auto ends = [&](const char* suf) {
    const std::string t = suf;
    return span.size() >= t.size() && span.compare(span.size() - t.size(), t.size(), t) == 0;
  };
  if (span == "serve.loop") return "serve_loop";
  if (ends(".decode")) return "engine_decode";
  if (ends(".prefill")) return "engine_prefill";
  if (ends(".adopt_prefix") || ends(".release")) return "engine_hooks";
  if (span == "link.migrate") return "migrate";
  if (span == "setup") return "setup";
  if (span.rfind("check.", 0) == 0) return "check";
  if (span.rfind("probe.", 0) == 0) return "probes";
  return "harness";
}

const char* const kLayers[] = {"serve_loop", "engine_decode", "engine_prefill",
                               "engine_hooks", "migrate", "setup", "check", "probes",
                               "harness"};

// ---------------------------------------------------------------------------

// The end-to-end metrics of the untraced pass (plus any replays pooled
// into `calls`).
Metrics EndToEndMetrics(const Workload& w, const Pass& pass, const pb::CallLog& calls,
                        double serve_s, int64_t generated, const std::vector<double>& setups,
                        const Check& check, double goodput) {
  Metrics m;
  auto add = [&](const std::string& n, double v, const char* unit) {
    m.push_back({n, {v, unit}});
  };
  auto pct = [&](const std::vector<double>& v, double p, const std::string& name) {
    const pb::Percentile r = pb::RequirePercentile(v, p, name);
    std::printf("  %-32s n=%lld beyond=%lld\n", name.c_str(), static_cast<long long>(r.n),
                static_cast<long long>(r.beyond));
    return r.value;
  };
  std::printf("sample counts:\n");
  add("host_tok_per_s", static_cast<double>(generated) / serve_s, "tok/s");
  const auto decode_ms = calls.HostMs(pb::Phase::kDecode);
  add("host_decode_ms_p50", pct(decode_ms, 0.5, "host_decode_ms_p50"), "ms");
  add("host_prefill_ms_per_ktok_p50",
      pct(calls.PrefillMsPerKtok(), 0.5, "host_prefill_ms_per_ktok_p50"), "ms/ktok");
  add("setup_s", pb::Median(setups), "s");
  add("peak_rss_mb", PeakRssMb(), "MB");
  std::vector<double> ttft, gaps;
  int64_t tokens = 0;
  for (const RequestRecord& r : pass.report.requests) {
    ttft.push_back(r.Ttft() * 1e3);
    for (double g : r.TokenGaps()) gaps.push_back(g * 1e3);
    tokens += static_cast<int64_t>(r.tokens.size());
  }
  // Means, not tail percentiles: latencies cluster (a decode step alone or
  // with a prefill chunk interleaved; a prompt first or later in its
  // scheduler iteration), and a percentile at a cluster edge flips between
  // clusters from seed to seed.
  auto mean = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
  };
  add("virt_ttft_mean_ms", mean(ttft), "ms");
  add("virt_tpot_p50_ms", pct(gaps, 0.5, "virt_tpot_p50_ms"), "ms");
  add("virt_tpot_mean_ms", mean(gaps), "ms");
  add("virt_tok_per_s", static_cast<double>(tokens) / pass.report.makespan, "tok/s");
  const auto attempted = static_cast<int64_t>(w.requests.size());
  add("virt_slo_frac",
      pb::SloFraction(Outcomes(pass.report), attempted, w.ttft_limit, w.tpot_limit), "ratio");
  add("virt_goodput_rps", goodput, "req/s");
  add("served_frac",
      static_cast<double>(pass.report.completed()) / static_cast<double>(attempted), "ratio");
  add("token_match_frac",
      check.checked_tokens > 0
          ? static_cast<double>(check.matched_tokens) / static_cast<double>(check.checked_tokens)
          : 0,
      "ratio");
  return m;
}

Metrics PerLayerMetrics(const Workload& w, const Pass& p, double sweep_ms) {
  Metrics m;
  auto add = [&](const std::string& n, double v, const char* unit) {
    m.push_back({n, {v, unit}});
  };
  // Percentiles the sample does not support read 0 and say so.
  auto pct = [&](const std::vector<double>& v, double q, const std::string& name) {
    const pb::Percentile r = pb::ComputePercentile(v, q);
    std::printf("  %-32s n=%lld beyond=%lld%s\n", name.c_str(), static_cast<long long>(r.n),
                static_cast<long long>(r.beyond), pb::Supported(r) ? "" : " (unsupported: 0)");
    return pb::Supported(r) ? r.value : 0.0;
  };
  const pb::CallLog& c = p.calls;
  const double decodes = static_cast<double>(c.Count(pb::Phase::kDecode));
  const double prefills = static_cast<double>(c.Count(pb::Phase::kPrefill));
  add("serve.loop_self_frac", (p.loop_s - c.HostSeconds()) / p.loop_s, "ratio");
  add("serve.decode_calls", decodes, "count");
  add("serve.prefill_calls", prefills, "count");
  double lanes = 0, frame = 0, vstep = 0, hbm = 0, net = 0, fill = 0;
  for (const pb::CallSample& s : c.calls) {
    if (s.phase != pb::Phase::kDecode) continue;
    lanes += static_cast<double>(s.tokens);
    frame += static_cast<double>(s.frame);
    vstep += s.virt_s;
    hbm += s.hbm_bytes;
    net += s.net_bytes;
    fill += s.page_fill;
  }
  add("serve.lane_fill", frame > 0 ? lanes / frame : 0, "ratio");
  std::vector<double> qwait;
  double adopted = 0, prompt = 0;
  for (const RequestRecord& r : p.report.requests) {
    qwait.push_back(r.QueueWait() * 1e3);
    adopted += static_cast<double>(r.shared_prefix_tokens);
  }
  for (const ServeRequest& r : w.requests) prompt += static_cast<double>(r.prompt.size());
  add("serve.queue_wait_virt_ms_p50", pct(qwait, 0.5, "serve.queue_wait_virt_ms_p50"), "ms");
  add("serve.prefix_hit_frac", adopted / prompt, "ratio");
  add("serve.adopt_prefix_ms_p50",
      pct(c.HostMs(pb::Phase::kAdopt), 0.5, "serve.adopt_prefix_ms_p50"), "ms");
  add("serve.evicted_parents", static_cast<double>(p.evicted_parents), "count");
  add("serve.migrate_ms_p50", pct(c.HostMs(pb::Phase::kMigrate), 0.5, "serve.migrate_ms_p50"),
      "ms");
  add("serve.migrated_mb", p.migrated_bytes / 1e6, "MB");
  add("serve.link_busy_frac", p.link_busy_s / p.report.makespan, "ratio");
  add("serve.analytic_sweep_ms", sweep_ms, "ms");
  add("engine.fused_ops_per_step",
      static_cast<double>(p.fused_ops) / std::max(1.0, decodes + prefills), "count");
  add("engine.kv_pages_peak", p.kv_pages_peak, "count");
  add("engine.kv_bytes_peak_mb", p.kv_bytes_peak / 1e6, "MB");
  add("engine.kv_page_fill", decodes > 0 ? fill / decodes : 0, "ratio");
  add("engine.kv_forks", static_cast<double>(p.kv_forks), "count");
  add("engine.kv_cow_splits", static_cast<double>(p.kv_cow_splits), "count");
  add("sim.virt_decode_step_us", decodes > 0 ? vstep / decodes * 1e6 : 0, "us");
  add("sim.hbm_mb_per_step", decodes > 0 ? hbm / decodes / 1e6 : 0, "MB");
  add("sim.net_mb_per_step", decodes > 0 ? net / decodes / 1e6 : 0, "MB");
  return m;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const int threads = RequiredEnvInt("TSI_NUM_THREADS");
  const int slots = RequiredEnvInt("TSI_SPMD_SLOTS");
  std::printf("host %s\n", Fingerprint(threads, slots).c_str());
  std::printf("workload %s seed %llu seconds %g trace %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::fflush(stdout);

  pb::SpanLog off(false), traced(args.trace);
  const auto run_start = pb::Clock::now();
  const int root = traced.Begin("run");
  const ModelConfig cfg = BenchModel();
  const Workload w = MakeWorkload(args.workload, args.seed, cfg.vocab_size);
  ModelWeights weights;
  {
    pb::ScopedSpan s(&traced, "synth_weights");
    weights = SynthWeights(cfg, args.seed);
  }

  // Pass 1 (untraced): timed bring-up and the measured serving pass.
  std::vector<double> setups;
  auto bring_up = [&](bool share) {
    pb::ScopedSpan s(&traced, "setup");
    const auto t0 = pb::Clock::now();
    auto rig = BringUp(w, weights, share);
    setups.push_back(pb::SecondsSince(t0));
    return rig;
  };
  Pass first;
  pb::CallLog calls;
  double serve_s = 0;
  int64_t generated = 0;
  {
    auto rig = bring_up(true);
    pb::ScopedSpan s(&traced, "pass.untraced");
    first = RunPass(*rig, w, w.requests, &off);
  }
  calls = first.calls;
  serve_s = first.loop_s;
  generated = first.report.total_tokens();

  // Correctness gate.
  Check check;
  {
    pb::ScopedSpan s(&traced, "check.reference");
    if (!w.int8) {
      TeacherForce(weights, w.requests, first.report, /*strict=*/true, &check);
    } else {
      CheckInt8(w, weights, first.report, args.seed, bring_up, &traced, &check);
    }
  }
  constexpr double kInt8AgreementFloor = 0.75;
  const double agreement = check.checked_tokens > 0
                               ? static_cast<double>(check.matched_tokens) /
                                     static_cast<double>(check.checked_tokens)
                               : 0;
  if (w.int8 && agreement < kInt8AgreementFloor)
    check.problems.push_back("int8 agreement with fp32 below the floor");

  // More set-ups (and, while the measured window is short of --seconds,
  // replays of the same requests pooled into the host samples).
  // (A traced run reports no setup_s, so it skips the extra bring-ups.)
  while ((!args.trace && setups.size() < 3) || serve_s < args.seconds) {
    auto rig = bring_up(true);
    if (serve_s >= args.seconds) continue;
    pb::ScopedSpan s(&traced, "pass.replay");
    Pass again = RunPass(*rig, w, w.requests, &off);
    if (!SameVirtualOutcome(first.report, again.report))
      check.problems.push_back("a replay changed tokens or virtual stamps");
    calls.calls.insert(calls.calls.end(), again.calls.calls.begin(), again.calls.calls.end());
    serve_s += again.loop_s;
    generated += again.report.total_tokens();
  }

  double sweep_ms = 0, goodput = 0;
  std::printf("goodput sweep (analytic model, %zu-request mix per rate):\n",
              w.requests.size() * 20);
  {
    pb::ScopedSpan s(&traced, "analytic_sweep");
    const auto t0 = pb::Clock::now();
    goodput = GoodputSweep(w, cfg);
    sweep_ms = pb::SecondsSince(t0) * 1e3;
  }

  const Metrics e2e =
      EndToEndMetrics(w, first, calls, serve_s, generated, setups, check, goodput);
  Metrics out = e2e;

  if (args.trace) {
    // Traced pass on a fresh rig: the per-layer numbers, the self-time
    // table, and the overhead against the untraced pass above.
    auto rig = bring_up(true);
    Pass tp;
    {
      pb::ScopedSpan s(&traced, "pass.traced");
      tp = RunPass(*rig, w, w.requests, &traced);
    }
    rig.reset();
    if (!SameVirtualOutcome(first.report, tp.report))
      check.problems.push_back("the traced pass changed tokens or virtual stamps");
    for (const auto& [name, v] : e2e)
      std::printf("e2e %-30s %.6g %s\n", name.c_str(), v.first, v.second.c_str());
    std::printf("per-layer sample counts:\n");
    out = PerLayerMetrics(w, tp, sweep_ms);
    RunProbes(ShapesOf(w, cfg, first.report), cfg, &traced, &out);
    const double untraced_tps = static_cast<double>(first.report.total_tokens()) / first.loop_s;
    const double traced_tps = static_cast<double>(tp.report.total_tokens()) / tp.loop_s;
    const double overhead = 1.0 - traced_tps / untraced_tps;
    out.push_back({"trace.overhead_frac", {overhead, "ratio"}});
    traced.End(root);
    const double wall = pb::SecondsSince(run_start);
    const auto self = SelfSeconds(traced);
    std::vector<std::pair<double, std::string>> rows;
    std::map<std::string, double> by_layer;
    for (const auto& [name, sec] : self) {
      rows.push_back({sec, name});
      by_layer[LayerOf(name)] += sec;
    }
    std::sort(rows.rbegin(), rows.rend());
    std::printf("self time by span (host s; rows sum to the run span, %.3f s wall):\n", wall);
    double total = 0;
    for (const auto& [sec, name] : rows) {
      std::printf("  %-28s %9.3f  %5.1f%%  [%s]\n", name.c_str(), sec, 100.0 * sec / wall,
                  LayerOf(name).c_str());
      total += sec;
    }
    std::printf("  %-28s %9.3f\n", "(sum)", total);
    for (const char* layer : kLayers)
      out.push_back({std::string("self_frac.") + layer, {by_layer[layer] / wall, "ratio"}});
    std::printf("tracing overhead: traced %.3f tok/s vs untraced %.3f tok/s (%.2f%%)\n",
                traced_tps, untraced_tps, 100.0 * overhead);
    if (!args.trace_out.empty()) WriteTrace(traced, args.trace_out);
  } else {
    for (const auto& [name, v] : out)
      std::printf("%-30s %.6g %s\n", name.c_str(), v.first, v.second.c_str());
  }

  for (const auto& [name, v] : out)
    if (!std::isfinite(v.first)) check.problems.push_back("metric " + name + " is not finite");
  for (const std::string& p : check.problems) std::printf("CHECK FAILED: %s\n", p.c_str());
  const auto attempted = static_cast<int64_t>(w.requests.size());
  const int64_t failed = std::max<int64_t>(
      check.failed_requests, attempted - first.report.completed());
  const bool correct = check.problems.empty();
  Emit(correct, attempted, failed, out);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_bench: %s\n", e.what());
    return 2;
  }
}
