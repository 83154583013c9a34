// Merge-by-key updates for BENCH_micro.json.
//
// The google-benchmark binaries (bench_micro_tensor) overwrite the document
// wholesale via JsonFileReporter; the engine-level ablation benches
// (bench_ablation_fusion, bench_ablation_act_quant) contribute a handful of
// records each and must not clobber the kernel numbers. MergeIntoBenchJson
// re-reads the existing document with util/json's parser, upserts records
// keyed by (op, shape), and rewrites the file in JsonFileReporter's exact
// format, so the perf trajectory accumulates across binaries. Every record
// written also carries the host that measured it (cores, ISA, pool threads),
// so numbers from different machines are never compared unknowingly; rows
// kept from before hosts were recorded have no `host`.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/json.h"
#include "util/logging.h"
#include "util/threadpool.h"

namespace tsi {

inline std::string BenchJsonPath(const char* default_name) {
  if (const char* env = std::getenv("TSI_BENCH_JSON")) return env;
  return default_name;
}

struct MicroRecord {
  std::string op;
  std::string shape;
  double ns_per_iter = 0.0;
  double gflops = 0.0;
};

// A document row: a measurement and the host that took it, as a JSON object
// (HostJson); empty for rows kept from before hosts were recorded.
struct BenchRow {
  MicroRecord rec;
  std::string host;
};

inline std::string FormatHost(unsigned cores, bool avx2, bool avx512f,
                              int threads) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{\"cores\": %u, \"avx2\": %s, \"avx512f\": %s, "
                "\"threads\": %d}",
                cores, avx2 ? "true" : "false", avx512f ? "true" : "false",
                threads);
  return buf;
}

inline std::vector<BenchRow> ReadBenchJson(const std::string& path) {
  std::vector<BenchRow> rows;
  std::ifstream in(path);
  if (!in) return rows;  // first run: nothing to merge with
  std::stringstream ss;
  ss << in.rdbuf();
  JsonValue doc;
  std::string err;
  if (!ParseJson(ss.str(), &doc, &err)) {
    TSI_LOG(ERROR) << "ReadBenchJson: " << path << " unparseable (" << err
                   << "); treating as empty";
    return rows;
  }
  const JsonValue* arr = doc.Find("benchmarks");
  if (arr == nullptr || !arr->is_array()) return rows;
  for (const JsonValue& v : arr->array) {
    BenchRow r;
    r.rec.op = v.StringOr("op", "");
    r.rec.shape = v.StringOr("shape", "");
    r.rec.ns_per_iter = v.NumberOr("ns_per_iter", 0.0);
    r.rec.gflops = v.NumberOr("gflops", 0.0);
    const JsonValue* host = v.Find("host");
    if (host != nullptr && host->is_object()) {
      auto flag = [&](const char* key) {
        const JsonValue* f = host->Find(key);
        return f != nullptr && f->boolean;
      };
      r.host = FormatHost(static_cast<unsigned>(host->NumberOr("cores", 0)),
                          flag("avx2"), flag("avx512f"),
                          static_cast<int>(host->NumberOr("threads", 0)));
    }
    if (!r.rec.op.empty()) rows.push_back(std::move(r));
  }
  return rows;
}

// The host this process runs on: hardware threads, the x86 vector ISAs the
// CPU supports, and the kernel pool's participating threads
// (TSI_NUM_THREADS, else all hardware threads).
inline std::string HostJson() {
  bool avx2 = false, avx512f = false;
#if defined(__x86_64__) || defined(__i386__)
  avx2 = __builtin_cpu_supports("avx2");
  avx512f = __builtin_cpu_supports("avx512f");
#endif
  return FormatHost(std::thread::hardware_concurrency(), avx2, avx512f,
                    ThreadPool::Global().concurrency());
}

inline void WriteBenchJson(const std::string& path,
                           const std::vector<BenchRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    TSI_LOG(ERROR) << "WriteBenchJson: cannot write " << path;
    return;
  }
  std::fprintf(f, "{\n  \"benchmarks\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const MicroRecord& r = rows[i].rec;
    const std::string& host = rows[i].host;
    std::fprintf(f,
                 "    {\"op\": %s, \"shape\": %s, "
                 "\"ns_per_iter\": %.1f, \"gflops\": %.3f%s%s}%s\n",
                 JsonEscape(r.op).c_str(), JsonEscape(r.shape).c_str(),
                 r.ns_per_iter, r.gflops, host.empty() ? "" : ", \"host\": ",
                 host.c_str(), i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

// Upserts `updates` into the document at `path` keyed by (op, shape),
// stamping each with this process's host; existing records keep their
// position (and their own host), new ones append.
inline void MergeIntoBenchJson(const std::string& path,
                               const std::vector<MicroRecord>& updates) {
  std::vector<BenchRow> rows = ReadBenchJson(path);
  const std::string host = HostJson();
  for (const MicroRecord& u : updates) {
    bool replaced = false;
    for (BenchRow& r : rows) {
      if (r.rec.op == u.op && r.rec.shape == u.shape) {
        r = BenchRow{u, host};
        replaced = true;
        break;
      }
    }
    if (!replaced) rows.push_back(BenchRow{u, host});
  }
  WriteBenchJson(path, rows);
  TSI_LOG(INFO) << "merged " << updates.size() << " records into " << path
                << " (" << rows.size() << " total)";
}

}  // namespace tsi
