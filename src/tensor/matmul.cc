// Blocked, pool-parallel matmul kernels with a deterministic accumulation
// contract, plus the fused epilogues used by the model/engine hot paths.
//
// Contract: every output element C[i,j] is
//
//     acc = 0.0 (double)
//     for kk in 0..k-1 ascending: acc = fma(double(A[i,kk]), double(B[kk,j]), acc)
//     C[i,j] = float(acc)          (then the epilogue, if any)
//
// The fma chain is made explicit (std::fma / vfmadd lanes) rather than left
// to -ffp-contract, so the result is independent of tiling, SIMD width,
// compiler code shape, and thread count: the blocked path, the small-size
// fallback, and every pool size produce bit-identical bytes. See
// docs/kernels.md and tests/determinism_test.cc.
//
// Blocking scheme (per 2-D matmul of A:[m,k] @ B:[k,n]), one path for every
// shape from a decode step (m = 1..64) to a prefill chunk:
//   * A is packed once per call into kMR-tall double row tiles
//     (Ap[tile][kk][kMR], all of k); the row-norm prologue, if any, is
//     applied here, so each normalized element is computed once.
//   * ParallelFor splits the kNR-wide column panels of B. A panel task walks
//     K in kc <= kKC blocks, sequentially: it converts B[k0:k0+kc, panel]
//     (float -> double, exact) into a thread-local kc x kNR strip that stays
//     in cache, then runs every row tile against that strip. A thread-local
//     double accumulator [tiles*kMR][kNR] carries the partial fma chains
//     across blocks, so the per-element order is exactly k-ascending.
//     B -- the static weight -- is read once per call and never copied whole.
//   * The microkernel holds a kMR x kNR accumulator tile in registers and
//     runs the full kc depth. Ragged edges are zero-padded in the pack and
//     the strip (zero rows/cols accumulate zeros and are simply not written
//     back), so there is a single microkernel path.
//   * The gated pair (Swish2(a @ b) * (a @ b_gate)) converts both operands'
//     strips in the same task and writes the product in one pass.
//   * Parallelism only changes which thread owns a panel, never the
//     arithmetic order inside an element.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#if defined(__AVX512F__) || defined(__AVX2__)
#include <immintrin.h>
#endif

#include "tensor/scalar_ops.h"
#include "tensor/tensor.h"
#include "util/logging.h"
#include "util/threadpool.h"

namespace tsi {
namespace {

using i64 = int64_t;

// Panel width / tile height / K block, matched to the widest available FMA
// unit. The values only affect speed, never results (see contract above).
#if defined(__AVX512F__)
constexpr i64 kNR = 16;  // two zmm of doubles
constexpr i64 kMR = 8;   // 16 zmm accumulators + 2 B + 1 broadcast
#elif defined(__AVX2__) && defined(__FMA__)
constexpr i64 kNR = 8;  // two ymm of doubles
constexpr i64 kMR = 4;  // 8 ymm accumulators + 2 B + 1 broadcast
#else
constexpr i64 kNR = 8;
constexpr i64 kMR = 4;
#endif
constexpr i64 kKC = 512;

// Below this many multiplies the packing overhead dominates; use the simple
// i-k-j fallback (same fma chain, so still bit-identical).
constexpr i64 kFallbackMaxMuls = 1 << 15;

enum class Epilogue {
  kNone,        // C = float(acc)
  kBias,        // C = float(acc) + bias[j]
  kGelu,        // C = GeluScalar(float(acc))
  kBiasGelu,    // C = GeluScalar(float(acc) + bias[j])
  kSwishGate,   // C = Swish2Scalar(float(acc)) * float(acc_gate), where
                // acc_gate is the same chain against the second operand
  kAccumulate,  // C = C + float(acc): residual add fused into writeback.
                // Reads each C element once, immediately before the store.
};

// A-operand row-norm transform (decode fast path): the kernel reads
// float((A[i,j] - mean[i]) * inv[i]) * gain[j] instead of A[i,j]. Raw
// pointer view of the public RowNormTransform, validated at the API layer.
struct NormA {
  const double* mean;
  const double* inv;
  const float* gain;
};

// Everything the 2-D kernels take besides A/B/C and the shape.
struct KernelOpts {
  Epilogue ep = Epilogue::kNone;
  const float* bias = nullptr;
  const float* b_gate = nullptr;  // second B operand of kSwishGate
  const NormA* norm = nullptr;
};

// The transformed A element; the float cast before the gain multiply matches
// LayerNorm / NormalizeWithMoments' scalar sequence exactly (tensor/ops.cc).
inline double NormedA(const NormA& na, const float* A, i64 k, i64 i, i64 kk) {
  return static_cast<double>(
      static_cast<float>((A[i * k + kk] - na.mean[i]) * na.inv[i]) *
      na.gain[kk]);
}

// Applies the epilogue to one row of double accumulators (`gate` is the
// kSwishGate operand's row, else unused).
inline void WritebackRow(Epilogue ep, const double* src, const double* gate,
                         float* c, i64 jw, const float* bias_row) {
  switch (ep) {
    case Epilogue::kNone:
      for (i64 j = 0; j < jw; ++j) c[j] = static_cast<float>(src[j]);
      break;
    case Epilogue::kBias:
      for (i64 j = 0; j < jw; ++j)
        c[j] = static_cast<float>(src[j]) + bias_row[j];
      break;
    case Epilogue::kGelu:
      for (i64 j = 0; j < jw; ++j)
        c[j] = GeluScalar(static_cast<float>(src[j]));
      break;
    case Epilogue::kBiasGelu:
      for (i64 j = 0; j < jw; ++j)
        c[j] = GeluScalar(static_cast<float>(src[j]) + bias_row[j]);
      break;
    case Epilogue::kSwishGate:
      for (i64 j = 0; j < jw; ++j)
        c[j] = Swish2Scalar(static_cast<float>(src[j])) *
               static_cast<float>(gate[j]);
      break;
    case Epilogue::kAccumulate:
      for (i64 j = 0; j < jw; ++j) c[j] = c[j] + static_cast<float>(src[j]);
      break;
  }
}

// One kMR x kNR register tile over the full kc depth. `first` selects
// zero-init vs. continuing the chain from cacc (kMR rows, kNR apart).
#if defined(__AVX512F__)

void MicroKernel(const double* ap, const double* bp, i64 kc, double* cacc,
                 bool first) {
  __m512d acc[kMR][2];
  for (i64 r = 0; r < kMR; ++r) {
    if (first) {
      acc[r][0] = _mm512_setzero_pd();
      acc[r][1] = _mm512_setzero_pd();
    } else {
      acc[r][0] = _mm512_loadu_pd(cacc + r * kNR);
      acc[r][1] = _mm512_loadu_pd(cacc + r * kNR + 8);
    }
  }
  for (i64 kk = 0; kk < kc; ++kk) {
    __m512d b0 = _mm512_loadu_pd(bp + kk * kNR);
    __m512d b1 = _mm512_loadu_pd(bp + kk * kNR + 8);
    const double* arow = ap + kk * kMR;
    for (i64 r = 0; r < kMR; ++r) {
      __m512d av = _mm512_set1_pd(arow[r]);
      acc[r][0] = _mm512_fmadd_pd(av, b0, acc[r][0]);
      acc[r][1] = _mm512_fmadd_pd(av, b1, acc[r][1]);
    }
  }
  for (i64 r = 0; r < kMR; ++r) {
    _mm512_storeu_pd(cacc + r * kNR, acc[r][0]);
    _mm512_storeu_pd(cacc + r * kNR + 8, acc[r][1]);
  }
}

#elif defined(__AVX2__) && defined(__FMA__)

void MicroKernel(const double* ap, const double* bp, i64 kc, double* cacc,
                 bool first) {
  __m256d acc[kMR][2];
  for (i64 r = 0; r < kMR; ++r) {
    if (first) {
      acc[r][0] = _mm256_setzero_pd();
      acc[r][1] = _mm256_setzero_pd();
    } else {
      acc[r][0] = _mm256_loadu_pd(cacc + r * kNR);
      acc[r][1] = _mm256_loadu_pd(cacc + r * kNR + 4);
    }
  }
  for (i64 kk = 0; kk < kc; ++kk) {
    __m256d b0 = _mm256_loadu_pd(bp + kk * kNR);
    __m256d b1 = _mm256_loadu_pd(bp + kk * kNR + 4);
    const double* arow = ap + kk * kMR;
    for (i64 r = 0; r < kMR; ++r) {
      __m256d av = _mm256_set1_pd(arow[r]);
      acc[r][0] = _mm256_fmadd_pd(av, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_pd(av, b1, acc[r][1]);
    }
  }
  for (i64 r = 0; r < kMR; ++r) {
    _mm256_storeu_pd(cacc + r * kNR, acc[r][0]);
    _mm256_storeu_pd(cacc + r * kNR + 4, acc[r][1]);
  }
}

#else

void MicroKernel(const double* ap, const double* bp, i64 kc, double* cacc,
                 bool first) {
  double acc[kMR][kNR];
  for (i64 r = 0; r < kMR; ++r) {
    if (first) {
      for (i64 j = 0; j < kNR; ++j) acc[r][j] = 0.0;
    } else {
      std::memcpy(acc[r], cacc + r * kNR, sizeof acc[r]);
    }
  }
  for (i64 kk = 0; kk < kc; ++kk) {
    const double* brow = bp + kk * kNR;
    const double* arow = ap + kk * kMR;
    for (i64 r = 0; r < kMR; ++r) {
      double av = arow[r];
      for (i64 j = 0; j < kNR; ++j)
        acc[r][j] = std::fma(av, brow[j], acc[r][j]);
    }
  }
  for (i64 r = 0; r < kMR; ++r)
    std::memcpy(cacc + r * kNR, acc[r], sizeof acc[r]);
}

#endif

// Per-thread scratch, reused across calls. A calling thread's `ap` holds the
// call's packed A, which pool workers read through a raw pointer; `strip`
// and `cacc` are private to whichever thread runs a panel task (the caller
// participates, so it uses its own pair too).
struct Scratch {
  std::vector<double> ap;     // [mt][k][kMR]
  std::vector<double> strip;  // [operands][kKC][kNR]
  std::vector<double> cacc;   // [operands][mt*kMR][kNR]
};

Scratch& LocalScratch() {
  thread_local Scratch scratch;
  return scratch;
}

// Simple i-k-j kernel for small problems (and the BatchMatMul fallback):
// streams B rows instead of striding columns, same fma chain per element.
void FallbackMatMul(const float* A, const float* B, float* C, i64 m, i64 k,
                    i64 n, const KernelOpts& opts) {
  const i64 operands = opts.b_gate ? 2 : 1;
  std::vector<double>& acc = LocalScratch().cacc;
  acc.resize(static_cast<size_t>(operands * n));
  double* acc_gate = opts.b_gate ? acc.data() + n : nullptr;
  for (i64 i = 0; i < m; ++i) {
    std::fill(acc.begin(), acc.end(), 0.0);
    for (i64 kk = 0; kk < k; ++kk) {
      double av = opts.norm ? NormedA(*opts.norm, A, k, i, kk)
                            : static_cast<double>(A[i * k + kk]);
      const float* brow = B + kk * n;
      for (i64 j = 0; j < n; ++j)
        acc[static_cast<size_t>(j)] =
            std::fma(av, static_cast<double>(brow[j]), acc[static_cast<size_t>(j)]);
      if (acc_gate != nullptr) {
        const float* grow = opts.b_gate + kk * n;
        for (i64 j = 0; j < n; ++j)
          acc_gate[j] = std::fma(av, static_cast<double>(grow[j]), acc_gate[j]);
      }
    }
    WritebackRow(opts.ep, acc.data(), acc_gate, C + i * n, n, opts.bias);
  }
}

// Converts B[0:kc, 0:jw] (row stride n) into a kc x kNR double strip,
// zero-padding the columns past a ragged panel's width.
void ConvertStrip(const float* B, i64 n, i64 kc, i64 jw, double* dst) {
  for (i64 kk = 0; kk < kc; ++kk) {
    const float* src = B + kk * n;
    double* row = dst + kk * kNR;
    for (i64 j = 0; j < jw; ++j) row[j] = static_cast<double>(src[j]);
    for (i64 j = jw; j < kNR; ++j) row[j] = 0.0;
  }
}

// Blocked kernel; see the file comment for the scheme.
void BlockedMatMul(ThreadPool& pool, const float* A, const float* B, float* C,
                   i64 m, i64 k, i64 n, const KernelOpts& opts) {
  const i64 np = (n + kNR - 1) / kNR;  // B panels
  const i64 mt = (m + kMR - 1) / kMR;  // A row tiles
  const i64 operands = opts.b_gate ? 2 : 1;
  const float* Bs[2] = {B, opts.b_gate};

  // Pack A into double tiles [kk][kMR] (broadcast-friendly), zero-padding
  // ragged heights so the microkernel is always full-tile. The row-norm
  // transform, if any, is applied here: the normalized operand is never
  // materialized as a tensor.
  std::vector<double>& ap_buf = LocalScratch().ap;
  ap_buf.resize(static_cast<size_t>(mt * k * kMR));
  double* Ap = ap_buf.data();
  pool.ParallelFor(mt, 1, [&](i64 t_begin, i64 t_end) {
    for (i64 t = t_begin; t < t_end; ++t) {
      const i64 i0 = t * kMR, mr = std::min(kMR, m - i0);
      double* dst = Ap + t * k * kMR;
      for (i64 kk = 0; kk < k; ++kk) {
        for (i64 r = 0; r < mr; ++r)
          dst[kk * kMR + r] =
              opts.norm ? NormedA(*opts.norm, A, k, i0 + r, kk)
                        : static_cast<double>(A[(i0 + r) * k + kk]);
        for (i64 r = mr; r < kMR; ++r) dst[kk * kMR + r] = 0.0;
      }
    }
  });

  // Compute + writeback, one column panel per step. Padded rows accumulate
  // zeros into padded cacc rows and are never written back.
  pool.ParallelFor(np, 1, [&](i64 p_begin, i64 p_end) {
    Scratch& local = LocalScratch();
    local.strip.resize(static_cast<size_t>(operands * kKC * kNR));
    local.cacc.resize(static_cast<size_t>(operands * mt * kMR * kNR));
    double* strip = local.strip.data();
    double* cacc = local.cacc.data();
    const i64 cacc_size = mt * kMR * kNR;
    const double* cacc_gate = opts.b_gate ? cacc + cacc_size : nullptr;
    for (i64 p = p_begin; p < p_end; ++p) {
      const i64 j0 = p * kNR, jw = std::min(kNR, n - j0);
      for (i64 k0 = 0; k0 < k; k0 += kKC) {
        const i64 kc = std::min(kKC, k - k0);
        for (i64 o = 0; o < operands; ++o)
          ConvertStrip(Bs[o] + k0 * n + j0, n, kc, jw, strip + o * kKC * kNR);
        for (i64 t = 0; t < mt; ++t) {
          for (i64 o = 0; o < operands; ++o)
            MicroKernel(Ap + (t * k + k0) * kMR, strip + o * kKC * kNR, kc,
                        cacc + o * cacc_size + t * kMR * kNR, k0 == 0);
        }
      }
      for (i64 i = 0; i < m; ++i)
        WritebackRow(opts.ep, cacc + i * kNR,
                     cacc_gate ? cacc_gate + i * kNR : nullptr, C + i * n + j0,
                     jw, opts.bias ? opts.bias + j0 : nullptr);
    }
  });
}

void MatMul2D(ThreadPool& pool, const float* A, const float* B, float* C,
              i64 m, i64 k, i64 n, const KernelOpts& opts) {
  if (m * k * n <= kFallbackMaxMuls || n < kNR) {
    FallbackMatMul(A, B, C, m, k, n, opts);
  } else {
    BlockedMatMul(pool, A, B, C, m, k, n, opts);
  }
}

// Shape plumbing shared by MatMul and the fused variants.
Tensor MatMulImpl(ThreadPool& pool, const Tensor& a, const Tensor& b,
                  const KernelOpts& opts) {
  TSI_CHECK_EQ(b.rank(), 2);
  TSI_CHECK_GE(a.rank(), 2);
  int64_t k = a.dim(-1);
  TSI_CHECK_EQ(k, b.dim(0)) << "matmul inner-dim mismatch";
  int64_t n = b.dim(1);
  int64_t m = a.numel() / k;

  Shape out_shape(a.shape().begin(), a.shape().end() - 1);
  out_shape.push_back(n);
  Tensor out(out_shape);
  MatMul2D(pool, a.data(), b.data(), out.data(), m, k, n, opts);
  return out;
}

// Validated raw view of a RowNormTransform for an A of [m, k].
NormA CheckedNormA(const RowNormTransform& norm, i64 m, i64 k) {
  TSI_CHECK_EQ(static_cast<i64>(norm.mean.size()), m)
      << "norm transform rows must match A rows";
  TSI_CHECK_EQ(static_cast<i64>(norm.inv.size()), m);
  TSI_CHECK(norm.gain != nullptr) << "norm transform requires a gain";
  TSI_CHECK_EQ(norm.gain->numel(), k)
      << "norm gain length must match the matmul inner dim";
  return NormA{norm.mean.data(), norm.inv.data(), norm.gain->data()};
}

}  // namespace

Tensor MatMul(ThreadPool& pool, const Tensor& a, const Tensor& b) {
  return MatMulImpl(pool, a, b, KernelOpts{});
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  return MatMul(ThreadPool::Global(), a, b);
}

Tensor BatchMatMul(ThreadPool& pool, const Tensor& a, const Tensor& b) {
  TSI_CHECK_EQ(a.rank(), 3);
  TSI_CHECK_EQ(b.rank(), 3);
  int64_t batch = a.dim(0), m = a.dim(1), k = a.dim(2);
  TSI_CHECK_EQ(batch, b.dim(0));
  TSI_CHECK_EQ(k, b.dim(1));
  int64_t n = b.dim(2);
  Tensor out(Shape{batch, m, n});
  for (int64_t bb = 0; bb < batch; ++bb) {
    MatMul2D(pool, a.data() + bb * m * k, b.data() + bb * k * n,
             out.data() + bb * m * n, m, k, n, KernelOpts{});
  }
  return out;
}

Tensor BatchMatMul(const Tensor& a, const Tensor& b) {
  return BatchMatMul(ThreadPool::Global(), a, b);
}

Tensor MatMulBias(const Tensor& a, const Tensor& b, const Tensor& bias) {
  TSI_CHECK_EQ(bias.rank(), 1);
  TSI_CHECK_EQ(bias.dim(0), b.dim(1));
  KernelOpts opts;
  opts.ep = Epilogue::kBias;
  opts.bias = bias.data();
  return MatMulImpl(ThreadPool::Global(), a, b, opts);
}

Tensor MatMulGelu(const Tensor& a, const Tensor& b) {
  KernelOpts opts;
  opts.ep = Epilogue::kGelu;
  return MatMulImpl(ThreadPool::Global(), a, b, opts);
}

Tensor MatMulBiasGelu(const Tensor& a, const Tensor& b, const Tensor& bias) {
  TSI_CHECK_EQ(bias.rank(), 1);
  TSI_CHECK_EQ(bias.dim(0), b.dim(1));
  KernelOpts opts;
  opts.ep = Epilogue::kBiasGelu;
  opts.bias = bias.data();
  return MatMulImpl(ThreadPool::Global(), a, b, opts);
}

namespace {

// Shared body of the gated-FFN fusion: Swish2(a @ b) * (a @ b_gate), both
// chains computed in the same panel task and written in one pass.
Tensor SwishMulGateImpl(const Tensor& a, const Tensor& b, const Tensor& b_gate,
                        const NormA* norm) {
  TSI_CHECK(b.SameShape(b_gate))
      << ShapeToString(b.shape()) << " vs " << ShapeToString(b_gate.shape());
  KernelOpts opts;
  opts.ep = Epilogue::kSwishGate;
  opts.b_gate = b_gate.data();
  opts.norm = norm;
  return MatMulImpl(ThreadPool::Global(), a, b, opts);
}

}  // namespace

Tensor MatMulSwishMulGate(const Tensor& a, const Tensor& b,
                          const Tensor& b_gate) {
  return SwishMulGateImpl(a, b, b_gate, /*norm=*/nullptr);
}

Tensor MatMulNormA(const Tensor& a, const RowNormTransform& norm,
                   const Tensor& b) {
  int64_t k = a.dim(-1);
  NormA na = CheckedNormA(norm, a.numel() / k, k);
  KernelOpts opts;
  opts.norm = &na;
  return MatMulImpl(ThreadPool::Global(), a, b, opts);
}

Tensor MatMulNormAGelu(const Tensor& a, const RowNormTransform& norm,
                       const Tensor& b) {
  int64_t k = a.dim(-1);
  NormA na = CheckedNormA(norm, a.numel() / k, k);
  KernelOpts opts;
  opts.ep = Epilogue::kGelu;
  opts.norm = &na;
  return MatMulImpl(ThreadPool::Global(), a, b, opts);
}

Tensor MatMulNormASwishMulGate(const Tensor& a, const RowNormTransform& norm,
                               const Tensor& b, const Tensor& b_gate) {
  int64_t k = a.dim(-1);
  NormA na = CheckedNormA(norm, a.numel() / k, k);
  return SwishMulGateImpl(a, b, b_gate, &na);
}

void MatMulAccumulate(const Tensor& a, const Tensor& b, Tensor* c) {
  TSI_CHECK(c != nullptr);
  TSI_CHECK_EQ(b.rank(), 2);
  TSI_CHECK_GE(a.rank(), 2);
  int64_t k = a.dim(-1);
  TSI_CHECK_EQ(k, b.dim(0)) << "matmul inner-dim mismatch";
  int64_t n = b.dim(1);
  int64_t m = a.numel() / k;
  TSI_CHECK_EQ(c->numel(), m * n)
      << "accumulate target must have the matmul output shape";
  TSI_CHECK_EQ(c->dim(-1), n);
  TSI_CHECK(a.data() != c->data()) << "A must not alias the accumulator";
  KernelOpts opts;
  opts.ep = Epilogue::kAccumulate;
  MatMul2D(ThreadPool::Global(), a.data(), b.data(), c->data(), m, k, n, opts);
}

}  // namespace tsi
