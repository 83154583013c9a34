// Pins the kernel layer's determinism contract (see docs/kernels.md):
//
//  * MatMul equals a golden scalar reference -- per output element a
//    double-fma chain over k in ascending order -- EXACTLY (same bits).
//  * Results are bit-identical for 1/2/8-thread pools: tiling and work
//    distribution never change the arithmetic order inside an element.
//  * The fused epilogues equal their unfused compositions bitwise.
//  * All of the above hold at decode shapes (a few rows against a wide
//    weight), also when several SPMD chip threads share the pool at once.
//  * The rendezvous ExchangeHub stays correct (and TSan-clean; see
//    tools/check.sh) under many groups and repeated epochs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "sim/exchange.h"
#include "sim/threaded.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace tsi {
namespace {

// The contract's definition, written as naively as possible.
Tensor GoldenMatMul(const Tensor& a, const Tensor& b) {
  int64_t k = a.dim(-1), n = b.dim(1), m = a.numel() / k;
  Shape out_shape(a.shape().begin(), a.shape().end() - 1);
  out_shape.push_back(n);
  Tensor out(out_shape);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc = std::fma(static_cast<double>(a[i * k + kk]),
                       static_cast<double>(b[kk * n + j]), acc);
      }
      out[i * n + j] = static_cast<float>(acc);
    }
  }
  return out;
}

::testing::AssertionResult BitIdentical(const Tensor& a, const Tensor& b) {
  if (!a.SameShape(b))
    return ::testing::AssertionFailure()
           << ShapeToString(a.shape()) << " vs " << ShapeToString(b.shape());
  if (std::memcmp(a.data(), b.data(),
                  static_cast<size_t>(a.numel()) * sizeof(float)) != 0) {
    for (int64_t i = 0; i < a.numel(); ++i) {
      if (std::memcmp(&a.data()[i], &b.data()[i], sizeof(float)) != 0)
        return ::testing::AssertionFailure()
               << "first differing element " << i << ": " << a[i] << " vs "
               << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

struct Case {
  int64_t m, k, n;
};

// Ragged and aligned shapes: tile edges, single elements, k crossing the
// kernel's K-block boundary, and a multi-block-every-which-way case. The
// second group is decode-shaped -- m = 1..16 lanes against a weight, each
// with m*k*n > 2^15 and n >= 16 so the blocked (panel-parallel) path runs,
// not the small-size fallback; k crosses the 512-deep K block and n is one
// full panel, ragged (n % 16 != 0), or several panels.
const Case kCases[] = {{7, 13, 9},     {33, 65, 47},   {64, 128, 96},
                       {1, 1, 1},      {17, 520, 31},  {40, 1100, 70},
                       {128, 64, 256},
                       {1, 2600, 16},  {1, 1100, 70},  {1, 600, 100},
                       {3, 2600, 16},  {3, 1100, 70},  {3, 600, 100},
                       {8, 2600, 16},  {8, 1100, 70},  {8, 600, 100},
                       {16, 2600, 16}, {16, 1100, 70}, {16, 600, 100}};

std::string Name(const Case& c) {
  return std::to_string(c.m) + "x" + std::to_string(c.k) + "x" +
         std::to_string(c.n);
}

TEST(MatMulDeterminismTest, MatchesGoldenScalarReferenceExactly) {
  Rng rng(11);
  for (const Case& c : kCases) {
    Tensor a = Tensor::Gaussian({c.m, c.k}, rng);
    Tensor b = Tensor::Gaussian({c.k, c.n}, rng);
    EXPECT_TRUE(BitIdentical(MatMul(a, b), GoldenMatMul(a, b)))
        << Name(c);
  }
}

TEST(MatMulDeterminismTest, BitIdenticalAcrossPoolSizes) {
  // 1, 2 and 8 participating threads (0, 1 and 7 workers + the caller).
  ThreadPool pool1(0), pool2(1), pool8(7);
  Rng rng(12);
  for (const Case& c : kCases) {
    Tensor a = Tensor::Gaussian({c.m, c.k}, rng);
    Tensor b = Tensor::Gaussian({c.k, c.n}, rng);
    Tensor r1 = MatMul(pool1, a, b);
    Tensor r2 = MatMul(pool2, a, b);
    Tensor r8 = MatMul(pool8, a, b);
    EXPECT_TRUE(BitIdentical(r1, r2)) << Name(c);
    EXPECT_TRUE(BitIdentical(r1, r8)) << Name(c);
  }
}

TEST(MatMulDeterminismTest, HigherRankInputFlattensLikeGolden) {
  Rng rng(13);
  Tensor a = Tensor::Gaussian({3, 5, 24}, rng);
  Tensor b = Tensor::Gaussian({24, 17}, rng);
  EXPECT_TRUE(BitIdentical(MatMul(a, b), GoldenMatMul(a, b)));
}

TEST(BatchMatMulDeterminismTest, EqualsPerBatchMatMul) {
  Rng rng(14);
  const int64_t batch = 5, m = 9, k = 33, n = 21;
  Tensor a = Tensor::Gaussian({batch, m, k}, rng);
  Tensor b = Tensor::Gaussian({batch, k, n}, rng);
  Tensor full = BatchMatMul(a, b);
  for (int64_t bb = 0; bb < batch; ++bb) {
    Tensor ab = a.Chunk(0, batch, bb).Reshape({m, k});
    Tensor wb = b.Chunk(0, batch, bb).Reshape({k, n});
    EXPECT_TRUE(BitIdentical(full.Chunk(0, batch, bb).Reshape({m, n}),
                             GoldenMatMul(ab, wb)))
        << "batch " << bb;
  }
}

TEST(FusedEpilogueTest, MatMulBiasEqualsComposition) {
  Rng rng(15);
  Tensor a = Tensor::Gaussian({19, 65}, rng);
  Tensor b = Tensor::Gaussian({65, 43}, rng);
  Tensor bias = Tensor::Gaussian({43}, rng);
  EXPECT_TRUE(BitIdentical(MatMulBias(a, b, bias), AddBias(MatMul(a, b), bias)));
}

TEST(FusedEpilogueTest, MatMulGeluEqualsComposition) {
  Rng rng(16);
  Tensor a = Tensor::Gaussian({21, 130}, rng);
  Tensor b = Tensor::Gaussian({130, 77}, rng);
  EXPECT_TRUE(BitIdentical(MatMulGelu(a, b), Gelu(MatMul(a, b))));
}

TEST(FusedEpilogueTest, MatMulSwishMulGateEqualsComposition) {
  Rng rng(17);
  Tensor a = Tensor::Gaussian({21, 130}, rng);
  Tensor win = Tensor::Gaussian({130, 52}, rng);
  Tensor wgate = Tensor::Gaussian({130, 52}, rng);
  Tensor unfused = Swish2(MatMul(a, win)).Mul(MatMul(a, wgate));
  EXPECT_TRUE(BitIdentical(MatMulSwishMulGate(a, win, wgate), unfused));
}

TEST(FusedEpilogueTest, AllVariantsEqualCompositionsAtEveryShape) {
  Rng rng(23);
  for (const Case& c : kCases) {
    Tensor x = Tensor::Gaussian({c.m, c.k}, rng);
    Tensor gain = Tensor::Gaussian({c.k}, rng);
    Tensor w = Tensor::Gaussian({c.k, c.n}, rng);
    Tensor wg = Tensor::Gaussian({c.k, c.n}, rng);
    Tensor bias = Tensor::Gaussian({c.n}, rng);
    const Tensor y = LayerNorm(x, gain);
    const RowNormTransform nt = NormTransformFromRows(x, gain);

    EXPECT_TRUE(BitIdentical(MatMulNormA(x, nt, w), MatMul(y, w))) << Name(c);
    EXPECT_TRUE(BitIdentical(MatMulNormAGelu(x, nt, w), Gelu(MatMul(y, w))))
        << Name(c);
    EXPECT_TRUE(BitIdentical(MatMulNormASwishMulGate(x, nt, w, wg),
                             Swish2(MatMul(y, w)).Mul(MatMul(y, wg))))
        << Name(c);
    EXPECT_TRUE(BitIdentical(MatMulSwishMulGate(x, w, wg),
                             Swish2(MatMul(x, w)).Mul(MatMul(x, wg))))
        << Name(c);
    EXPECT_TRUE(BitIdentical(MatMulBias(x, w, bias), AddBias(MatMul(x, w), bias)))
        << Name(c);

    Tensor acc = Tensor::Gaussian({c.m, c.n}, rng);
    Tensor want = acc;
    want.AddInPlace(MatMul(x, w));
    MatMulAccumulate(x, w, &acc);
    EXPECT_TRUE(BitIdentical(acc, want)) << Name(c);
  }
}

TEST(MatMulDeterminismTest, ConcurrentCallersMatchSoloCalls) {
  // The SPMD engine's pattern: every chip thread runs its own matmuls on the
  // one shared pool at the same time, so panel tasks of different calls
  // interleave on the workers and their thread-local strip buffers.
  constexpr int kSlots = 4;
  constexpr int kRounds = 3;
  ThreadPool pool(3);
  struct Solo {
    Tensor a, b, g, mm, gated;
  };
  std::vector<Solo> solo;
  Rng rng(24);
  for (const Case& c : kCases) {
    Solo s;
    s.a = Tensor::Gaussian({c.m, c.k}, rng);
    s.b = Tensor::Gaussian({c.k, c.n}, rng);
    s.g = Tensor::Gaussian({c.k, c.n}, rng);
    s.mm = MatMul(pool, s.a, s.b);
    s.gated = MatMulSwishMulGate(s.a, s.b, s.g);
    solo.push_back(std::move(s));
  }
  // Each slot walks the cases from a different offset, so concurrent calls
  // have different shapes (and resize their buffers differently).
  std::vector<int> mismatches(kSlots, 0);
  pool.RunBlocking(kSlots, [&](int slot) {
    for (int round = 0; round < kRounds; ++round) {
      for (size_t i = 0; i < solo.size(); ++i) {
        const Solo& s = solo[(i + static_cast<size_t>(slot) * 5) % solo.size()];
        if (!BitIdentical(MatMul(pool, s.a, s.b), s.mm)) ++mismatches[slot];
        if (!BitIdentical(MatMulSwishMulGate(s.a, s.b, s.g), s.gated))
          ++mismatches[slot];
      }
    }
  });
  for (int slot = 0; slot < kSlots; ++slot)
    EXPECT_EQ(mismatches[slot], 0) << "slot " << slot;
}

TEST(ExchangeHubTest, SharesDepositsWithoutCopying) {
  ExchangeHub hub;
  std::vector<const float*> deposited(2);
  std::vector<const float*> received(2);
  RunSpmd(2, [&](int chip) {
    Tensor t = Tensor::Full({8}, static_cast<float>(chip));
    deposited[static_cast<size_t>(chip)] = t.data();
    auto parts = hub.Exchange({0, 1}, chip, std::move(t));
    received[static_cast<size_t>(chip)] =
        parts[static_cast<size_t>(chip)].tensor->data();
  });
  // Both chips see the depositor's exact buffer: moved in, never copied.
  EXPECT_EQ(deposited[0], received[0]);
  EXPECT_EQ(deposited[1], received[1]);
}

TEST(ExchangeHubStressTest, ManyGroupsRepeatedEpochs) {
  // Exercises the hub the way a long SPMD program does: every chip cycles
  // through three overlapping group partitions for many epochs, with value
  // checks on every round. Run under -fsanitize=thread via tools/check.sh.
  const int n = 8;
  const int epochs = 100;
  ExchangeHub hub;
  RunSpmd(n, [&](int chip) {
    // Partitions: all chips; same-parity chips; neighbor pairs.
    std::vector<int> all, parity, pair;
    for (int c = 0; c < n; ++c) all.push_back(c);
    for (int c = chip % 2; c < n; c += 2) parity.push_back(c);
    pair = {chip - chip % 2, chip - chip % 2 + 1};
    ExchangeHub::Channel& ch_all = hub.ChannelFor(all);
    ExchangeHub::Channel& ch_parity = hub.ChannelFor(parity);
    ExchangeHub::Channel& ch_pair = hub.ChannelFor(pair);
    for (int e = 0; e < epochs; ++e) {
      auto value = [&](int c) { return static_cast<float>(c * 1000 + e); };
      auto deposit = [&](ExchangeHub::Channel& ch, const std::vector<int>& g) {
        int rank = 0;
        while (g[static_cast<size_t>(rank)] != chip) ++rank;
        auto parts = hub.Exchange(ch, rank, Tensor::Full({3}, value(chip)));
        ASSERT_EQ(parts.size(), g.size());
        for (size_t i = 0; i < g.size(); ++i)
          ASSERT_EQ((*parts[i].tensor)[0], value(g[i]))
              << "epoch " << e << " chip " << chip << " member " << i;
      };
      deposit(ch_all, all);
      deposit(ch_parity, parity);
      deposit(ch_pair, pair);
    }
  });
}

}  // namespace
}  // namespace tsi
