// Bit-identity of the blocked GEMM kernels against the retained seed
// loops (gemm_*_ref). The contract is exact: for every input — including
// degenerate dims, non-square panels, every beta case, zero-heavy A (the
// skip-zero branch), and NaN-poisoned C with beta == 0 — the blocked
// kernels must produce bitwise identical C.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <tuple>
#include <vector>

#include "obs/registry.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace skiptrain::tensor {
namespace {

void expect_bitwise_equal(const std::vector<float>& got,
                          const std::vector<float>& want, const char* what,
                          std::size_t m, std::size_t k, std::size_t n,
                          float beta) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << what << " m=" << m << " k=" << k << " n=" << n << " beta=" << beta
        << " at " << i << ": " << got[i] << " vs " << want[i];
  }
}

/// Runs all three variants at (m, k, n) x beta in {0, 1, 0.5} and compares
/// blocked vs reference bitwise. `sparsify` zeroes a fraction of A to
/// exercise the skip-zero-multiplier branch.
void check_shape(std::size_t m, std::size_t k, std::size_t n,
                 std::uint64_t seed, bool sparsify) {
  util::Rng rng(seed);
  std::vector<float> a(m * k);  // same extent whichever layout reads it
  std::vector<float> b(k * n);
  if (!a.empty()) rng.fill_normal(a, 0.0f, 1.0f);
  if (!b.empty()) rng.fill_normal(b, 0.0f, 1.0f);
  if (sparsify) {
    for (std::size_t i = 0; i < a.size(); i += 3) a[i] = 0.0f;
  }
  std::vector<float> c_init(m * n);
  if (!c_init.empty()) rng.fill_normal(c_init, 0.0f, 1.0f);

  for (const float beta : {0.0f, 1.0f, 0.5f}) {
    {
      std::vector<float> c = c_init, ref = c_init;
      gemm_nn(m, k, n, a, b, c, beta);
      gemm_nn_ref(m, k, n, a, b, ref, beta);
      expect_bitwise_equal(c, ref, "gemm_nn", m, k, n, beta);
    }
    {
      std::vector<float> c = c_init, ref = c_init;
      gemm_nt(m, k, n, a, b, c, beta);
      gemm_nt_ref(m, k, n, a, b, ref, beta);
      expect_bitwise_equal(c, ref, "gemm_nt", m, k, n, beta);
    }
    {
      std::vector<float> c = c_init, ref = c_init;
      gemm_tn(m, k, n, a, b, c, beta);
      gemm_tn_ref(m, k, n, a, b, ref, beta);
      expect_bitwise_equal(c, ref, "gemm_tn", m, k, n, beta);
    }
  }
}

TEST(GemmBlocked, DegenerateAndUnitDims) {
  for (const auto& [m, k, n] :
       {std::tuple<std::size_t, std::size_t, std::size_t>{0, 0, 0},
        {0, 5, 7},
        {5, 0, 7},
        {5, 7, 0},
        {1, 1, 1},
        {1, 257, 1},
        {1, 64, 300},
        {300, 64, 1},
        {257, 1, 33}}) {
    check_shape(m, k, n, 1000 + m * 31 + k * 7 + n, false);
  }
}

TEST(GemmBlocked, NonSquarePanelsCrossBlockBoundaries) {
  // Shapes straddling the microkernel tile (4x8) and the cache blocks
  // (kc/mc/nc from gemm_tuning), including off-by-one edges.
  const GemmTuning& tun = gemm_tuning();
  check_shape(3, 5, 17, 1, false);
  check_shape(4, 16, 16, 2, false);
  check_shape(5, 33, 31, 3, false);
  check_shape(64, 100, 48, 4, false);
  check_shape(70, tun.kc + 1, 40, 5, false);
  check_shape(tun.mc + 3, 65, 19, 6, false);
  check_shape(40, 120, tun.nc + 9, 7, false);
  check_shape(129, 257, 65, 8, false);
}

TEST(GemmBlocked, ZeroHeavyAPreservesSkipBranch) {
  // nn/tn route a zero-holding A to the reference (GemmDispatch below);
  // nt has no skip branch and runs blocked here.
  check_shape(48, 96, 40, 11, true);
  check_shape(33, tensor::gemm_tuning().kc + 5, 37, 12, true);
}

TEST(GemmBlocked, LongAccumulationFuzz) {
  // Many k steps stress the cross-block accumulator carry: any deviation
  // from the seed's per-element op order shows up as a bit flip here.
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    util::Rng shape_rng(500 + trial);
    const auto m = static_cast<std::size_t>(1 + shape_rng.uniform_int(90));
    const auto k = static_cast<std::size_t>(1 + shape_rng.uniform_int(700));
    const auto n = static_cast<std::size_t>(1 + shape_rng.uniform_int(90));
    check_shape(m, k, n, 9000 + trial, trial % 2 == 1);
  }
}

TEST(GemmBlocked, BetaZeroNeverReadsCAnyVariantAnyPath) {
  // NaN-C regression for all three variants, on shapes that take the
  // blocked path AND shapes that take the reference fallback.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const auto& [m, k, n] :
       {std::tuple<std::size_t, std::size_t, std::size_t>{3, 4, 2},
        {48, 128, 40}}) {
    util::Rng rng(m + k + n);
    std::vector<float> a(m * k), b(k * n);
    rng.fill_normal(a, 0.0f, 1.0f);
    rng.fill_normal(b, 0.0f, 1.0f);
    std::vector<float> c(m * n, nan);
    gemm_nn(m, k, n, a, b, c, 0.0f);
    for (const float v : c) ASSERT_FALSE(std::isnan(v)) << "gemm_nn";
    std::fill(c.begin(), c.end(), nan);
    gemm_nt(m, k, n, a, b, c, 0.0f);
    for (const float v : c) ASSERT_FALSE(std::isnan(v)) << "gemm_nt";
    std::fill(c.begin(), c.end(), nan);
    gemm_tn(m, k, n, a, b, c, 0.0f);
    for (const float v : c) ASSERT_FALSE(std::isnan(v)) << "gemm_tn";
    // The retained references share the write-only-C contract.
    std::fill(c.begin(), c.end(), nan);
    gemm_nn_ref(m, k, n, a, b, c, 0.0f);
    for (const float v : c) ASSERT_FALSE(std::isnan(v)) << "gemm_nn_ref";
    std::fill(c.begin(), c.end(), nan);
    gemm_nt_ref(m, k, n, a, b, c, 0.0f);
    for (const float v : c) ASSERT_FALSE(std::isnan(v)) << "gemm_nt_ref";
    std::fill(c.begin(), c.end(), nan);
    gemm_tn_ref(m, k, n, a, b, c, 0.0f);
    for (const float v : c) ASSERT_FALSE(std::isnan(v)) << "gemm_tn_ref";
  }
}

TEST(GemmBlocked, DispatchCrossoverFuzz) {
  // Sweeps the dispatched entry points across the reference/blocked
  // crossover (volumes from 1 to ~70k MACs straddle both families'
  // thresholds, and n straddles the 8-column tile) against the oracles,
  // bitwise, with dense and ~50%-zero A (post-ReLU gradients, including
  // negative zeros, against a B holding infinities) and a NaN-poisoned C
  // whenever beta == 0.
  //
  // Which ISA clone runs depends on the build: in Release builds on an
  // AVX2 host both the dispatched kernels and the oracles run their AVX2
  // clone; SKIPTRAIN_VEC_CLONES expands to nothing under
  // __SANITIZE_ADDRESS__ and __SANITIZE_THREAD__, so the ASan and TSan
  // legs check the default (SSE2) code.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> a, b, c, ref;
  for (std::size_t m = 1; m <= 33; ++m) {
    for (const std::size_t n : {1, 4, 7, 8, 10, 31, 32, 33}) {
      for (const std::size_t k : {1, 16, 63, 64, 65}) {
        for (const bool zero_heavy : {false, true}) {
          util::Rng rng(m * 7919 + n * 104729 + k * 31 + zero_heavy);
          a.resize(m * k);
          b.resize(k * n);
          rng.fill_normal(a, 0.0f, 1.0f);
          rng.fill_normal(b, 0.0f, 1.0f);
          if (zero_heavy) {
            for (float& v : a) {
              if (v < 0.0f) v = rng.uniform() < 0.5 ? 0.0f : -0.0f;
            }
            // 0 * inf is NaN, so a kernel that fails to skip a zero
            // multiplier cannot hide behind x + 0 == x.
            for (std::size_t i = 5; i < b.size(); i += 97) {
              b[i] = std::numeric_limits<float>::infinity();
            }
          }
          std::vector<float> c_init(m * n);
          rng.fill_normal(c_init, 0.0f, 1.0f);
          for (const float beta : {0.0f, 1.0f, 0.5f}) {
            const auto run = [&](auto dispatched, auto oracle,
                                 const char* what) {
              if (beta == 0.0f) {
                c.assign(m * n, nan);
              } else {
                c = c_init;
              }
              ref = c;
              dispatched(m, k, n, a, b, c, beta);
              oracle(m, k, n, a, b, ref, beta);
              expect_bitwise_equal(c, ref, what, m, k, n, beta);
            };
            run(gemm_nn, gemm_nn_ref, "gemm_nn");
            run(gemm_nt, gemm_nt_ref, "gemm_nt");
            run(gemm_tn, gemm_tn_ref, "gemm_tn");
            if (HasFatalFailure()) return;
          }
        }
      }
    }
  }
}

/// Which kernel the dispatch rule picks, read from the
/// gemm.blocked_calls counter around one call.
bool takes_blocked(void (*gemm)(std::size_t, std::size_t, std::size_t,
                                std::span<const float>,
                                std::span<const float>, std::span<float>,
                                float),
                   std::size_t m, std::size_t k, std::size_t n,
                   bool post_relu) {
  util::Rng rng(m * 131 + k * 17 + n);
  std::vector<float> a(m * k), b(k * n), c(m * n);
  rng.fill_normal(a, 0.0f, 1.0f);
  rng.fill_normal(b, 0.0f, 1.0f);
  if (post_relu) {
    for (float& v : a) v = std::max(v, 0.0f);
  }
  const std::uint64_t before =
      obs::snapshot().counter_value("gemm.blocked_calls");
  gemm(m, k, n, a, b, c, 0.0f);
  return obs::snapshot().counter_value("gemm.blocked_calls") != before;
}

TEST(GemmDispatch, PicksMeasuredKernelAtCompactMlpShapes) {
  // The compact MLPs' training GEMMs at batch 16 (README "Performance"
  // has the timings behind each pick). A deterministic check where a
  // timing pair of identical code could only measure host noise.
  obs::set_enabled(true);
  // CIFAR 64->32->10.
  EXPECT_TRUE(takes_blocked(gemm_nt, 16, 64, 32, false));   // L0 forward
  EXPECT_FALSE(takes_blocked(gemm_nt, 16, 32, 10, false));  // L1 forward
  EXPECT_FALSE(takes_blocked(gemm_tn, 32, 16, 64, true));   // L0 dW
  EXPECT_FALSE(takes_blocked(gemm_tn, 10, 16, 32, false));  // L1 dW
  EXPECT_FALSE(takes_blocked(gemm_nn, 16, 10, 32, false));  // L1 dX
  // FEMNIST 64->48->62.
  EXPECT_TRUE(takes_blocked(gemm_nt, 16, 64, 48, false));   // L0 forward
  EXPECT_TRUE(takes_blocked(gemm_nt, 16, 48, 62, false));   // L1 forward
  EXPECT_FALSE(takes_blocked(gemm_tn, 48, 16, 64, true));   // L0 dW
  EXPECT_TRUE(takes_blocked(gemm_tn, 62, 16, 48, false));   // L1 dW
  EXPECT_TRUE(takes_blocked(gemm_nn, 16, 62, 48, false));   // L1 dX
}

TEST(GemmDispatch, SingleZeroInASendsNnTnToReference) {
  obs::set_enabled(true);
  const std::size_t m = 64, k = 100, n = 48;
  util::Rng rng(77);
  std::vector<float> a(m * k), b(k * n), c(m * n), ref(m * n);
  rng.fill_normal(a, 0.0f, 1.0f);
  rng.fill_normal(b, 0.0f, 1.0f);
  const auto blocked_delta = [&](auto gemm, auto oracle) {
    const std::uint64_t before =
        obs::snapshot().counter_value("gemm.blocked_calls");
    gemm(m, k, n, a, b, c, 0.0f);
    oracle(m, k, n, a, b, ref, 0.0f);
    expect_bitwise_equal(c, ref, "dispatched", m, k, n, 0.0f);
    return obs::snapshot().counter_value("gemm.blocked_calls") - before;
  };
  EXPECT_EQ(blocked_delta(gemm_nn, gemm_nn_ref), 1u);
  EXPECT_EQ(blocked_delta(gemm_tn, gemm_tn_ref), 1u);
  a[m * k - 1] = -0.0f;  // the references skip negative zeros too
  EXPECT_EQ(blocked_delta(gemm_nn, gemm_nn_ref), 0u);
  EXPECT_EQ(blocked_delta(gemm_tn, gemm_tn_ref), 0u);
  EXPECT_EQ(blocked_delta(gemm_nt, gemm_nt_ref), 1u);  // nt has no skip
}

TEST(GemmTuning, DerivedBlocksAreSane) {
  const GemmTuning& tun = gemm_tuning();
  EXPECT_GE(tun.kc, 64u);
  EXPECT_LE(tun.kc, 512u);
  EXPECT_GE(tun.mc, 4u);
  EXPECT_LE(tun.mc, 1024u);
  EXPECT_EQ(tun.nc % 16, 0u);
  EXPECT_GT(tun.l1d_bytes, 0u);
  EXPECT_GT(tun.l2_bytes, tun.l1d_bytes);
}

}  // namespace
}  // namespace skiptrain::tensor
