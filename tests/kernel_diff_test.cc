// Kernel-equivalence differential suite: the full seeded configuration
// matrix of tests/differential_test.cc, re-run under both join kernels
// ({scalar, avx2-when-available} x threads {1, 8}), asserting
// byte-identical pattern sets and observability exports. The scalar kernel
// is the authoritative oracle (DESIGN.md §7e): the AVX2 bitset kernel is a
// promise of speed, never of different bytes, and this suite is the gate
// that keeps that promise honest at the engine level (the per-pair oracle
// campaign lives in tests/kernel_oracle_test.cc). Runs under both
// the ASan ("robustness") and TSan ("concurrency") sanitizer presets.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "core/kernel.h"
#include "core/miner.h"
#include "core/trace.h"
#include "datagen/generators.h"
#include "util/metrics.h"
#include "util/random.h"

#include "tools/differential_params.h"

namespace pgm {
namespace {

// (alphabet symbols, L, N, M, rho, seed) — the same matrix the engine
// differential sweep runs, so tier coverage and engine coverage stay in
// lockstep.
using DiffParam = std::tuple<const char*, std::size_t, std::int64_t,
                             std::int64_t, double, std::uint64_t>;

class KernelDifferentialSweep : public testing::TestWithParam<DiffParam> {};

struct TierRun {
  std::string patterns;
  std::string metrics_json;
  std::string trace_json;
};

TierRun RunTier(const Sequence& s, MinerConfig config, KernelTier tier,
                std::int64_t threads) {
  config.kernel_tier = tier;
  config.threads = threads;
  MetricsRegistry metrics;
  MiningTrace trace;
  MiningObserver observer;
  observer.metrics = &metrics;
  observer.trace = &trace;
  config.observer = &observer;
  StatusOr<MiningResult> result = MineMppm(s, config);
  EXPECT_TRUE(result.ok()) << result.status().message();
  TierRun run;
  if (result.ok()) {
    run.patterns = difftest::CanonicalPatterns(*result, /*max_length=*/1000);
  }
  run.metrics_json = metrics.ToJson();
  run.trace_json = difftest::MaskKernelTier(trace.ToJson());
  return run;
}

void ExpectTierMatchesScalar(const Sequence& s, const MinerConfig& base,
                             const TierRun& reference, KernelTier tier) {
  for (std::int64_t threads : {std::int64_t{1}, std::int64_t{8}}) {
    SCOPED_TRACE(std::string(KernelTierToString(tier)) + " threads=" +
                 std::to_string(threads));
    const TierRun run = RunTier(s, base, tier, threads);
    EXPECT_EQ(run.patterns, reference.patterns)
        << "pattern set drifted from the scalar oracle";
    EXPECT_EQ(run.metrics_json, reference.metrics_json)
        << "metrics export drifted from the scalar oracle";
    EXPECT_EQ(run.trace_json, reference.trace_json)
        << "trace export drifted from the scalar oracle";
  }
}

MinerConfig BaseConfig(std::int64_t min_gap, std::int64_t max_gap,
                       double rho) {
  MinerConfig base;
  base.min_gap = min_gap;
  base.max_gap = max_gap;
  base.min_support_ratio = rho;
  base.start_length = 1;
  base.em_order = 2;
  return base;
}

TEST_P(KernelDifferentialSweep, ScalarByteIdenticalAcrossThreads) {
  const auto [symbols, length, min_gap, max_gap, rho, seed] = GetParam();
  Alphabet alphabet = *Alphabet::Create(symbols);
  Rng rng(seed);
  Sequence s = *UniformRandomSequence(length, alphabet, rng);
  const MinerConfig base = BaseConfig(min_gap, max_gap, rho);

  const TierRun reference = RunTier(s, base, KernelTier::kScalar, 1);
  ExpectTierMatchesScalar(s, base, reference, KernelTier::kScalar);
}

TEST_P(KernelDifferentialSweep, Avx2TierByteIdenticalToScalar) {
  if (!Avx2Available()) {
    GTEST_SKIP() << "AVX2 kernel unavailable (CPU or build)";
  }
  const auto [symbols, length, min_gap, max_gap, rho, seed] = GetParam();
  Alphabet alphabet = *Alphabet::Create(symbols);
  Rng rng(seed);
  Sequence s = *UniformRandomSequence(length, alphabet, rng);
  const MinerConfig base = BaseConfig(min_gap, max_gap, rho);

  // Every matrix window fits 64 bits, so auto must actually engage the
  // AVX2 kernel — a silent scalar fallback would make this sweep vacuous.
  GapRequirement gap = *GapRequirement::Create(min_gap, max_gap);
  ASSERT_EQ(ResolveKernel(KernelTier::kAuto, gap), KernelImpl::kAvx2);

  const TierRun reference = RunTier(s, base, KernelTier::kScalar, 1);
  ExpectTierMatchesScalar(s, base, reference, KernelTier::kAuto);
}

INSTANTIATE_TEST_SUITE_P(
    SeededConfigs, KernelDifferentialSweep,
    testing::Values(
        DiffParam{"ACGT", 40, 1, 2, 0.02, 3001},
        DiffParam{"ACGT", 60, 0, 1, 0.05, 3002},
        DiffParam{"ACGT", 60, 2, 4, 0.01, 3003},
        DiffParam{"ACGT", 80, 1, 3, 0.005, 3004},
        DiffParam{"AB", 50, 1, 2, 0.05, 3005},
        DiffParam{"AB", 70, 0, 2, 0.1, 3006},
        DiffParam{"ABC", 55, 2, 3, 0.02, 3007},
        DiffParam{"ACGT", 45, 3, 3, 0.01, 3008},    // rigid gap, W = 1
        DiffParam{"ACGT", 64, 0, 0, 0.02, 3009},    // adjacent characters
        DiffParam{"ACGT", 33, 5, 8, 0.02, 3010},    // wide gap, short seq
        DiffParam{"ACGT", 100, 2, 3, 0.008, 3011},
        DiffParam{"AB", 36, 4, 6, 0.03, 3012},
        DiffParam{"ABCDE", 48, 1, 2, 0.01, 3013},   // 5-letter alphabet
        DiffParam{"ACGT", 25, 0, 6, 0.05, 3014},    // gap wider than N
        DiffParam{"ACGT", 90, 1, 1, 0.015, 3015},   // rigid non-zero gap
        DiffParam{"ACGT", 48, 1, 2, 0.04, 3016},
        DiffParam{"ACGT", 72, 0, 3, 0.01, 3017},
        DiffParam{"AB", 64, 2, 2, 0.08, 3018},
        DiffParam{"ABC", 80, 0, 1, 0.03, 3019},
        DiffParam{"ACGT", 56, 2, 5, 0.015, 3020},
        DiffParam{"ACGT", 30, 1, 4, 0.06, 3021},
        DiffParam{"AB", 90, 1, 3, 0.04, 3022},
        DiffParam{"ABCDE", 60, 0, 2, 0.008, 3023},
        DiffParam{"ACGT", 84, 3, 4, 0.006, 3024},
        DiffParam{"ACGT", 50, 0, 5, 0.03, 3025},
        DiffParam{"ABC", 44, 1, 1, 0.05, 3026},
        DiffParam{"ACGT", 66, 4, 5, 0.01, 3027}));

}  // namespace
}  // namespace pgm
