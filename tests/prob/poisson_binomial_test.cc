#include "prob/poisson_binomial.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "prob/normal.h"
#include "prob/poisson.h"

namespace ufim {
namespace {

// Exhaustive possible-world oracle: enumerate all 2^n outcomes.
double TailByEnumeration(const std::vector<double>& probs, std::size_t k) {
  const std::size_t n = probs.size();
  double tail = 0.0;
  for (std::size_t mask = 0; mask < (1u << n); ++mask) {
    double p = 1.0;
    std::size_t successes = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) {
        p *= probs[i];
        ++successes;
      } else {
        p *= 1.0 - probs[i];
      }
    }
    if (successes >= k) tail += p;
  }
  return tail;
}

TEST(SupportMomentsTest, MeanAndVariance) {
  SupportMoments m = ComputeSupportMoments({0.5, 0.5, 1.0});
  EXPECT_DOUBLE_EQ(m.mean, 2.0);
  EXPECT_DOUBLE_EQ(m.variance, 0.5);
  SupportMoments empty = ComputeSupportMoments({});
  EXPECT_EQ(empty.mean, 0.0);
  EXPECT_EQ(empty.variance, 0.0);
}

TEST(PoissonBinomialDPTest, MatchesEnumerationOracle) {
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 1 + rng.UniformInt(0, 11);
    std::vector<double> probs(n);
    for (double& p : probs) p = rng.Uniform01();
    for (std::size_t k = 0; k <= n + 1; ++k) {
      EXPECT_NEAR(PoissonBinomialTailDP(probs, k), TailByEnumeration(probs, k),
                  1e-10)
          << "trial=" << trial << " n=" << n << " k=" << k;
    }
  }
}

TEST(PoissonBinomialDCTest, MatchesDP) {
  Rng rng(6);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t n = 1 + rng.UniformInt(0, 200);
    std::vector<double> probs(n);
    for (double& p : probs) p = rng.Uniform01();
    const std::size_t k = rng.UniformInt(0, n);
    EXPECT_NEAR(PoissonBinomialTailDC(probs, k),
                PoissonBinomialTailDP(probs, k), 1e-9)
        << "trial=" << trial << " n=" << n << " k=" << k;
  }
}

TEST(PoissonBinomialDCTest, FftAndNaiveConquerAgree) {
  Rng rng(7);
  std::vector<double> probs(300);
  for (double& p : probs) p = rng.Uniform01();
  const std::size_t k = 120;
  EXPECT_NEAR(PoissonBinomialTailDC(probs, k, /*fft_threshold=*/8),
              PoissonBinomialTailDC(probs, k, /*fft_threshold=*/1 << 20), 1e-9);
}

// Regression pin for the fft_threshold boundary: operand sizes exactly
// at, one below, and one above the threshold must all agree with the DP
// (the conquer step switches implementation at `fft_threshold` operand
// coefficients, and an off-by-one there would silently corrupt tails for
// vectors near the switch point).
TEST(PoissonBinomialDCTest, FftThresholdBoundaryPinned) {
  Rng rng(12);
  constexpr std::size_t kThreshold = 16;
  for (std::size_t n : {kThreshold - 1, kThreshold, kThreshold + 1,
                        2 * kThreshold - 1, 2 * kThreshold,
                        2 * kThreshold + 1}) {
    std::vector<double> probs(n);
    for (double& p : probs) p = rng.Uniform01();
    for (std::size_t k : {std::size_t{1}, n / 2, n}) {
      EXPECT_NEAR(PoissonBinomialTailDC(probs, k, kThreshold),
                  PoissonBinomialTailDP(probs, k), 1e-10)
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(PoissonBinomialPmfTest, CappedPmfSumsToOne) {
  Rng rng(8);
  std::vector<double> probs(50);
  for (double& p : probs) p = rng.Uniform01();
  for (std::size_t cap : {0u, 1u, 10u, 25u, 50u, 60u}) {
    auto pmf = PoissonBinomialCappedPmfDP(probs, cap);
    double sum = std::accumulate(pmf.begin(), pmf.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-10) << "cap=" << cap;
    EXPECT_LE(pmf.size(), std::min<std::size_t>(cap, probs.size()) + 1);
  }
}

TEST(PoissonBinomialPmfTest, DPAndDCPmfsAgree) {
  Rng rng(9);
  std::vector<double> probs(80);
  for (double& p : probs) p = rng.Uniform01();
  const std::size_t cap = 30;
  auto dp = PoissonBinomialCappedPmfDP(probs, cap);
  auto dc = PoissonBinomialCappedPmfDC(probs, cap);
  ASSERT_EQ(dp.size(), dc.size());
  for (std::size_t i = 0; i < dp.size(); ++i) {
    EXPECT_NEAR(dp[i], dc[i], 1e-9) << "i=" << i;
  }
}

TEST(PoissonBinomialTest, EdgeCases) {
  EXPECT_EQ(PoissonBinomialTailDP({}, 0), 1.0);
  EXPECT_EQ(PoissonBinomialTailDP({}, 1), 0.0);
  EXPECT_EQ(PoissonBinomialTailDP({0.5}, 2), 0.0);  // k > n
  EXPECT_NEAR(PoissonBinomialTailDP({1.0, 1.0}, 2), 1.0, 1e-12);
  EXPECT_EQ(PoissonBinomialTailDC({}, 3), 0.0);
  EXPECT_EQ(PoissonBinomialTailDC({0.7}, 0), 1.0);
}

TEST(PoissonBinomialTest, DegenerateAllOnes) {
  std::vector<double> probs(10, 1.0);
  for (std::size_t k = 0; k <= 10; ++k) {
    EXPECT_NEAR(PoissonBinomialTailDP(probs, k), 1.0, 1e-12);
  }
  EXPECT_EQ(PoissonBinomialTailDP(probs, 11), 0.0);
}

// The paper's Example 2 / Table 2: sup(A) over the Table 1 database,
// where A's containment probabilities are {0.8, 0.8, 0.5}. The printed
// Table 2 values (0.1, 0.18, 0.4, 0.32) are internally inconsistent with
// Table 1 — the correct distribution is (0.02, 0.18, 0.48, 0.32), which
// still sums to 1 and still makes {A} probabilistic frequent at
// min_sup=0.5, pft=0.7 (Pr(sup>=2) = 0.8 > 0.7). Documented in DESIGN.md.
TEST(PoissonBinomialTest, PaperTable2Example) {
  const std::vector<double> a = {0.8, 0.8, 0.5};
  auto pmf = PoissonBinomialCappedPmfDP(a, 3);
  ASSERT_EQ(pmf.size(), 4u);
  EXPECT_NEAR(pmf[0], 0.02, 1e-12);
  EXPECT_NEAR(pmf[1], 0.18, 1e-12);
  EXPECT_NEAR(pmf[2], 0.48, 1e-12);
  EXPECT_NEAR(pmf[3], 0.32, 1e-12);
  EXPECT_NEAR(PoissonBinomialTailDP(a, 2), 0.8, 1e-12);
}

// Reference for the live-band DP: the full-range recurrence, which
// recomputes every bin in [1, min(filled + 1, top)] on every trial,
// including bins whose mass has underflowed to +0.0.
bool ReferenceTailDpCore(const std::vector<double>& probs, std::size_t top,
                         bool capped, double reject_threshold,
                         std::vector<double>& pmf, double* early_bound) {
  pmf.assign(top + 1, 0.0);
  pmf[0] = 1.0;
  std::size_t filled = 0;
  const std::size_t n = probs.size();
  for (std::size_t i = 0; i < n; ++i) {
    const double p = probs[i];
    const std::size_t hi = std::min(filled + 1, top);
    for (std::size_t j = hi; j > 0; --j) {
      if (capped && j == top) {
        pmf[j] = pmf[j] + pmf[j - 1] * p;
      } else {
        pmf[j] = pmf[j] * (1.0 - p) + pmf[j - 1] * p;
      }
    }
    pmf[0] *= (1.0 - p);
    filled = hi;
    if (reject_threshold >= 0.0 && (i & 63u) == 63u && i + 1 < n) {
      const std::size_t remaining = n - i - 1;
      if (remaining < top) {
        double reachable = 0.0;
        for (std::size_t j = top - remaining; j <= filled; ++j) {
          reachable += pmf[j];
        }
        if (reachable + 1e-7 <= reject_threshold) {
          *early_bound = reachable;
          return true;
        }
      }
    }
  }
  return false;
}

std::vector<double> ReferenceCappedPmf(const std::vector<double>& probs,
                                       std::size_t cap) {
  const std::size_t top = std::min(cap, probs.size());
  if (top == 0) return {1.0};
  std::vector<double> pmf;
  ReferenceTailDpCore(probs, top, probs.size() > cap, -1.0, pmf, nullptr);
  return pmf;
}

double ReferenceTail(const std::vector<double>& probs, std::size_t k,
                     double reject_threshold) {
  if (k == 0) return 1.0;
  if (probs.size() < k) return 0.0;
  std::vector<double> pmf;
  double early_bound = 0.0;
  if (ReferenceTailDpCore(probs, k, probs.size() > k, reject_threshold, pmf,
                          &early_bound)) {
    return early_bound;
  }
  return pmf[k];
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Requires the capped pmf and both tail overloads (reject threshold 0.9
/// and disabled) to equal the full-range recurrence bit for bit.
void ExpectMatchesReference(const std::vector<double>& probs, std::size_t k,
                            const std::string& label) {
  const std::vector<double> pmf = PoissonBinomialCappedPmfDP(probs, k);
  const std::vector<double> want = ReferenceCappedPmf(probs, k);
  ASSERT_EQ(pmf.size(), want.size()) << label;
  EXPECT_EQ(std::memcmp(pmf.data(), want.data(), pmf.size() * sizeof(double)),
            0)
      << label;
  const double full = ReferenceTail(probs, k, -1.0);
  EXPECT_TRUE(SameBits(PoissonBinomialTailDP(probs, k), full)) << label;
  DpScratch scratch;
  for (double threshold : {0.9, -1.0}) {
    EXPECT_TRUE(SameBits(PoissonBinomialTailDP(probs, k, threshold, scratch),
                         ReferenceTail(probs, k, threshold)))
        << label << " reject_threshold=" << threshold;
  }
}

TEST(PoissonBinomialLiveBandTest, BandDiesMidRunWhenCapped) {
  // Mean 10000 far above k: every bin below k underflows to +0.0 long
  // before the last trial, so the DP stops on the overflow bin alone.
  const std::vector<double> probs(20000, 0.5);
  ExpectMatchesReference(probs, 3000, "n=20000 p=0.5 k=3000");
}

TEST(PoissonBinomialLiveBandTest, UncappedAtKEqualsN) {
  Rng rng(21);
  std::vector<double> probs(2000);
  for (double& p : probs) p = rng.Uniform01();
  ExpectMatchesReference(probs, probs.size(), "k=n random");
  const std::vector<double> high(1500, 0.999);
  ExpectMatchesReference(high, high.size(), "k=n p=0.999");
}

TEST(PoissonBinomialLiveBandTest, KAboveMeanBandNeverDies) {
  Rng rng(22);
  std::vector<double> probs(4000);
  for (double& p : probs) p = rng.Uniform01();
  const double mean = ComputeSupportMoments(probs).mean;
  for (double scale : {1.05, 1.2}) {
    const auto k = static_cast<std::size_t>(mean * scale);
    ExpectMatchesReference(probs, k, "k=" + std::to_string(k));
  }
}

TEST(PoissonBinomialLiveBandTest, AllOnesAdvanceLowEveryTrial) {
  const std::vector<double> ones(500, 1.0);
  for (std::size_t k : {std::size_t{1}, std::size_t{100}, std::size_t{499},
                        std::size_t{500}}) {
    ExpectMatchesReference(ones, k, "all-ones k=" + std::to_string(k));
  }
}

TEST(PoissonBinomialLiveBandTest, ExtremeProbabilitiesMixedIn) {
  const double kExtremes[] = {0.0, 1.0, 1.0 - 1e-12, 1e-300,
                              std::numeric_limits<double>::denorm_min()};
  Rng rng(23);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<double> probs(3000);
    for (double& p : probs) {
      p = rng.Uniform01() < 0.4 ? kExtremes[rng.UniformInt(0, 4)]
                                : rng.Uniform01();
    }
    const double mean = ComputeSupportMoments(probs).mean;
    for (std::size_t k :
         {std::size_t{1}, static_cast<std::size_t>(mean / 4),
          static_cast<std::size_t>(mean), static_cast<std::size_t>(mean) + 40,
          probs.size()}) {
      ExpectMatchesReference(probs, k,
                             "trial=" + std::to_string(trial) +
                                 " k=" + std::to_string(k));
    }
  }
}

// CLT regime: for large n the Normal approximation with continuity
// correction lands close to the exact DP tail.
TEST(PoissonBinomialApproximationTest, NormalApproxConvergesForLargeN) {
  Rng rng(10);
  std::vector<double> probs(2000);
  for (double& p : probs) p = rng.Uniform(0.2, 0.9);
  SupportMoments m = ComputeSupportMoments(probs);
  for (double frac : {0.45, 0.5, 0.55, 0.6}) {
    const std::size_t k = static_cast<std::size_t>(m.mean * frac / 0.5);
    const double exact = PoissonBinomialTailDP(probs, k);
    const double approx = NormalApproxFrequentProbability(m.mean, m.variance, k);
    EXPECT_NEAR(approx, exact, 0.01) << "k=" << k;
  }
}

// Poisson approximation: good when probabilities are small (Le Cam).
TEST(PoissonBinomialApproximationTest, PoissonApproxGoodForSmallProbs) {
  Rng rng(11);
  std::vector<double> probs(3000);
  for (double& p : probs) p = rng.Uniform(0.0, 0.05);
  SupportMoments m = ComputeSupportMoments(probs);
  const std::size_t k = static_cast<std::size_t>(m.mean);
  const double exact = PoissonBinomialTailDP(probs, k);
  const double approx = PoissonTail(k, m.mean);
  EXPECT_NEAR(approx, exact, 0.02);
}

}  // namespace
}  // namespace ufim
