#include "prob/poisson_binomial.h"

#include <algorithm>

#include "common/math_util.h"
#include "prob/convolution.h"

namespace ufim {

SupportMoments ComputeSupportMoments(const std::vector<double>& probs) {
  KahanSum mean, var;
  for (double p : probs) {
    mean.Add(p);
    var.Add(p * (1.0 - p));
  }
  return SupportMoments{mean.value(), var.value()};
}

namespace {

// Shared DP core. Fills `pmf` (resized to top + 1) with the cap-truncated
// distribution: pmf[j] = Pr(exactly j successes so far) for j < top;
// pmf[top] = Pr(>= top) once the overflow bucket is live. When
// reject_threshold >= 0, the final overflow mass is periodically bounded
// from the partial state; once Pr(S_n >= top) is certified to be at least
// a safety margin below reject_threshold, the DP aborts, stores the bound
// in *early_bound, and returns true. Returns false after a full run.
//
// Only the live band [low, filled] is computed. Every bin below `low` is
// exactly +0.0, and a +0.0 bin whose lower neighbour is +0.0 stays +0.0
// under x * (1 - p) + y * p, so skipping those cells (and the +0.0 terms
// of the reject sum) changes no bit of the pmf, the tail or the bound.
// Probabilities must lie in [0, 1].
bool TailDpCore(const std::vector<double>& probs, std::size_t top, bool capped,
                double reject_threshold, std::vector<double>& pmf,
                double* early_bound) {
  pmf.assign(top + 1, 0.0);
  pmf[0] = 1.0;
  std::size_t low = 0;     // lowest index with possibly-nonzero mass
  std::size_t filled = 0;  // highest index with possibly-nonzero mass
  const std::size_t n = probs.size();
  // Margin under the caller's threshold: a completed DP differs from the
  // true tail by accumulated rounding only, so certifying with this much
  // headroom guarantees the completed evaluation would also land <= the
  // threshold — early exit can never flip a frequent/infrequent decision.
  constexpr double kAbortSlack = 1e-7;
  for (std::size_t i = 0; i < n; ++i) {
    const double p = probs[i];
    const std::size_t hi = std::min(filled + 1, top);
    std::size_t j = hi;
    if (capped && hi == top) {
      // Overflow keeps its mass and absorbs promotions from top - 1.
      pmf[top] = pmf[top] + pmf[top - 1] * p;
      --j;
    }
    const std::size_t stop = std::max<std::size_t>(low, 1);
    for (; j >= stop; --j) {
      pmf[j] = pmf[j] * (1.0 - p) + pmf[j - 1] * p;
    }
    if (low == 0) pmf[0] *= (1.0 - p);
    filled = hi;
    while (low < filled && pmf[low] == 0.0) ++low;
    // Only the overflow bin is live: every later trial adds +0.0 to it,
    // and a reject check would return exactly pmf[top].
    if (capped && low == top) return false;
    if (reject_threshold >= 0.0 && (i & 63u) == 63u && i + 1 < n) {
      const std::size_t remaining = n - i - 1;
      if (remaining < top) {
        // Worlds gain at most one success per remaining trial, so
        // Pr(S_n >= top) <= Pr(S_i >= top - remaining).
        double reachable = 0.0;
        for (std::size_t b = std::max(top - remaining, low); b <= filled; ++b) {
          reachable += pmf[b];
        }
        if (reachable + kAbortSlack <= reject_threshold) {
          *early_bound = reachable;
          return true;
        }
      }
    }
  }
  return false;
}

}  // namespace

std::vector<double> PoissonBinomialCappedPmfDP(const std::vector<double>& probs,
                                               std::size_t cap) {
  const std::size_t top = std::min(cap, probs.size());
  if (top == 0) return {1.0};  // cap == 0 or no trials: all mass at "via >= 0"
  std::vector<double> pmf;
  TailDpCore(probs, top, /*capped=*/probs.size() > cap,
             /*reject_threshold=*/-1.0, pmf, nullptr);
  return pmf;
}

double PoissonBinomialTailDP(const std::vector<double>& probs, std::size_t k) {
  if (k == 0) return 1.0;
  if (probs.size() < k) return 0.0;
  const std::vector<double> pmf = PoissonBinomialCappedPmfDP(probs, k);
  // The last bin holds Pr(>= k) when capped and Pr(= k) == Pr(>= k) when
  // n == k; either way index k is the tail.
  return pmf[k];
}

double PoissonBinomialTailDP(const std::vector<double>& probs, std::size_t k,
                             double reject_threshold, DpScratch& scratch) {
  if (k == 0) return 1.0;
  if (probs.size() < k) return 0.0;
  double early_bound = 0.0;
  if (TailDpCore(probs, k, /*capped=*/probs.size() > k, reject_threshold,
                 scratch.pmf, &early_bound)) {
    return early_bound;
  }
  return scratch.pmf[k];
}

namespace {

std::vector<double> DcRecurse(const std::vector<double>& probs, std::size_t lo,
                              std::size_t hi, std::size_t cap,
                              std::size_t fft_threshold) {
  if (hi - lo == 1) {
    const double p = probs[lo];
    if (cap == 0) return {1.0};  // everything is >= 0 successes
    return {1.0 - p, p};
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  std::vector<double> left = DcRecurse(probs, lo, mid, cap, fft_threshold);
  std::vector<double> right = DcRecurse(probs, mid, hi, cap, fft_threshold);
  return CappedConvolve(left, right, cap, fft_threshold);
}

}  // namespace

std::vector<double> PoissonBinomialCappedPmfDC(const std::vector<double>& probs,
                                               std::size_t cap,
                                               std::size_t fft_threshold) {
  if (probs.empty()) return {1.0};
  return CapPmf(DcRecurse(probs, 0, probs.size(), cap, fft_threshold), cap);
}

double PoissonBinomialTailDC(const std::vector<double>& probs, std::size_t k,
                             std::size_t fft_threshold) {
  if (k == 0) return 1.0;
  if (probs.size() < k) return 0.0;
  const std::vector<double> pmf =
      PoissonBinomialCappedPmfDC(probs, k, fft_threshold);
  // pmf has length min(n, k) + 1 >= k because n >= k; the last bin holds
  // Pr(S >= k).
  return pmf.size() > k ? pmf[k] : pmf.back();
}

}  // namespace ufim
