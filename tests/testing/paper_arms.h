#ifndef UFIM_TESTS_TESTING_PAPER_ARMS_H_
#define UFIM_TESTS_TESTING_PAPER_ARMS_H_

#include <string_view>

namespace ufim::testing_util {

/// The paper's three experimental arm groups, as registry names: the
/// expected-support miners (§3.1), the exact probabilistic miners with
/// and without Chernoff pruning (§3.2) and the approximate probabilistic
/// miners (§3.3). Brute-force oracles and MCSampling are not arms.
inline constexpr std::string_view kExpectedArms[] = {"UApriori", "UFP-growth",
                                                     "UH-Mine"};
inline constexpr std::string_view kExactArms[] = {"DPNB", "DPB", "DCNB",
                                                  "DCB"};
inline constexpr std::string_view kApproxArms[] = {"PDUApriori", "NDUApriori",
                                                   "NDUH-Mine"};

}  // namespace ufim::testing_util

#endif  // UFIM_TESTS_TESTING_PAPER_ARMS_H_
