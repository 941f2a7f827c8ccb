#include "algo/ufp_tree.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <random>
#include <tuple>

#include "eval/memory_tracker.h"

namespace ufim {
namespace {

TEST(UFPTreeTest, EmptyTree) {
  UFPTree tree(4, 0);
  EXPECT_EQ(tree.num_nodes(), 0u);
  EXPECT_EQ(tree.num_ranks(), 4u);
  for (std::uint32_t r = 0; r < 4; ++r) {
    EXPECT_TRUE(tree.header(r).empty());
  }
}

TEST(UFPTreeTest, SharesNodeOnlyWhenItemAndProbEqual) {
  UFPTree tree(3, 6);
  // Same (rank, prob) path twice: one chain of nodes, weights summed.
  tree.InsertPath({{0, 0.8}, {1, 0.5}}, 1.0, 1.0);
  tree.InsertPath({{0, 0.8}, {1, 0.5}}, 1.0, 1.0);
  EXPECT_EQ(tree.num_nodes(), 2u);
  // Same item, different probability: a new node must appear (the paper's
  // limited-sharing rule).
  tree.InsertPath({{0, 0.7}, {1, 0.5}}, 1.0, 1.0);
  EXPECT_EQ(tree.num_nodes(), 4u);  // (0,0.7) and its own (1,0.5) child
  EXPECT_EQ(tree.header(0).size(), 2u);
  EXPECT_EQ(tree.header(1).size(), 2u);
}

TEST(UFPTreeTest, WeightsAccumulate) {
  UFPTree tree(2, 2);
  tree.InsertPath({{0, 0.5}}, 2.0, 1.5);
  tree.InsertPath({{0, 0.5}}, 3.0, 2.5);
  ASSERT_EQ(tree.header(0).size(), 1u);
  const UFPTree::Node& n = tree.nodes()[tree.header(0)[0]];
  EXPECT_DOUBLE_EQ(n.w_sum, 5.0);
  EXPECT_DOUBLE_EQ(n.w2_sum, 4.0);
}

TEST(UFPTreeTest, AncestorPathReconstructsInsertionOrder) {
  UFPTree tree(4, 3);
  tree.InsertPath({{0, 0.9}, {2, 0.4}, {3, 0.6}}, 1.0, 1.0);
  ASSERT_EQ(tree.header(3).size(), 1u);
  auto path = tree.AncestorPath(tree.header(3)[0]);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0].rank, 0u);
  EXPECT_DOUBLE_EQ(path[0].prob, 0.9);
  EXPECT_EQ(path[1].rank, 2u);
  EXPECT_DOUBLE_EQ(path[1].prob, 0.4);
}

TEST(UFPTreeTest, AncestorPathOfTopLevelNodeIsEmpty) {
  UFPTree tree(2, 1);
  tree.InsertPath({{1, 0.3}}, 1.0, 1.0);
  EXPECT_TRUE(tree.AncestorPath(tree.header(1)[0]).empty());
}

TEST(UFPTreeTest, EmptyPathIgnored) {
  UFPTree tree(2, 0);
  tree.InsertPath({}, 1.0, 1.0);
  EXPECT_EQ(tree.num_nodes(), 0u);
}

TEST(UFPTreeTest, PrefixSharingSplitsAtDivergence) {
  UFPTree tree(4, 4);
  tree.InsertPath({{0, 0.5}, {1, 0.5}}, 1.0, 1.0);
  tree.InsertPath({{0, 0.5}, {2, 0.5}}, 1.0, 1.0);
  // Shared (0,0.5) root child, two distinct leaves.
  EXPECT_EQ(tree.num_nodes(), 3u);
  EXPECT_EQ(tree.header(0).size(), 1u);
  EXPECT_DOUBLE_EQ(tree.nodes()[tree.header(0)[0]].w_sum, 2.0);
}

/// The one-map-per-parent design in miniature: an ordered map from
/// (parent, rank, probability bits) to the child index. The flat child
/// index must reproduce its trees node for node and header for header.
class ReferenceTree {
 public:
  explicit ReferenceTree(std::size_t num_ranks)
      : nodes_(1), headers_(num_ranks) {}

  void InsertPath(const std::vector<UFPTree::PathUnit>& path, double w,
                  double w2) {
    std::uint32_t cur = 0;
    for (const UFPTree::PathUnit& unit : path) {
      const auto [it, inserted] = children_.try_emplace(
          {cur, unit.rank, std::bit_cast<std::uint64_t>(unit.prob)},
          static_cast<std::uint32_t>(nodes_.size()));
      if (inserted) {
        nodes_.push_back(UFPTree::Node{unit.rank, cur, unit.prob, 0.0, 0.0});
        headers_[unit.rank].push_back(it->second);
      }
      cur = it->second;
      nodes_[cur].w_sum += w;
      nodes_[cur].w2_sum += w2;
    }
  }

  const std::vector<UFPTree::Node>& nodes() const { return nodes_; }
  const std::vector<std::uint32_t>& header(std::uint32_t rank) const {
    return headers_[rank];
  }

 private:
  std::vector<UFPTree::Node> nodes_;
  std::vector<std::vector<std::uint32_t>> headers_;
  std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>,
           std::uint32_t>
      children_;
};

void ExpectSameTree(const UFPTree& tree, const ReferenceTree& ref) {
  ASSERT_EQ(tree.nodes().size(), ref.nodes().size());
  for (std::size_t n = 0; n < ref.nodes().size(); ++n) {
    const UFPTree::Node& a = tree.nodes()[n];
    const UFPTree::Node& b = ref.nodes()[n];
    EXPECT_EQ(a.rank, b.rank) << "node " << n;
    EXPECT_EQ(a.parent, b.parent) << "node " << n;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.prob),
              std::bit_cast<std::uint64_t>(b.prob))
        << "node " << n;
    EXPECT_EQ(a.w_sum, b.w_sum) << "node " << n;
    EXPECT_EQ(a.w2_sum, b.w2_sum) << "node " << n;
  }
  for (std::uint32_t r = 0; r < tree.num_ranks(); ++r) {
    EXPECT_EQ(tree.header(r), ref.header(r)) << "rank " << r;
  }
}

TEST(UFPTreeTest, MatchesReferenceBuilderOnSharedPaths) {
  // A four-value probability alphabet makes paths genuinely share
  // prefixes, which continuous probabilities almost never do.
  constexpr double kAlphabet[] = {0.25, 0.5, 0.75, 1.0};
  constexpr std::uint32_t kRanks = 10;
  constexpr int kPaths = 5000;
  for (std::size_t max_nodes : {std::size_t{0}, std::size_t{1} << 16}) {
    std::mt19937_64 rng(42);
    std::bernoulli_distribution keep(0.4);
    std::uniform_int_distribution<int> pick(0, 3);
    std::uniform_real_distribution<double> weight(0.05, 1.0);
    UFPTree tree(kRanks, max_nodes);
    ReferenceTree ref(kRanks);
    std::size_t units = 0;
    std::vector<UFPTree::PathUnit> path;
    for (int p = 0; p < kPaths; ++p) {
      path.clear();
      for (std::uint32_t r = 0; r < kRanks; ++r) {
        if (keep(rng)) path.push_back({r, kAlphabet[pick(rng)]});
      }
      const double w = weight(rng);
      const double w2 = w * weight(rng);
      tree.InsertPath(path, w, w2);
      ref.InsertPath(path, w, w2);
      units += path.size();
    }
    ASSERT_LT(tree.num_nodes(), units / 2) << "paths must share nodes";
    ExpectSameTree(tree, ref);
  }
}

TEST(UFPTreeTest, IndexFindsEveryChildAcrossRehashes) {
  constexpr std::uint32_t kChildren = 100000;
  auto prob = [](std::uint32_t i) { return (i + 1.0) / (kChildren + 1.0); };
  UFPTree tree(1, 0);  // minimum table: every growth step is exercised
  for (std::uint32_t i = 0; i < kChildren; ++i) {
    tree.InsertPath({{0, prob(i)}}, 1.0, 1.0);
  }
  ASSERT_EQ(tree.num_nodes(), kChildren);
  for (std::uint32_t i = 0; i < kChildren; ++i) {
    tree.InsertPath({{0, prob(i)}}, 1.0, 1.0);
  }
  EXPECT_EQ(tree.num_nodes(), kChildren);
  std::size_t not_doubled = 0;
  for (std::uint32_t n = 1; n <= kChildren; ++n) {
    if (tree.nodes()[n].w_sum != 2.0 || tree.nodes()[n].w2_sum != 2.0) {
      ++not_doubled;
    }
  }
  EXPECT_EQ(not_doubled, 0u);
}

TEST(UFPTreeTest, ProbabilityKeyIsBitwise) {
  UFPTree tree(1, 4);
  tree.InsertPath({{0, 0.0}}, 1.0, 1.0);
  tree.InsertPath({{0, -0.0}}, 1.0, 1.0);
  EXPECT_EQ(tree.num_nodes(), 2u);  // +0.0 == -0.0, yet distinct keys
  tree.InsertPath({{0, 0.3}}, 1.0, 1.0);
  tree.InsertPath({{0, std::nextafter(0.3, 1.0)}}, 1.0, 1.0);
  EXPECT_EQ(tree.num_nodes(), 4u);  // one ulp apart
  tree.InsertPath({{0, -0.0}}, 1.0, 1.0);
  EXPECT_EQ(tree.num_nodes(), 4u);
  EXPECT_EQ(tree.nodes()[1].w_sum, 1.0);
  EXPECT_EQ(tree.nodes()[2].w_sum, 2.0);
  // NaN != NaN, yet a NaN key finds its own node.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  tree.InsertPath({{0, nan}}, 1.0, 1.0);
  tree.InsertPath({{0, nan}}, 1.0, 1.0);
  EXPECT_EQ(tree.num_nodes(), 5u);
  EXPECT_EQ(tree.nodes()[5].w_sum, 2.0);
}

TEST(UFPTreeTest, HeaderOrderIsCreationOrderAcrossGrowth) {
  constexpr std::uint32_t kPaths = 40;
  UFPTree tree(2, 2);  // far too small: the index grows several times
  for (std::uint32_t i = 0; i < kPaths; ++i) {
    tree.InsertPath({{0, (i + 1.0) / 64}, {1, 0.5}}, 1.0, 1.0);
  }
  ASSERT_EQ(tree.num_nodes(), 2 * kPaths);
  ASSERT_EQ(tree.header(0).size(), kPaths);
  ASSERT_EQ(tree.header(1).size(), kPaths);
  for (std::uint32_t i = 0; i < kPaths; ++i) {
    EXPECT_EQ(tree.header(0)[i], 2 * i + 1);
    EXPECT_EQ(tree.header(1)[i], 2 * i + 2);
    EXPECT_EQ(tree.nodes()[tree.header(0)[i]].prob, (i + 1.0) / 64);
  }
}

TEST(UFPTreeTest, FootprintPerNodeWithoutSharing) {
  // Continuous probabilities share nothing, so the tree holds one node
  // per unit; this pins what such a node costs, index and headers
  // included.
  ASSERT_TRUE(memory_tracker::HooksInstalled());
  constexpr std::uint32_t kLen = 4;
  constexpr std::size_t kPaths = 50000;  // 200k nodes
  constexpr std::size_t kUnits = kPaths * kLen;
  std::vector<UFPTree::PathUnit> path(kLen);
  ScopedPeakMemory scope;
  UFPTree tree(kLen, kUnits);
  for (std::size_t p = 0; p < kPaths; ++p) {
    for (std::uint32_t k = 0; k < kLen; ++k) {
      path[k] = {k, (p * kLen + k + 1.0) / (kUnits + 1.0)};
    }
    tree.InsertPath(path, 1.0, 1.0);
  }
  ASSERT_EQ(tree.num_nodes(), kUnits);
  const double bytes_per_node =
      static_cast<double>(scope.PeakDeltaBytes()) / tree.num_nodes();
  EXPECT_LE(bytes_per_node, 96.0);
}

}  // namespace
}  // namespace ufim
