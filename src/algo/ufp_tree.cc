#include "algo/ufp_tree.h"

#include <algorithm>
#include <bit>

namespace ufim {

namespace {

constexpr std::size_t kMinSlots = 16;

/// Hash of a child key (parent, rank, probability bits), finalized with
/// the splitmix64 mixer so the low bits used as the slot are well spread
/// even for round probabilities such as 0.5.
std::uint64_t ChildHash(std::uint32_t parent, std::uint32_t rank,
                        std::uint64_t prob_bits) {
  std::uint64_t h = prob_bits * 0x9E3779B97F4A7C15ULL +
                    ((static_cast<std::uint64_t>(parent) << 32) | rank);
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBULL;
  h ^= h >> 31;
  return h;
}

}  // namespace

UFPTree::UFPTree(std::size_t num_ranks, std::size_t max_nodes)
    : slots_(std::bit_ceil(std::max(kMinSlots, 2 * max_nodes)), 0),
      headers_(num_ranks) {
  nodes_.reserve(max_nodes + 1);
  nodes_.push_back(Node{});  // root sentinel at index 0
}

void UFPTree::InsertPath(const std::vector<PathUnit>& path, double w, double w2) {
  std::uint32_t cur = 0;
  for (const PathUnit& unit : path) {
    cur = FindOrAddChild(cur, unit);
    nodes_[cur].w_sum += w;
    nodes_[cur].w2_sum += w2;
  }
}

std::uint32_t UFPTree::FindOrAddChild(std::uint32_t parent,
                                      const PathUnit& unit) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(unit.prob);
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot = ChildHash(parent, unit.rank, bits) & mask;
  for (; slots_[slot] != 0; slot = (slot + 1) & mask) {
    const Node& node = nodes_[slots_[slot]];
    if (node.parent == parent && node.rank == unit.rank &&
        std::bit_cast<std::uint64_t>(node.prob) == bits) {
      return slots_[slot];
    }
  }
  const auto child = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(Node{unit.rank, parent, unit.prob, 0.0, 0.0});
  headers_[unit.rank].push_back(child);
  if (2 * num_nodes() > slots_.size()) {
    Rehash(2 * slots_.size());  // re-indexes every node, `child` included
  } else {
    slots_[slot] = child;
  }
  return child;
}

void UFPTree::Rehash(std::size_t num_slots) {
  slots_.assign(num_slots, 0);
  const std::size_t mask = num_slots - 1;
  for (std::uint32_t n = 1; n < nodes_.size(); ++n) {
    const Node& node = nodes_[n];
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(node.prob);
    std::size_t slot = ChildHash(node.parent, node.rank, bits) & mask;
    while (slots_[slot] != 0) slot = (slot + 1) & mask;
    slots_[slot] = n;
  }
}

std::vector<UFPTree::PathUnit> UFPTree::AncestorPath(std::uint32_t node) const {
  std::vector<PathUnit> path;
  AncestorPathInto(node, path);
  return path;
}

void UFPTree::AncestorPathInto(std::uint32_t node,
                               std::vector<PathUnit>& out) const {
  out.clear();
  for (std::uint32_t cur = nodes_[node].parent; cur != 0;
       cur = nodes_[cur].parent) {
    out.push_back(PathUnit{nodes_[cur].rank, nodes_[cur].prob});
  }
  std::reverse(out.begin(), out.end());
}

}  // namespace ufim
