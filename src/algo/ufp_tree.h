#ifndef UFIM_ALGO_UFP_TREE_H_
#define UFIM_ALGO_UFP_TREE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ufim {

/// The UFP-tree of Leung et al. (PAKDD'08; paper §3.1.2).
///
/// Like an FP-tree, but under uncertainty two transactions may share a
/// node only when both the item *and* its appearance probability are
/// equal (paper, Fig. 1 discussion). With continuous probability
/// assignments almost nothing is shared, which is precisely why the
/// paper finds UFP-growth slow and memory-hungry — this implementation
/// preserves that limited-sharing behaviour exactly (the node count is
/// the paper's) but adds no per-node container: children are found
/// through one open-addressing index shared by the whole tree, keyed by
/// (parent, rank, probability bits) read back from the node itself, so a
/// node costs its 32 B `Node` plus at most 16 B of index.
///
/// Nodes carry aggregated path weights rather than raw counts so that
/// conditional trees stay *exact* (no upper-bound candidates + rescan):
///   w_sum  = Σ over grouped transactions of Pr(prefix-so-far ⊆ T)
///   w2_sum = Σ of the squares (for variance tracking).
/// For the global tree, prefix-so-far is empty: w_sum = transaction
/// count, w2_sum likewise.
///
/// Thread safety: the tree is build-then-read. `InsertPath` requires
/// exclusive access; once construction is done, every const member
/// (`nodes`, `header`, `AncestorPath`, ...) only reads immutable state —
/// there are no lazy caches — so any number of threads may mine a fully
/// built tree concurrently. The parallel pattern-growth driver leans on
/// this: per-rank tasks share the global tree read-only and build their
/// conditional trees task-locally.
class UFPTree {
 public:
  struct Node {
    std::uint32_t rank = 0;    ///< item rank in descending-esup order
    std::uint32_t parent = 0;  ///< node index; 0 is the root sentinel
    double prob = 0.0;         ///< appearance probability at this node
    double w_sum = 0.0;
    double w2_sum = 0.0;
  };

  /// One (rank, probability) step of an insertion path.
  struct PathUnit {
    std::uint32_t rank;
    double prob;
  };

  /// Creates an empty tree over `num_ranks` item ranks, sized for
  /// `max_nodes` nodes (excluding the root). Every inserted unit adds at
  /// most one node, so the caller's total path length is an exact bound;
  /// a tree that outgrows it still works, it just reallocates.
  UFPTree(std::size_t num_ranks, std::size_t max_nodes);

  /// Inserts `path` (sorted by ascending rank) carrying aggregate weight
  /// `w` and squared weight `w2`. Every node along the path accumulates
  /// both. Empty paths are ignored.
  void InsertPath(const std::vector<PathUnit>& path, double w, double w2);

  /// Node arena; index 0 is the root sentinel.
  const std::vector<Node>& nodes() const { return nodes_; }

  /// Header list: indices of all nodes labelled with `rank`, in
  /// creation order.
  const std::vector<std::uint32_t>& header(std::uint32_t rank) const {
    return headers_[rank];
  }

  std::size_t num_ranks() const { return headers_.size(); }

  /// Total node count excluding the root (a memory-pressure proxy used
  /// by tests to verify the limited-sharing property).
  std::size_t num_nodes() const { return nodes_.size() - 1; }

  /// Reconstructs the ancestor path of `node` (excluding the node itself
  /// and the root), ordered root-first, i.e. ascending rank.
  std::vector<PathUnit> AncestorPath(std::uint32_t node) const;

  /// Allocation-free variant: clears `out` and fills it with the ancestor
  /// path of `node`, root-first. The mining inner loop reuses one buffer
  /// per task instead of allocating per header node.
  void AncestorPathInto(std::uint32_t node, std::vector<PathUnit>& out) const;

 private:
  /// The child of `parent` labelled (`unit.rank`, bitwise `unit.prob`),
  /// created (and appended to its header list) if it does not exist yet.
  std::uint32_t FindOrAddChild(std::uint32_t parent, const PathUnit& unit);

  /// Rebuilds `slots_` at `num_slots` from the node array.
  void Rehash(std::size_t num_slots);

  std::vector<Node> nodes_;
  /// Child index over every non-root node: linear probing, load <= 1/2,
  /// power-of-two size. A slot holds a node index; 0 (the root, which is
  /// never a child) marks it empty.
  std::vector<std::uint32_t> slots_;
  std::vector<std::vector<std::uint32_t>> headers_;
};

}  // namespace ufim

#endif  // UFIM_ALGO_UFP_TREE_H_
