// CART-style decision tree classifier (Gini impurity, axis-aligned splits).
//
// The building block for the random forest used in the §IV fingerprinting
// evaluation; also a reasonable standalone model for small feature sets.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ml/classifier.h"

namespace pmiot::ml {

/// Hyper-parameters for tree induction. Trees are grown over per-feature
/// orders sorted once at fit time: linear scans of the presorted order find
/// each split, and a stable partition of that order carries it to the
/// children, O(d·n) per level. The per-node-sort reference it must match
/// bit for bit lives in the test-support library (tests/support).
struct TreeOptions {
  int max_depth = 12;           ///< hard depth limit
  std::size_t min_samples = 2;  ///< do not split nodes smaller than this
  /// Number of candidate features per split; 0 means all features
  /// (set to sqrt(width) by the random forest).
  std::size_t max_features = 0;
};

/// The one representation of fitted trees: every node of every tree in a
/// single flat array, each tree addressed by the offset of its root. A
/// standalone tree is an arena holding one tree; a forest's arena holds all
/// of them, so inference walks one contiguous block of nodes.
///
/// Prediction is a majority vote over the trees (ties go to the lowest
/// class id). A row goes left when `x[feature] <= threshold`; NaN compares
/// false and goes right. `predict_all` is tree-major: for each tree it
/// pushes blocks of rows down together with the branch-free step
/// `id = child[!(x[feature] <= threshold)]`, stops a block once every row in
/// it sits on a leaf, and adds the votes into one flat rows×classes array.
/// `predict` is the same walk over one row.
class TreeArena {
 public:
  /// One node. Child links are absolute arena indices. A leaf links both
  /// children to itself and splits on feature 0, so stepping a row that
  /// already sits on a leaf leaves it there; internal nodes carry label -1.
  struct Node {
    double threshold = 0.0;  ///< go to child[0] when x[feature] <= threshold
    std::int32_t child[2] = {0, 0};
    std::int32_t feature = 0;
    std::int32_t label = -1;  ///< class id of a leaf, -1 for internal nodes
  };

  std::size_t tree_count() const noexcept { return roots_.size(); }
  std::size_t node_count() const noexcept { return nodes_.size(); }

  void clear() noexcept;
  void reserve(std::size_t nodes, std::size_t trees);
  /// Starts a new tree rooted at the next node pushed.
  void begin_tree();
  /// Appends a leaf predicting `label` and returns its id.
  std::int32_t push_leaf(int label);
  /// Turns node `id` into a split on `feature` at `threshold`.
  void set_split(std::int32_t id, int feature, double threshold,
                 std::int32_t left, std::int32_t right);
  /// Appends every tree of `other`, rebasing its links and roots.
  void append(const TreeArena& other);

  /// Majority vote of every tree over `row`. Throws "row width mismatch"
  /// when `row` is narrower than the widest feature any split reads.
  int predict(std::span<const double> row) const;
  /// `predict` for every row, parallel over fixed-size row chunks so the
  /// result (and the shard structure) is identical at any pool width.
  std::vector<int> predict_all(const Dataset& data) const;

 private:
  /// Adds one vote per row of `x[0..rows)` for every tree into
  /// `votes[row * num_classes_ + label]`.
  void vote(const double* const* x, std::size_t rows,
            std::uint32_t* votes) const;
  int majority(const std::uint32_t* votes) const;

  std::vector<Node> nodes_;
  std::vector<std::int32_t> roots_;
  std::size_t min_width_ = 0;    ///< 1 + the largest split feature
  std::size_t num_classes_ = 0;  ///< 1 + the largest label pushed
};

class DecisionTree final : public Classifier {
 public:
  explicit DecisionTree(TreeOptions options = {}, std::uint64_t seed = 1);

  /// Throws `InvalidArgument` for an empty dataset or a NaN feature value
  /// (±inf are ordinary values).
  void fit(const Dataset& data) override;
  int predict(std::span<const double> row) const override;
  std::vector<int> predict_all(const Dataset& data) const override;
  std::string name() const override { return "decision-tree"; }

  /// Fits on `view` restricted to the rows listed in `sample` (duplicates
  /// allowed — a bootstrap draw is just a multiset of row ids). This is the
  /// random forest's path: no per-tree copy of the dataset, and `view`'s
  /// shared `sort_index` replaces the per-tree argsort with a linear
  /// counting pass. Equivalent to `fit` on the materialized sample. Throws
  /// `InvalidArgument` for an empty sample, an out-of-range row id, or a
  /// view with features but no `ensure_sort_index()`.
  void fit_view(const DatasetView& view, std::span<const std::size_t> sample);

  std::size_t node_count() const noexcept { return arena_.node_count(); }
  int depth() const noexcept { return depth_; }
  /// The fitted tree as a one-tree arena (a forest appends it to its own).
  const TreeArena& arena() const noexcept { return arena_; }

 private:
  friend class PresortedBuilder;

  TreeOptions options_;
  Rng rng_;
  TreeArena arena_;
  int depth_ = 0;
};

}  // namespace pmiot::ml
