// Reference tree and forest builders for the equivalence checks of the
// presorted builder in `ml::DecisionTree` (tests/ml_kernels_test.cpp and
// bench/ml_train).
//
// `PerNodeSortTree` is the seed implementation of CART induction: at every
// node it re-sorts each candidate feature and scans the boundaries. It
// shares the presorted builder's score arithmetic, first-wins tie-breaking,
// candidate-feature RNG draws and pre-order node layout, so both grow the
// same tree bit for bit. `PerNodeSortForest` repeats `ml::RandomForest::fit`'s
// bootstrap and seed draws serially over materialized bootstrap samples.
// Neither records any `obs` metric.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ml/classifier.h"
#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "ml/random_forest.h"

namespace pmiot::oracle {

/// One CART tree grown by re-sorting every candidate feature at every node.
class PerNodeSortTree final : public ml::Classifier {
 public:
  explicit PerNodeSortTree(ml::TreeOptions options = {},
                           std::uint64_t seed = 1);

  /// Throws `InvalidArgument` for an empty dataset or a NaN feature value,
  /// as `ml::DecisionTree::fit` does.
  void fit(const ml::Dataset& data) override;
  int predict(std::span<const double> row) const override {
    return arena_.predict(row);
  }
  std::vector<int> predict_all(const ml::Dataset& data) const override {
    return arena_.predict_all(data);
  }
  std::string name() const override { return "per-node-sort-tree"; }

  std::size_t node_count() const noexcept { return arena_.node_count(); }
  int depth() const noexcept { return depth_; }
  const ml::TreeArena& arena() const noexcept { return arena_; }

 private:
  std::int32_t build(const ml::Dataset& data,
                     std::vector<std::size_t>& indices, int depth);

  ml::TreeOptions options_;
  Rng rng_;
  ml::TreeArena arena_;
  int depth_ = 0;
};

/// A forest of `PerNodeSortTree`s with `ml::RandomForest`'s draws: one
/// `Rng(seed)` yields, per tree, n bootstrap row ids and then the tree's
/// seed; `tree.max_features` 0 becomes round(sqrt(width)). Trees are fitted
/// one after another on copies of their bootstrap rows and vote like the
/// forest (ties to the lowest class), so predictions match
/// `ml::RandomForest` with the same options and seed.
class PerNodeSortForest final : public ml::Classifier {
 public:
  explicit PerNodeSortForest(ml::ForestOptions options = {},
                             std::uint64_t seed = 7);

  /// Throws `InvalidArgument` for an empty dataset or a NaN feature value
  /// anywhere in `data`, drawn or not, as `ml::RandomForest::fit` does.
  void fit(const ml::Dataset& data) override;
  int predict(std::span<const double> row) const override {
    return arena_.predict(row);
  }
  std::vector<int> predict_all(const ml::Dataset& data) const override {
    return arena_.predict_all(data);
  }
  std::string name() const override { return "per-node-sort-forest"; }

  std::size_t tree_count() const noexcept { return arena_.tree_count(); }

 private:
  ml::ForestOptions options_;
  Rng rng_;
  ml::TreeArena arena_;
};

}  // namespace pmiot::oracle
