// Random forest: bootstrap-aggregated decision trees with random feature
// subsets per split. The strongest of the fingerprinting models in §IV.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ml/decision_tree.h"

namespace pmiot::ml {

struct ForestOptions {
  int num_trees = 25;
  TreeOptions tree;  ///< tree.max_features 0 -> sqrt(width) at fit time
};

/// Fit strategy: every tree's bootstrap rows and seed are drawn up front in
/// the sequential order the seed implementation used, after which tree t
/// depends only on (sample[t], seed[t]). The trees then train in parallel
/// over `pmiot::par`'s shared pool against one shared columnar
/// `DatasetView` (bootstrap = index vector, not a row copy), each writing
/// only slot t — so the fitted forest is bitwise identical at any
/// `PMIOT_THREADS`, and bitwise identical to the old serial fit. The fitted
/// trees are then concatenated, in slot order, into the forest's one
/// `TreeArena`; no per-tree node storage outlives `fit`.

class RandomForest final : public Classifier {
 public:
  explicit RandomForest(ForestOptions options = {}, std::uint64_t seed = 7);

  void fit(const Dataset& data) override;
  int predict(std::span<const double> row) const override;
  /// The arena's row-blocked, tree-major kernel; equal to per-row `predict`.
  std::vector<int> predict_all(const Dataset& data) const override;
  std::string name() const override;

  std::size_t tree_count() const noexcept { return arena_.tree_count(); }

 private:
  ForestOptions options_;
  Rng rng_;
  TreeArena arena_;  ///< every fitted tree, in slot order
};

}  // namespace pmiot::ml
