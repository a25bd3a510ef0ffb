#include "ml/random_forest.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"

namespace pmiot::ml {

RandomForest::RandomForest(ForestOptions options, std::uint64_t seed)
    : options_(options), rng_(seed) {
  PMIOT_CHECK(options.num_trees >= 1, "need at least one tree");
}

void RandomForest::fit(const Dataset& data) {
  static obs::Timer& fit_timer =
      obs::MetricsRegistry::instance().timer("ml.forest.fit");
  obs::ScopedTimer span(fit_timer);
  data.validate();
  PMIOT_CHECK(!data.rows.empty(), "cannot fit on empty dataset");
  arena_.clear();

  TreeOptions tree_options = options_.tree;
  if (tree_options.max_features == 0) {
    tree_options.max_features = static_cast<std::size_t>(
        std::max(1.0, std::round(std::sqrt(static_cast<double>(data.width())))));
  }

  // Draw every tree's bootstrap rows (with replacement, training-set size)
  // and its seed up front, in the exact RNG order of the old sequential
  // fit: n index draws, then the seed, per tree. Tree t then depends only
  // on (samples[t], seeds[t]), never on scheduling.
  const std::size_t n = data.size();
  const auto num_trees = static_cast<std::size_t>(options_.num_trees);
  std::vector<std::vector<std::size_t>> samples(num_trees);
  std::vector<std::uint64_t> seeds(num_trees);
  for (std::size_t t = 0; t < num_trees; ++t) {
    samples[t].resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      samples[t][i] = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    }
    seeds[t] = rng_.next();
  }

  // One columnar view (and one per-feature argsort) shared read-only by
  // every tree; a bootstrap is an index vector into it, not a row copy.
  DatasetView view(data);
  view.ensure_sort_index();

  std::vector<DecisionTree> trees(num_trees, DecisionTree(tree_options, 0));
  par::parallel_for(0, num_trees, [&](std::size_t t) {
    DecisionTree tree(tree_options, seeds[t]);
    tree.fit_view(view, samples[t]);
    trees[t] = std::move(tree);
  });

  // Concatenate the trees into the forest's arena in slot order, releasing
  // each tree's own nodes as soon as they are copied.
  std::size_t total_nodes = 0;
  for (const auto& tree : trees) total_nodes += tree.node_count();
  arena_.reserve(total_nodes, num_trees);
  for (auto& tree : trees) {
    arena_.append(tree.arena());
    tree = DecisionTree(tree_options, 0);
  }
}

int RandomForest::predict(std::span<const double> row) const {
  return arena_.predict(row);
}

std::vector<int> RandomForest::predict_all(const Dataset& data) const {
  return arena_.predict_all(data);
}

std::string RandomForest::name() const {
  return "random-forest(n=" + std::to_string(options_.num_trees) + ")";
}

}  // namespace pmiot::ml
