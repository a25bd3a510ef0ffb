#include "support/tree_oracle.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.h"

namespace pmiot::oracle {
namespace {

/// Gini impurity of `counts` over `total` samples; zero counts add exactly
/// nothing, as in the production builder.
double gini(const std::vector<std::size_t>& counts, std::size_t total) {
  double g = 1.0;
  for (auto c : counts) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / static_cast<double>(total);
    g -= p * p;
  }
  return g;
}

int majority(const std::vector<std::size_t>& counts) {
  return static_cast<int>(std::max_element(counts.begin(), counts.end()) -
                          counts.begin());
}

/// The midpoint of adjacent distinct sorted values a < b, or `a` when the
/// midpoint is not in [a, b) (one ulp apart, or a + b overflowing).
double split_threshold(double a, double b) {
  const double mid = 0.5 * (a + b);
  return mid >= a && mid < b ? mid : a;
}

void check_no_nan(const ml::Dataset& data) {
  for (const auto& row : data.rows) {
    PMIOT_CHECK(std::none_of(row.begin(), row.end(),
                             [](double v) { return std::isnan(v); }),
                "tree fits need features without NaN (±inf are allowed)");
  }
}

}  // namespace

PerNodeSortTree::PerNodeSortTree(ml::TreeOptions options, std::uint64_t seed)
    : options_(options), rng_(seed) {
  PMIOT_CHECK(options.max_depth >= 1, "max_depth must be at least 1");
  PMIOT_CHECK(options.min_samples >= 1, "min_samples must be at least 1");
}

void PerNodeSortTree::fit(const ml::Dataset& data) {
  data.validate();
  PMIOT_CHECK(!data.rows.empty(), "cannot fit on empty dataset");
  check_no_nan(data);
  arena_.clear();
  arena_.begin_tree();
  depth_ = 0;
  std::vector<std::size_t> indices(data.size());
  std::iota(indices.begin(), indices.end(), 0);
  build(data, indices, 0);
}

std::int32_t PerNodeSortTree::build(const ml::Dataset& data,
                                    std::vector<std::size_t>& indices,
                                    int depth) {
  depth_ = std::max(depth_, depth);
  const auto k = static_cast<std::size_t>(data.num_classes());
  std::vector<std::size_t> counts(k, 0);
  for (auto i : indices) ++counts[static_cast<std::size_t>(data.labels[i])];
  const int node_label = majority(counts);
  const double node_gini = gini(counts, indices.size());

  const std::int32_t node_id = arena_.push_leaf(node_label);

  if (depth >= options_.max_depth || indices.size() < options_.min_samples ||
      node_gini == 0.0) {
    return node_id;
  }

  // Candidate features (all, or a random subset for forests).
  const std::size_t width = data.width();
  std::vector<std::size_t> features(width);
  std::iota(features.begin(), features.end(), 0);
  if (options_.max_features > 0 && options_.max_features < width) {
    rng_.shuffle(features);
    features.resize(options_.max_features);
  }

  // Best split search: sort indices by each candidate feature and scan.
  double best_score = node_gini;
  int best_feature = -1;
  double best_threshold = 0.0;
  std::vector<std::size_t> sorted = indices;
  for (auto f : features) {
    std::sort(sorted.begin(), sorted.end(), [&](std::size_t a, std::size_t b) {
      return data.rows[a][f] < data.rows[b][f];
    });
    std::vector<std::size_t> left_counts(k, 0);
    std::vector<std::size_t> right_counts = counts;
    for (std::size_t pos = 0; pos + 1 < sorted.size(); ++pos) {
      const auto lbl = static_cast<std::size_t>(data.labels[sorted[pos]]);
      ++left_counts[lbl];
      --right_counts[lbl];
      const double x = data.rows[sorted[pos]][f];
      const double x_next = data.rows[sorted[pos + 1]][f];
      if (x == x_next) continue;  // cannot split between equal values
      const auto n_left = pos + 1;
      const auto n_right = sorted.size() - n_left;
      const double score =
          (static_cast<double>(n_left) * gini(left_counts, n_left) +
           static_cast<double>(n_right) * gini(right_counts, n_right)) /
          static_cast<double>(sorted.size());
      if (score + 1e-12 < best_score) {
        best_score = score;
        best_feature = static_cast<int>(f);
        best_threshold = split_threshold(x, x_next);
      }
    }
  }

  if (best_feature < 0) return node_id;  // no impurity-reducing split found

  std::vector<std::size_t> left_idx, right_idx;
  for (auto i : indices) {
    if (data.rows[i][static_cast<std::size_t>(best_feature)] <= best_threshold)
      left_idx.push_back(i);
    else
      right_idx.push_back(i);
  }
  PMIOT_ASSERT(!left_idx.empty() && !right_idx.empty(),
               "degenerate split selected");

  const std::int32_t left = build(data, left_idx, depth + 1);
  const std::int32_t right = build(data, right_idx, depth + 1);
  arena_.set_split(node_id, best_feature, best_threshold, left, right);
  return node_id;
}

PerNodeSortForest::PerNodeSortForest(ml::ForestOptions options,
                                     std::uint64_t seed)
    : options_(options), rng_(seed) {
  PMIOT_CHECK(options.num_trees >= 1, "need at least one tree");
}

void PerNodeSortForest::fit(const ml::Dataset& data) {
  data.validate();
  PMIOT_CHECK(!data.rows.empty(), "cannot fit on empty dataset");
  check_no_nan(data);
  arena_.clear();

  ml::TreeOptions tree_options = options_.tree;
  if (tree_options.max_features == 0) {
    tree_options.max_features = static_cast<std::size_t>(
        std::max(1.0, std::round(std::sqrt(static_cast<double>(data.width())))));
  }
  const std::size_t n = data.size();
  for (int t = 0; t < options_.num_trees; ++t) {
    ml::Dataset sample;
    sample.rows.reserve(n);
    sample.labels.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto row = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      sample.rows.push_back(data.rows[row]);
      sample.labels.push_back(data.labels[row]);
    }
    PerNodeSortTree tree(tree_options, rng_.next());
    tree.fit(sample);
    arena_.append(tree.arena());
  }
}

}  // namespace pmiot::oracle
