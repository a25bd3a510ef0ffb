// Tests for the columnar ML training kernels: randomized presorted-vs-naive
// tree equivalence (including degenerate corners), forest determinism across
// pool widths, batch-vs-per-row prediction identity (including the forest
// arena's blocked kernel over NaN/±inf rows and every remainder), split
// thresholds between adjacent doubles, kNN tie-breaking with duplicated
// training points, and the kmeans 1-D fast path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "ml/kmeans.h"
#include "ml/knn.h"
#include "ml/random_forest.h"
#include "support/tree_oracle.h"

namespace pmiot::ml {
namespace {

/// Gaussian class clusters: the first half of the features carry the class
/// signal, the rest are noise.
Dataset random_clusters(std::size_t n, std::size_t d, int classes, Rng& rng) {
  std::vector<std::vector<double>> centroids(static_cast<std::size_t>(classes),
                                             std::vector<double>(d, 0.0));
  for (auto& c : centroids) {
    for (std::size_t f = 0; f < d / 2 + 1; ++f) {
      c[f] = rng.uniform(-2.0, 2.0);
    }
  }
  Dataset data;
  for (std::size_t i = 0; i < n; ++i) {
    const auto cls = static_cast<std::size_t>(
        rng.uniform_int(0, classes - 1));
    std::vector<double> row(d);
    for (std::size_t f = 0; f < d; ++f) {
      row[f] = centroids[cls][f] + rng.normal(0.0, 1.0);
    }
    data.append(std::move(row), static_cast<int>(cls));
  }
  return data;
}

std::vector<int> per_row_predictions(const Classifier& model,
                                     const Dataset& data) {
  std::vector<int> out;
  out.reserve(data.size());
  for (const auto& row : data.rows) out.push_back(model.predict(row));
  return out;
}

/// Fits the presorted tree and the per-node-sort reference from identical
/// options/seed and requires identical structure and identical predictions
/// on train + probe.
void expect_split_algorithms_equivalent(const Dataset& train,
                                        const Dataset& probe,
                                        TreeOptions options,
                                        std::uint64_t seed) {
  DecisionTree fast(options, seed);
  fast.fit(train);
  oracle::PerNodeSortTree naive(options, seed);
  naive.fit(train);

  EXPECT_EQ(fast.node_count(), naive.node_count());
  EXPECT_EQ(fast.depth(), naive.depth());
  EXPECT_EQ(per_row_predictions(fast, train), per_row_predictions(naive, train));
  EXPECT_EQ(per_row_predictions(fast, probe), per_row_predictions(naive, probe));
}

// --- Presorted tree vs per-node-sort reference -------------------------------

TEST(PresortedTree, MatchesPerNodeSortAcrossRandomizedConfigs) {
  Rng rng(101);
  std::uint64_t seed = 1;
  for (int round = 0; round < 3; ++round) {
    const Dataset train = random_clusters(400, 8, 4, rng);
    const Dataset probe = random_clusters(150, 8, 4, rng);
    for (int max_depth : {3, 6, 12}) {
      for (std::size_t min_samples : {std::size_t{2}, std::size_t{25}}) {
        for (std::size_t max_features : {std::size_t{0}, std::size_t{2}}) {
          expect_split_algorithms_equivalent(
              train, probe,
              TreeOptions{.max_depth = max_depth,
                          .min_samples = min_samples,
                          .max_features = max_features},
              seed++);
        }
      }
    }
  }
}

TEST(PresortedTree, ConstantFeatureCorner) {
  Rng rng(202);
  Dataset train = random_clusters(300, 6, 3, rng);
  for (auto& row : train.rows) row[2] = 1.5;  // never splittable
  Dataset probe = random_clusters(100, 6, 3, rng);
  for (auto& row : probe.rows) row[2] = 1.5;
  expect_split_algorithms_equivalent(train, probe, TreeOptions{}, 7);
}

TEST(PresortedTree, AllLabelsEqualCorner) {
  Rng rng(303);
  Dataset train = random_clusters(200, 5, 3, rng);
  for (auto& label : train.labels) label = 2;  // pure root -> single leaf
  const Dataset probe = random_clusters(50, 5, 3, rng);
  expect_split_algorithms_equivalent(train, probe, TreeOptions{}, 7);
  DecisionTree tree(TreeOptions{}, 7);
  tree.fit(train);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.predict(probe.rows.front()), 2);
}

TEST(PresortedTree, DuplicatedValuesCorner) {
  // Quantized features produce long equal-value runs, exercising the
  // boundary-skip and the stability of the partition under ties.
  Rng rng(404);
  Dataset train;
  for (int i = 0; i < 500; ++i) {
    std::vector<double> row(4);
    for (auto& x : row) x = static_cast<double>(rng.uniform_int(0, 3));
    train.append(std::move(row), static_cast<int>(rng.uniform_int(0, 2)));
  }
  const Dataset probe = random_clusters(100, 4, 3, rng);
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    expect_split_algorithms_equivalent(train, probe, TreeOptions{}, seed);
    expect_split_algorithms_equivalent(
        train, probe, TreeOptions{.max_depth = 4, .max_features = 2}, seed);
  }
}

// --- Forest determinism ------------------------------------------------------

TEST(RandomForest, BitwiseIdenticalAcrossPoolWidths) {
  Rng rng(505);
  const Dataset train = random_clusters(400, 6, 3, rng);
  const Dataset probe = random_clusters(200, 6, 3, rng);
  const ForestOptions options{.num_trees = 12, .tree = TreeOptions{}};

  // Emulates PMIOT_THREADS in {1, 4, unset} inside one binary: fit the same
  // seeded forest under each pool width and require identical predictions.
  auto fit_and_predict = [&](par::ThreadPool* pool) {
    RandomForest forest(options, 99);
    if (pool == nullptr) {
      forest.fit(train);
      return forest.predict_all(probe);
    }
    par::ScopedPoolOverride guard(*pool);
    forest.fit(train);
    return forest.predict_all(probe);
  };

  par::ThreadPool serial(1);
  par::ThreadPool wide(4);
  const auto at_default = fit_and_predict(nullptr);
  const auto at_one = fit_and_predict(&serial);
  const auto at_four = fit_and_predict(&wide);
  EXPECT_EQ(at_default, at_one);
  EXPECT_EQ(at_default, at_four);
}

TEST(RandomForest, PresortedMatchesPerNodeSortForest) {
  Rng rng(606);
  const Dataset train = random_clusters(350, 6, 3, rng);
  const Dataset probe = random_clusters(150, 6, 3, rng);

  const ForestOptions options{.num_trees = 8, .tree = TreeOptions{}};
  RandomForest fast(options, 42);
  fast.fit(train);
  oracle::PerNodeSortForest naive(options, 42);
  naive.fit(train);

  EXPECT_EQ(fast.predict_all(probe), naive.predict_all(probe));
  EXPECT_EQ(fast.predict_all(train), naive.predict_all(train));
}

// --- Batch prediction identity -----------------------------------------------

TEST(Classifier, PredictAllMatchesPerRowAtEveryPoolWidth) {
  Rng rng(707);
  const Dataset train = random_clusters(300, 5, 4, rng);
  const Dataset probe = random_clusters(120, 5, 4, rng);

  DecisionTree tree(TreeOptions{}, 3);
  tree.fit(train);
  RandomForest forest(ForestOptions{.num_trees = 6, .tree = TreeOptions{}}, 3);
  forest.fit(train);

  for (const Classifier* model :
       {static_cast<const Classifier*>(&tree),
        static_cast<const Classifier*>(&forest)}) {
    const auto expected = per_row_predictions(*model, probe);
    EXPECT_EQ(model->predict_all(probe), expected);
    par::ThreadPool serial(1);
    {
      par::ScopedPoolOverride guard(serial);
      EXPECT_EQ(model->predict_all(probe), expected);
    }
    par::ThreadPool wide(4);
    {
      par::ScopedPoolOverride guard(wide);
      EXPECT_EQ(model->predict_all(probe), expected);
    }
  }
}

// --- Forest inference kernel -------------------------------------------------
//
// `predict_all` pushes blocks of 16 rows down each tree and shards the rows
// in chunks of 64; per-row `predict` is the reference it must equal.

/// Plants NaN, +inf and -inf in every third row, so the kernel's
/// `!(x <= threshold)` step meets values that compare false or sit beyond
/// every threshold.
void plant_non_finite(Dataset& data, Rng& rng) {
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};
  const auto width = static_cast<std::int64_t>(data.width());
  for (std::size_t i = 0; i < data.size(); i += 3) {
    const auto f = static_cast<std::size_t>(rng.uniform_int(0, width - 1));
    data.rows[i][f] = specials[(i / 3) % 3];
  }
}

Dataset head(const Dataset& data, std::size_t n) {
  Dataset out;
  for (std::size_t i = 0; i < n; ++i) out.append(data.rows[i], data.labels[i]);
  return out;
}

TEST(Ml, ForestPredictAllMatchesPerRowAcrossShapes) {
  struct Shape {
    std::size_t width;
    int classes;
    int trees;
    int max_depth;
  };
  // Widths 1..9, 2..20 classes, 1..100 trees, stumps to deep trees.
  const Shape shapes[] = {{1, 2, 1, 1},  {2, 3, 5, 3},   {3, 2, 100, 12},
                          {6, 5, 17, 8}, {9, 12, 9, 20}, {4, 20, 3, 6}};
  par::ThreadPool serial(1);
  par::ThreadPool wide(4);
  Rng rng(1111);
  std::uint64_t seed = 1;
  for (const Shape& shape : shapes) {
    const Dataset train =
        random_clusters(240, shape.width, shape.classes, rng);
    Dataset probe = random_clusters(2 * 64 + 2, shape.width, shape.classes,
                                    rng);
    plant_non_finite(probe, rng);
    RandomForest forest(
        ForestOptions{.num_trees = shape.trees,
                      .tree = TreeOptions{.max_depth = shape.max_depth}},
        seed++);
    forest.fit(train);
    const auto expected = per_row_predictions(forest, probe);
    // Every row count from 0 to 2 chunks + 1, so every block and chunk
    // remainder is hit.
    for (std::size_t n = 0; n < probe.size(); ++n) {
      const Dataset rows = head(probe, n);
      const std::vector<int> want(
          expected.begin(), expected.begin() + static_cast<std::ptrdiff_t>(n));
      for (par::ThreadPool* pool : {&serial, &wide}) {
        par::ScopedPoolOverride guard(*pool);
        ASSERT_EQ(forest.predict_all(rows), want)
            << "width " << shape.width << ", " << shape.trees
            << " trees, " << n << " rows, pool " << pool->size();
      }
    }
  }
}

TEST(Ml, CopiedAndMovedForestsPredictLikeTheOriginal) {
  Rng rng(1212);
  const Dataset train = random_clusters(300, 5, 4, rng);
  const Dataset other = random_clusters(200, 5, 3, rng);
  Dataset probe = random_clusters(150, 5, 4, rng);
  plant_non_finite(probe, rng);

  RandomForest forest(ForestOptions{.num_trees = 20, .tree = TreeOptions{}},
                      5);
  forest.fit(train);
  const auto expected = forest.predict_all(probe);
  EXPECT_EQ(per_row_predictions(forest, probe), expected);

  const RandomForest copy = forest;
  EXPECT_EQ(copy.predict_all(probe), expected);
  EXPECT_EQ(per_row_predictions(copy, probe), expected);
  RandomForest moved = std::move(forest);
  EXPECT_EQ(moved.predict_all(probe), expected);
  EXPECT_EQ(per_row_predictions(moved, probe), expected);

  // Assigning over a forest fitted on other data replaces its arena whole.
  RandomForest assigned(ForestOptions{.num_trees = 3, .tree = TreeOptions{}},
                        9);
  assigned.fit(other);
  assigned = copy;
  EXPECT_EQ(assigned.predict_all(probe), expected);
  EXPECT_EQ(assigned.tree_count(), 20u);

  // Refitting replaces the old trees (the forest's RNG carries on, so the
  // reference is a forest fitted the same two times).
  moved.fit(other);
  RandomForest twice(ForestOptions{.num_trees = 20, .tree = TreeOptions{}}, 5);
  twice.fit(train);
  twice.fit(other);
  EXPECT_EQ(moved.tree_count(), 20u);
  EXPECT_EQ(moved.predict_all(probe), per_row_predictions(twice, probe));
}

TEST(Ml, TooNarrowRowsAreRejected) {
  // Only the last feature carries the class, so every fitted tree splits
  // on it and needs rows at least three wide.
  Rng rng(1313);
  Dataset train;
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform(-1.0, 1.0);
    train.append({rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), x},
                 x > 0.0 ? 1 : 0);
  }
  DecisionTree tree(TreeOptions{}, 3);
  tree.fit(train);
  RandomForest forest(ForestOptions{.num_trees = 8, .tree = TreeOptions{}},
                      3);
  forest.fit(train);

  for (const std::size_t width : {std::size_t{0}, std::size_t{2}}) {
    const std::vector<double> narrow(width, 0.5);
    Dataset rows;
    rows.append(narrow, 0);
    for (const Classifier* model : {static_cast<const Classifier*>(&tree),
                                    static_cast<const Classifier*>(&forest)}) {
      for (const bool batch : {false, true}) {
        try {
          if (batch) {
            model->predict_all(rows);
          } else {
            model->predict(narrow);
          }
          ADD_FAILURE() << model->name() << " accepted a row of width "
                        << width;
        } catch (const InvalidArgument& e) {
          EXPECT_NE(std::string(e.what()).find("row width mismatch"),
                    std::string::npos)
              << e.what();
        }
      }
    }
  }
}

TEST(Ml, NonFiniteFeaturesFollowTheComparison) {
  // One split at 0.5: `x <= 0.5` goes left (class 0), anything else right.
  // NaN compares false, so it goes right, in both inference paths.
  Dataset train;
  for (int i = 0; i < 4; ++i) {
    train.append({0.0}, 0);
    train.append({1.0}, 1);
  }
  DecisionTree tree(TreeOptions{}, 1);
  tree.fit(train);
  RandomForest forest(ForestOptions{.num_trees = 3, .tree = TreeOptions{}},
                      1);
  forest.fit(train);
  Dataset probe;
  probe.append({std::numeric_limits<double>::quiet_NaN()}, 0);
  probe.append({std::numeric_limits<double>::infinity()}, 0);
  probe.append({-std::numeric_limits<double>::infinity()}, 0);
  const std::vector<int> expected{1, 1, 0};
  for (const Classifier* model : {static_cast<const Classifier*>(&tree),
                                  static_cast<const Classifier*>(&forest)}) {
    EXPECT_EQ(model->predict_all(probe), expected) << model->name();
    EXPECT_EQ(per_row_predictions(*model, probe), expected) << model->name();
  }
}

// --- Split thresholds --------------------------------------------------------

/// Two values one ulp apart (their midpoint rounds onto the upper one) or
/// so large that their sum overflows: the split must still separate them,
/// in both builders, instead of sending every sample left.
TEST(Ml, SplitThresholdSeparatesAdjacentAndHugeValues) {
  const double max = std::numeric_limits<double>::max();
  const std::pair<double, double> pairs[] = {
      {std::nextafter(336.0, 0.0), 336.0},
      {std::nextafter(1.0, 0.0), 1.0},
      {0.0, std::numeric_limits<double>::denorm_min()},
      {max / 2 * 1.5, max},
      {-max, -max / 2 * 1.5},
      {-std::numeric_limits<double>::infinity(), 0.0},
      {0.0, std::numeric_limits<double>::infinity()},
  };
  for (const auto& [lo, hi] : pairs) {
    Dataset data;
    for (int i = 0; i < 3; ++i) {
      data.append({lo}, 0);
      data.append({hi}, 1);
    }
    auto expect_separated = [&](auto tree) {
      ASSERT_NO_THROW(tree.fit(data)) << lo << " | " << hi;
      EXPECT_EQ(tree.node_count(), 3u) << lo << " | " << hi;
      EXPECT_EQ(tree.predict(std::vector<double>{lo}), 0) << lo;
      EXPECT_EQ(tree.predict(std::vector<double>{hi}), 1) << hi;
    };
    expect_separated(DecisionTree(TreeOptions{}, 1));
    expect_separated(oracle::PerNodeSortTree(TreeOptions{}, 1));
    RandomForest forest(ForestOptions{.num_trees = 5, .tree = TreeOptions{}},
                        2);
    ASSERT_NO_THROW(forest.fit(data)) << lo << " | " << hi;
  }
}

// --- Non-finite features at fit ----------------------------------------------

/// NaN has no place in the sort that orders a feature, so every tree fit,
/// the per-node-sort reference included, rejects it up front instead of
/// sorting it (undefined behaviour) into a degenerate split. ±inf are
/// ordinary values (SplitThresholdSeparatesAdjacentAndHugeValues).
TEST(Ml, NanFeaturesAreRejectedAtFit) {
  Rng rng(808);
  const Dataset clean = random_clusters(120, 4, 3, rng);
  for (const std::size_t row : {std::size_t{0}, std::size_t{57}}) {
    Dataset data = clean;
    data.rows[row][2] = std::numeric_limits<double>::quiet_NaN();
    DecisionTree tree(TreeOptions{}, 1);
    EXPECT_THROW(tree.fit(data), InvalidArgument) << "row " << row;
    RandomForest forest(ForestOptions{.num_trees = 4, .tree = TreeOptions{}},
                        2);
    EXPECT_THROW(forest.fit(data), InvalidArgument) << "row " << row;
    oracle::PerNodeSortTree reference(TreeOptions{}, 1);
    EXPECT_THROW(reference.fit(data), InvalidArgument) << "row " << row;
    oracle::PerNodeSortForest reference_forest(
        ForestOptions{.num_trees = 4, .tree = TreeOptions{}}, 2);
    EXPECT_THROW(reference_forest.fit(data), InvalidArgument) << "row " << row;
  }
  // The same data without the NaN fits, so the NaN is what is rejected.
  DecisionTree tree(TreeOptions{}, 1);
  EXPECT_NO_THROW(tree.fit(clean));
}

TEST(Ml, FitViewNeedsTheSortIndex) {
  Rng rng(909);
  const Dataset data = random_clusters(50, 3, 2, rng);
  const std::vector<std::size_t> sample{0, 1, 1, 7, 49};
  DatasetView view(data);
  DecisionTree tree(TreeOptions{}, 1);
  EXPECT_THROW(tree.fit_view(view, sample), InvalidArgument);
  view.ensure_sort_index();
  EXPECT_NO_THROW(tree.fit_view(view, sample));

  // A view without features has nothing to sort: it fits one leaf.
  Dataset featureless;
  featureless.append({}, 1);
  featureless.append({}, 1);
  const DatasetView empty_view(featureless);
  const std::vector<std::size_t> both{0, 1};
  ASSERT_NO_THROW(tree.fit_view(empty_view, both));
  EXPECT_EQ(tree.node_count(), 1u);
}

// --- kNN tie-breaking --------------------------------------------------------

TEST(Knn, EqualDistanceNeighboursOrderedByTrainingRow) {
  // Three exact copies of the same point with conflicting labels: every
  // distance ties, so the neighbour set is decided purely by row order.
  Dataset train;
  train.append({0.0, 0.0}, 0);  // row 0
  train.append({0.0, 0.0}, 1);  // row 1
  train.append({0.0, 0.0}, 1);  // row 2
  train.append({5.0, 5.0}, 1);

  const std::vector<double> query{0.0, 0.0};

  KnnClassifier k1(1);
  k1.fit(train);
  EXPECT_EQ(k1.predict(query), 0);  // row 0 wins the tie

  KnnClassifier k2(2);
  k2.fit(train);
  // Rows 0 and 1: one vote each, class tie broken by the nearest
  // neighbour, which is row 0.
  EXPECT_EQ(k2.predict(query), 0);

  KnnClassifier k3(3);
  k3.fit(train);
  EXPECT_EQ(k3.predict(query), 1);  // rows 0,1,2 vote 0,1,1

  Dataset probe;
  probe.append(query, 0);
  EXPECT_EQ(k1.predict_all(probe), std::vector<int>{0});
  EXPECT_EQ(k2.predict_all(probe), std::vector<int>{0});
  EXPECT_EQ(k3.predict_all(probe), std::vector<int>{1});
}

TEST(Knn, BatchMatchesPerRowWithDuplicatedTrainingPoints) {
  Rng rng(808);
  Dataset train = random_clusters(150, 4, 3, rng);
  // Duplicate every point with a rotated label so equal-distance ties at
  // the k-boundary are common and label-relevant.
  const std::size_t original = train.size();
  for (std::size_t i = 0; i < original; ++i) {
    train.append(train.rows[i], (train.labels[i] + 1) % 3);
  }
  Dataset probe = random_clusters(60, 4, 3, rng);
  // Also query exactly on training points.
  for (std::size_t i = 0; i < 40; ++i) {
    probe.append(train.rows[i * 3], 0);
  }

  for (int k : {1, 2, 5}) {
    KnnClassifier knn(k);
    knn.fit(train);
    EXPECT_EQ(knn.predict_all(probe), per_row_predictions(knn, probe));
  }
}

// --- kmeans 1-D fast path ----------------------------------------------------

TEST(KMeans, OneDFastPathMatchesGeneralKernel) {
  Rng data_rng(909);
  std::vector<double> xs;
  for (int i = 0; i < 200; ++i) xs.push_back(data_rng.normal(0.0, 1.0));
  for (int i = 0; i < 100; ++i) xs.push_back(data_rng.normal(6.0, 0.5));
  for (int i = 0; i < 50; ++i) xs.push_back(3.0);  // duplicates

  std::vector<std::vector<double>> rows;
  rows.reserve(xs.size());
  for (double x : xs) rows.push_back({x});

  for (int k : {1, 2, 3, 5}) {
    Rng rng_full(1234);
    Rng rng_fast(1234);
    const KMeansResult full = kmeans(rows, k, rng_full);
    const KMeansResult fast = kmeans1d(xs, k, rng_fast);
    EXPECT_EQ(fast.centroids, full.centroids) << "k=" << k;
    EXPECT_EQ(fast.assignment, full.assignment) << "k=" << k;
    EXPECT_EQ(fast.inertia, full.inertia) << "k=" << k;
    EXPECT_EQ(fast.iterations, full.iterations) << "k=" << k;
  }
}

}  // namespace
}  // namespace pmiot::ml
