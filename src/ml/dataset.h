// Tabular datasets for the classical ML models in pmiot::ml.
//
// Features are dense row-major doubles; labels are small non-negative class
// ids. The helpers cover the plumbing the paper's evaluations need: shuffled
// train/test splits, k-fold cross-validation indices, and z-score scaling.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"

namespace pmiot::ml {

/// A labelled dataset. Invariant (checked by `validate`): all rows have the
/// same width and `labels.size() == rows.size()`.
struct Dataset {
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;

  std::size_t size() const noexcept { return rows.size(); }
  std::size_t width() const { return rows.empty() ? 0 : rows.front().size(); }

  /// Throws InvalidArgument if the invariant does not hold or labels are
  /// negative.
  void validate() const;

  /// Number of distinct classes assuming ids 0..max. Requires non-empty.
  int num_classes() const;

  void append(std::vector<double> row, int label);
};

/// Result of `train_test_split`.
struct Split {
  Dataset train;
  Dataset test;
};

/// Shuffles and splits with `test_fraction` in (0,1) of rows held out.
/// Requires at least 2 rows.
Split train_test_split(const Dataset& data, double test_fraction, Rng& rng);

/// Index folds for k-fold cross-validation (shuffled, near-equal sizes).
/// Requires 2 <= k <= data.size().
std::vector<std::vector<std::size_t>> kfold_indices(std::size_t n, int k,
                                                    Rng& rng);

/// Selects the rows at `indices` into a new dataset.
Dataset take(const Dataset& data, std::span<const std::size_t> indices);

/// Flat column-major snapshot of a `Dataset`, the layout the training
/// kernels want: each feature is one contiguous array, so split scans and
/// distance kernels stream memory instead of chasing `vector<vector>`
/// pointers. Optionally carries a per-feature argsort (`sort_index`)
/// computed **once**, which the presorted tree builder reuses for every
/// tree of a forest instead of re-sorting at every node.
class DatasetView {
 public:
  /// Copies `data` (validated, non-empty) into columnar storage.
  explicit DatasetView(const Dataset& data);

  std::size_t rows() const noexcept { return n_; }
  std::size_t width() const noexcept { return d_; }
  int num_classes() const noexcept { return num_classes_; }

  /// Feature `f` as one contiguous array of `rows()` values.
  std::span<const double> column(std::size_t f) const {
    return {columns_.data() + f * n_, n_};
  }
  std::span<const int> labels() const noexcept { return labels_; }
  int label(std::size_t i) const { return labels_[i]; }

  /// Computes (idempotently) the per-feature stable argsort: row ids of
  /// `column(f)` in ascending value order, equal values in row order. Also
  /// materializes the values and labels in that order (`sorted_values`,
  /// `sorted_labels`), so per-tree bootstrap derivation streams them
  /// sequentially instead of gathering through the row ids. Throws
  /// `InvalidArgument` if any feature value is NaN, which has no place in
  /// the order; ±inf sort like any other value.
  void ensure_sort_index();
  bool has_sort_index() const noexcept { return !sort_index_.empty(); }

  /// Row ids of feature `f` sorted ascending by value. Requires
  /// `ensure_sort_index()`.
  std::span<const std::uint32_t> sort_index(std::size_t f) const {
    return {sort_index_.data() + f * n_, n_};
  }
  /// `column(f)` values in `sort_index(f)` order. Requires
  /// `ensure_sort_index()`.
  std::span<const double> sorted_values(std::size_t f) const {
    return {sorted_values_.data() + f * n_, n_};
  }
  /// Labels in `sort_index(f)` order. Requires `ensure_sort_index()`.
  std::span<const int> sorted_labels(std::size_t f) const {
    return {sorted_labels_.data() + f * n_, n_};
  }

 private:
  std::size_t n_ = 0;
  std::size_t d_ = 0;
  int num_classes_ = 0;
  std::vector<double> columns_;  // [f * n_ + i]
  std::vector<int> labels_;
  std::vector<std::uint32_t> sort_index_;  // [f * n_ + rank] -> row id
  std::vector<double> sorted_values_;      // [f * n_ + rank]
  std::vector<int> sorted_labels_;         // [f * n_ + rank]
};

/// Z-score feature scaler fit on training data and applied to any rows.
class StandardScaler {
 public:
  /// Learns per-column mean and stddev. Requires a non-empty dataset.
  void fit(const Dataset& data);

  /// Returns (x - mean) / stddev per column (stddev 0 columns pass through
  /// centered). Requires fit() and matching width.
  std::vector<double> transform(std::span<const double> row) const;

  /// Applies `transform` to every row in place.
  void transform_in_place(Dataset& data) const;

  bool fitted() const noexcept { return !mean_.empty(); }

 private:
  std::vector<double> mean_;
  std::vector<double> stddev_;
};

}  // namespace pmiot::ml
