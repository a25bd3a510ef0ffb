#include "ml/dataset.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/error.h"

namespace pmiot::ml {

void Dataset::validate() const {
  PMIOT_CHECK(rows.size() == labels.size(), "rows/labels size mismatch");
  const std::size_t w = width();
  for (const auto& row : rows) {
    PMIOT_CHECK(row.size() == w, "ragged feature rows");
  }
  for (int label : labels) {
    PMIOT_CHECK(label >= 0, "labels must be non-negative class ids");
  }
}

int Dataset::num_classes() const {
  PMIOT_CHECK(!labels.empty(), "num_classes of empty dataset");
  return *std::max_element(labels.begin(), labels.end()) + 1;
}

void Dataset::append(std::vector<double> row, int label) {
  if (!rows.empty()) {
    PMIOT_CHECK(row.size() == width(), "row width mismatch");
  }
  PMIOT_CHECK(label >= 0, "label must be non-negative");
  rows.push_back(std::move(row));
  labels.push_back(label);
}

Split train_test_split(const Dataset& data, double test_fraction, Rng& rng) {
  data.validate();
  PMIOT_CHECK(data.size() >= 2, "need at least two rows to split");
  PMIOT_CHECK(test_fraction > 0.0 && test_fraction < 1.0,
              "test_fraction must be in (0,1)");
  std::vector<std::size_t> idx(data.size());
  std::iota(idx.begin(), idx.end(), 0);
  rng.shuffle(idx);
  auto n_test = static_cast<std::size_t>(
      std::round(test_fraction * static_cast<double>(data.size())));
  n_test = std::clamp<std::size_t>(n_test, 1, data.size() - 1);
  Split split;
  for (std::size_t i = 0; i < idx.size(); ++i) {
    const auto& row = data.rows[idx[i]];
    const int label = data.labels[idx[i]];
    if (i < n_test)
      split.test.append(row, label);
    else
      split.train.append(row, label);
  }
  return split;
}

std::vector<std::vector<std::size_t>> kfold_indices(std::size_t n, int k,
                                                    Rng& rng) {
  PMIOT_CHECK(k >= 2, "k must be at least 2");
  PMIOT_CHECK(static_cast<std::size_t>(k) <= n, "k larger than dataset");
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  rng.shuffle(idx);
  std::vector<std::vector<std::size_t>> folds(static_cast<std::size_t>(k));
  for (std::size_t i = 0; i < n; ++i) {
    folds[i % static_cast<std::size_t>(k)].push_back(idx[i]);
  }
  return folds;
}

Dataset take(const Dataset& data, std::span<const std::size_t> indices) {
  Dataset out;
  for (auto i : indices) {
    PMIOT_CHECK(i < data.size(), "index out of range");
    out.append(data.rows[i], data.labels[i]);
  }
  return out;
}

DatasetView::DatasetView(const Dataset& data) {
  data.validate();
  PMIOT_CHECK(!data.rows.empty(), "cannot view an empty dataset");
  n_ = data.size();
  d_ = data.width();
  PMIOT_CHECK(n_ <= 0xffffffffULL, "dataset too large for 32-bit row ids");
  num_classes_ = data.num_classes();
  labels_ = data.labels;
  columns_.resize(d_ * n_);
  for (std::size_t i = 0; i < n_; ++i) {
    const auto& row = data.rows[i];
    for (std::size_t f = 0; f < d_; ++f) columns_[f * n_ + i] = row[f];
  }
}

void DatasetView::ensure_sort_index() {
  if (has_sort_index() || d_ == 0) return;
  // NaN has no place in a strict weak ordering, so sorting it would be
  // undefined behaviour (and the builder would then pick splits that send
  // every row one way). Reject it before anything is sorted or resized.
  PMIOT_CHECK(std::none_of(columns_.begin(), columns_.end(),
                           [](double v) { return std::isnan(v); }),
              "tree fits need features without NaN (±inf are allowed)");
  sort_index_.resize(d_ * n_);
  sorted_values_.resize(d_ * n_);
  sorted_labels_.resize(d_ * n_);
  // Sort (value, row) pairs rather than bare row ids so the comparator reads
  // contiguous memory instead of gathering through the index.
  std::vector<std::pair<double, std::uint32_t>> keyed(n_);
  for (std::size_t f = 0; f < d_; ++f) {
    const double* col = columns_.data() + f * n_;
    for (std::size_t i = 0; i < n_; ++i) {
      keyed[i] = {col[i], static_cast<std::uint32_t>(i)};
    }
    std::sort(keyed.begin(), keyed.end());
    std::uint32_t* idx = sort_index_.data() + f * n_;
    double* vals = sorted_values_.data() + f * n_;
    int* labs = sorted_labels_.data() + f * n_;
    for (std::size_t i = 0; i < n_; ++i) {
      idx[i] = keyed[i].second;
      vals[i] = keyed[i].first;
      labs[i] = labels_[keyed[i].second];
    }
  }
}

void StandardScaler::fit(const Dataset& data) {
  data.validate();
  PMIOT_CHECK(!data.rows.empty(), "cannot fit scaler on empty dataset");
  const std::size_t w = data.width();
  mean_.assign(w, 0.0);
  stddev_.assign(w, 0.0);
  for (const auto& row : data.rows) {
    for (std::size_t c = 0; c < w; ++c) mean_[c] += row[c];
  }
  for (auto& m : mean_) m /= static_cast<double>(data.size());
  for (const auto& row : data.rows) {
    for (std::size_t c = 0; c < w; ++c) {
      const double d = row[c] - mean_[c];
      stddev_[c] += d * d;
    }
  }
  for (auto& s : stddev_) {
    s = std::sqrt(s / static_cast<double>(data.size()));
  }
}

std::vector<double> StandardScaler::transform(
    std::span<const double> row) const {
  PMIOT_CHECK(fitted(), "scaler not fitted");
  PMIOT_CHECK(row.size() == mean_.size(), "row width mismatch");
  std::vector<double> out(row.size());
  for (std::size_t c = 0; c < row.size(); ++c) {
    const double denom = stddev_[c] > 0.0 ? stddev_[c] : 1.0;
    out[c] = (row[c] - mean_[c]) / denom;
  }
  return out;
}

void StandardScaler::transform_in_place(Dataset& data) const {
  for (auto& row : data.rows) row = transform(row);
}

}  // namespace pmiot::ml
