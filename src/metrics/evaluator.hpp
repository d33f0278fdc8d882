// Top-1 accuracy / loss evaluation of node models against the shared
// validation or test split (paper §4.2 "Metrics").
#pragma once

#include <span>
#include <vector>

#include "data/dataset.hpp"
#include "nn/sequential.hpp"
#include "plane/plane.hpp"
#include "util/stats.hpp"

namespace skiptrain::metrics {

struct EvalResult {
  double accuracy = 0.0;
  double loss = 0.0;
};

class Evaluator {
 public:
  /// Evaluates against `dataset` (not owned; must outlive the evaluator).
  /// `max_samples` limits the evaluation sweep (0 = use all samples);
  /// `batch_size` controls the forward-pass batching.
  explicit Evaluator(const data::Dataset* dataset, std::size_t max_samples = 0,
                     std::size_t batch_size = 256);

  /// Accuracy/loss of one model. Runs on the calling thread's evaluation
  /// executor (nn/executor.hpp) attached to `model`'s parameters, so the
  /// model's own buffers are left as they were; `model` must not be
  /// trained or evaluated concurrently on another thread.
  EvalResult evaluate(nn::Sequential& model) const;

  /// Accuracy/loss of the model whose parameters are the arithmetic mean
  /// of `node_params` — the paper's "all-reduced model" metric (Fig. 1).
  /// `prototype` provides the architecture (cloned internally). The plane
  /// view form reads engine rows zero-copy; the vector form serves owned
  /// snapshots.
  EvalResult evaluate_average(const nn::Sequential& prototype,
                              plane::ConstMatrixView node_params) const;
  EvalResult evaluate_average(
      const nn::Sequential& prototype,
      std::span<const std::vector<float>> node_params) const;

  /// Per-node accuracies for a set of models, evaluated in parallel on the
  /// global thread pool. Returns mean/std summary plus raw accuracies,
  /// bit-identical to evaluate(model).accuracy; the loss is not computed.
  struct FleetResult {
    util::Summary accuracy;
    std::vector<double> per_node;
  };
  FleetResult evaluate_fleet(std::span<nn::Sequential* const> models) const;

  std::size_t samples_used() const { return samples_; }

 private:
  /// Runs `model` over the evaluation samples batch by batch and calls
  /// `on_batch(logits, labels)` for each.
  template <typename OnBatch>
  void sweep(nn::Sequential& model, OnBatch&& on_batch) const;
  double accuracy(nn::Sequential& model) const;

  const data::Dataset* dataset_;
  std::size_t samples_;
  std::size_t batch_size_;
};

}  // namespace skiptrain::metrics
