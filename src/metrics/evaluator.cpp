#include "metrics/evaluator.hpp"

#include <algorithm>
#include <stdexcept>

#include "nn/executor.hpp"
#include "nn/loss.hpp"
#include "util/thread_pool.hpp"

namespace skiptrain::metrics {

Evaluator::Evaluator(const data::Dataset* dataset, std::size_t max_samples,
                     std::size_t batch_size)
    : dataset_(dataset), batch_size_(batch_size) {
  if (dataset_ == nullptr || dataset_->size() == 0) {
    throw std::invalid_argument("Evaluator: empty dataset");
  }
  samples_ = (max_samples == 0) ? dataset_->size()
                                : std::min(max_samples, dataset_->size());
}

namespace {

/// One worker thread's evaluation workspace: the executors plus the batch
/// and label buffers. Kept apart from the training workspace so the two
/// batch shapes never resize each other's activations.
struct EvalWorkspace {
  nn::ExecutorCache executors;
  tensor::Tensor batch;
  std::vector<std::int32_t> labels;
};

thread_local EvalWorkspace t_workspace;

}  // namespace

template <typename OnBatch>
void Evaluator::sweep(nn::Sequential& model, OnBatch&& on_batch) const {
  EvalWorkspace& ws = t_workspace;
  nn::Sequential& executor = ws.executors.attach(model);
  const data::DatasetView view = data::DatasetView::whole(dataset_);
  std::size_t done = 0;
  while (done < samples_) {
    const std::size_t count = std::min(batch_size_, samples_ - done);
    view.fill_range(done, count, ws.batch, ws.labels);
    on_batch(executor.forward(ws.batch), ws.labels);
    done += count;
  }
}

EvalResult Evaluator::evaluate(nn::Sequential& model) const {
  double weighted_loss = 0.0;
  double weighted_acc = 0.0;
  sweep(model, [&](const tensor::Tensor& logits,
                   std::span<const std::int32_t> labels) {
    const nn::LossResult result =
        nn::softmax_cross_entropy_eval(logits, labels);
    const auto count = static_cast<double>(labels.size());
    weighted_loss += result.loss * count;
    weighted_acc += result.accuracy * count;
  });
  return EvalResult{weighted_acc / static_cast<double>(samples_),
                    weighted_loss / static_cast<double>(samples_)};
}

double Evaluator::accuracy(nn::Sequential& model) const {
  // The same per-batch arithmetic as evaluate() — batch accuracy, then
  // weighted by the batch size — so the result is bit-identical.
  double weighted_acc = 0.0;
  sweep(model, [&](const tensor::Tensor& logits,
                   std::span<const std::int32_t> labels) {
    const auto count = static_cast<double>(labels.size());
    const double batch_accuracy =
        static_cast<double>(nn::count_top1_correct(logits, labels)) / count;
    weighted_acc += batch_accuracy * count;
  });
  return weighted_acc / static_cast<double>(samples_);
}

namespace {

/// Arithmetic mean over rows supplied by any accessor i -> span<const float>.
template <typename RowFn>
std::vector<float> mean_of_rows(std::size_t rows, std::size_t dim,
                                RowFn row) {
  std::vector<float> mean(dim, 0.0f);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::span<const float> params = row(r);
    for (std::size_t i = 0; i < dim; ++i) mean[i] += params[i];
  }
  const float inv = 1.0f / static_cast<float>(rows);
  for (auto& v : mean) v *= inv;
  return mean;
}

}  // namespace

EvalResult Evaluator::evaluate_average(
    const nn::Sequential& prototype,
    plane::ConstMatrixView node_params) const {
  if (node_params.empty()) {
    throw std::invalid_argument("evaluate_average: no node parameters");
  }
  const std::vector<float> mean =
      mean_of_rows(node_params.rows, node_params.dim,
                   [&](std::size_t i) { return node_params.row(i); });
  nn::Sequential averaged = prototype.clone();
  averaged.set_parameters(mean);
  return evaluate(averaged);
}

EvalResult Evaluator::evaluate_average(
    const nn::Sequential& prototype,
    std::span<const std::vector<float>> node_params) const {
  if (node_params.empty()) {
    throw std::invalid_argument("evaluate_average: no node parameters");
  }
  const std::size_t dim = node_params.front().size();
  for (const auto& params : node_params) {
    if (params.size() != dim) {
      throw std::invalid_argument("evaluate_average: ragged parameter list");
    }
  }
  const std::vector<float> mean =
      mean_of_rows(node_params.size(), dim, [&](std::size_t i) {
        return std::span<const float>(node_params[i]);
      });
  nn::Sequential averaged = prototype.clone();
  averaged.set_parameters(mean);
  return evaluate(averaged);
}

Evaluator::FleetResult Evaluator::evaluate_fleet(
    std::span<nn::Sequential* const> models) const {
  FleetResult result;
  result.per_node.assign(models.size(), 0.0);
  util::parallel_for(0, models.size(), [&](std::size_t i) {
    result.per_node[i] = accuracy(*models[i]);
  });
  util::RunningStat stat;
  for (const double acc : result.per_node) stat.add(acc);
  result.accuracy = util::Summary{stat.count(), stat.mean(), stat.stddev(),
                                  stat.min(), stat.max()};
  return result;
}

}  // namespace skiptrain::metrics
