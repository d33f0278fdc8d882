#include "sim/node.hpp"

#include "nn/executor.hpp"
#include "nn/loss.hpp"

namespace skiptrain::sim {

namespace {

/// One worker thread's training workspace: the executors plus the batch,
/// label and loss-gradient buffers every step reuses.
struct TrainWorkspace {
  nn::ExecutorCache executors;
  tensor::Tensor features;
  std::vector<std::int32_t> labels;
  tensor::Tensor grad_logits;
};

thread_local TrainWorkspace t_workspace;

}  // namespace

Node::Node(std::size_t id, const nn::Sequential& prototype,
           data::DatasetView data, nn::SgdOptions sgd, std::uint64_t seed)
    : id_(id),
      model_(prototype.clone()),
      optimizer_(sgd),
      data_(std::move(data)),
      rng_(util::hash_combine(seed, 0x0de50000ULL + id)) {}

double Node::train_local(std::size_t local_steps, std::size_t batch_size) {
  TrainWorkspace& ws = t_workspace;
  nn::Sequential& executor = ws.executors.attach(model_);
  double total_loss = 0.0;
  for (std::size_t step = 0; step < local_steps; ++step) {
    data_.sample_batch(rng_, batch_size, ws.features, ws.labels);
    executor.zero_grad();
    const tensor::Tensor& logits = executor.forward(ws.features);
    if (ws.grad_logits.shape() != logits.shape()) {
      ws.grad_logits = tensor::Tensor(logits.shape());
    }
    const nn::LossResult result =
        nn::softmax_cross_entropy(logits, ws.labels, ws.grad_logits);
    executor.backward(ws.features, ws.grad_logits);
    optimizer_.step(executor);
    total_loss += result.loss;
  }
  return local_steps > 0 ? total_loss / static_cast<double>(local_steps) : 0.0;
}

}  // namespace skiptrain::sim
