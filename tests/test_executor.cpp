// Per-worker executors: training and evaluation run on a thread's executor
// attached to a node's parameters, bit-identically to running the node's
// own model, and node models keep no gradient or activation storage.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/scheduler.hpp"
#include "data/synthetic.hpp"
#include "energy/accountant.hpp"
#include "graph/mixing.hpp"
#include "graph/topology.hpp"
#include "metrics/evaluator.hpp"
#include "nn/conv2d.hpp"
#include "nn/executor.hpp"
#include "nn/init.hpp"
#include "nn/loss.hpp"
#include "nn/model_zoo.hpp"
#include "sim/engine.hpp"
#include "sim/node.hpp"

namespace skiptrain {
namespace {

bool bits_equal(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

nn::Sequential initialized(nn::Sequential model, std::uint64_t seed) {
  util::Rng rng(seed);
  nn::initialize(model, rng);
  return model;
}

/// The seed's per-node training loop, run on a standalone model that owns
/// every buffer: the oracle Node::train_local must match bit for bit.
struct StandaloneTrainer {
  nn::Sequential model;
  nn::SgdOptimizer optimizer;
  util::Rng rng;
  tensor::Tensor features;
  std::vector<std::int32_t> labels;
  tensor::Tensor grad_logits;

  explicit StandaloneTrainer(sim::Node& node)
      : model(node.model().clone()),
        optimizer(node.optimizer().options()),
        rng(node.rng()) {}

  double train(const data::DatasetView& view, std::size_t steps,
               std::size_t batch) {
    double total = 0.0;
    for (std::size_t s = 0; s < steps; ++s) {
      view.sample_batch(rng, batch, features, labels);
      model.zero_grad();
      const tensor::Tensor& logits = model.forward(features);
      if (grad_logits.shape() != logits.shape()) {
        grad_logits = tensor::Tensor(logits.shape());
      }
      total += nn::softmax_cross_entropy(logits, labels, grad_logits).loss;
      model.backward(features, grad_logits);
      optimizer.step(model);
    }
    return total / static_cast<double>(steps);
  }
};

data::FederatedData small_cifar(std::size_t nodes) {
  data::CifarSynConfig config;
  config.nodes = nodes;
  config.samples_per_node = 24;
  config.test_pool = 200;
  config.seed = 7;
  return data::make_cifar_synthetic(config);
}

TEST(Executor, EqualCountsDifferentShapesNeverShareAnExecutor) {
  // 64 -> 5 -> 25 -> 10 and 64 -> 7 -> 15 -> 10: five layers and 735
  // parameters each, different shapes.
  nn::Sequential a = nn::make_mlp(64, {5, 25}, 10);
  nn::Sequential b = nn::make_mlp(64, {7, 15}, 10);
  ASSERT_EQ(a.num_layers(), b.num_layers());
  ASSERT_EQ(a.num_parameters(), b.num_parameters());
  EXPECT_NE(a.signature(), b.signature());

  nn::ExecutorCache cache;
  nn::Sequential& exec_a = cache.attach(a);
  EXPECT_EQ(exec_a.signature(), a.signature());
  EXPECT_EQ(exec_a.parameter_arena().data(), a.parameter_arena().data());
  nn::Sequential& exec_b = cache.attach(b);
  EXPECT_EQ(exec_b.signature(), b.signature());
  EXPECT_EQ(exec_b.parameter_arena().data(), b.parameter_arena().data());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(Executor, ConvAlgorithmIsPartOfTheSignature) {
  nn::Sequential direct;
  direct.emplace<nn::Conv2d>(3, 4, 3);
  nn::Sequential lowered = direct.clone();
  const std::string before = direct.signature();
  dynamic_cast<nn::Conv2d&>(direct.layer(0))
      .set_algorithm(nn::Conv2dAlgo::kDirect);
  EXPECT_NE(direct.signature(), before);
  EXPECT_NE(direct.signature(), lowered.signature());

  nn::ExecutorCache cache;
  cache.attach(direct);
  cache.attach(lowered);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(Executor, AlternatingArchitecturesTrainBitIdenticallyOnOneThread) {
  const data::FederatedData data = small_cifar(2);
  const nn::Sequential proto_a =
      initialized(nn::make_mlp(64, {5, 25}, 10), 1);
  const nn::Sequential proto_b =
      initialized(nn::make_mlp(64, {7, 15}, 10), 2);
  const nn::SgdOptions sgd{0.05f, 0.9f, 1e-4f};  // momentum: velocity too
  sim::Node node_a(0, proto_a, data.node_view(0), sgd, 11);
  sim::Node node_b(1, proto_b, data.node_view(1), sgd, 11);
  StandaloneTrainer ref_a(node_a);
  StandaloneTrainer ref_b(node_b);

  for (int round = 0; round < 6; ++round) {
    const double loss_a = node_a.train_local(3, 8);
    const double loss_b = node_b.train_local(3, 8);
    EXPECT_EQ(loss_a, ref_a.train(data.node_view(0), 3, 8));
    EXPECT_EQ(loss_b, ref_b.train(data.node_view(1), 3, 8));
    ASSERT_TRUE(bits_equal(node_a.model().parameter_arena(),
                           ref_a.model.parameter_arena()))
        << "round " << round;
    ASSERT_TRUE(bits_equal(node_b.model().parameter_arena(),
                           ref_b.model.parameter_arena()))
        << "round " << round;
    ASSERT_TRUE(bits_equal(node_a.optimizer().velocity(),
                           ref_a.optimizer.velocity()));
    EXPECT_EQ(node_a.rng().next_u64(), ref_a.rng.next_u64());
    EXPECT_EQ(node_b.rng().next_u64(), ref_b.rng.next_u64());
  }
  EXPECT_EQ(node_a.model().workspace_bytes(), 0u);
  EXPECT_EQ(node_b.model().workspace_bytes(), 0u);
}

TEST(Executor, GnLeNetTrainsBitIdentically) {
  // A small image dataset shaped for the GN-LeNet CNN: [N, 3, 32, 32].
  constexpr std::size_t kSamples = 12;
  data::Dataset images;
  images.features = tensor::Tensor({kSamples, 3, 32, 32});
  util::Rng fill(3);
  fill.fill_normal(images.features.data(), 0.0f, 1.0f);
  images.num_classes = 10;
  for (std::size_t i = 0; i < kSamples; ++i) {
    images.labels.push_back(static_cast<std::int32_t>(i % 10));
  }
  const data::DatasetView view = data::DatasetView::whole(&images);

  const nn::Sequential proto = initialized(nn::make_cifar_cnn(), 5);
  sim::Node node(0, proto, view, nn::SgdOptions{0.05f}, 13);
  StandaloneTrainer ref(node);
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(node.train_local(2, 4), ref.train(view, 2, 4));
    ASSERT_TRUE(bits_equal(node.model().parameter_arena(),
                           ref.model.parameter_arena()));
  }
  EXPECT_EQ(node.model().workspace_bytes(), 0u);
}

TEST(Executor, EvaluateLeavesTheModelBuffersAsTheyWere) {
  const data::FederatedData data = small_cifar(2);
  const metrics::Evaluator evaluator(&data.test, 0, 64);

  nn::Sequential fresh = initialized(nn::make_mlp(64, {16}, 10), 4);
  const metrics::EvalResult from_fresh = evaluator.evaluate(fresh);
  EXPECT_EQ(fresh.workspace_bytes(), 0u);

  // A model with its own gradients and activations (batch 3) keeps them,
  // values included, through an evaluation at batch 64.
  nn::Sequential trained = fresh.clone();
  tensor::Tensor batch;
  std::vector<std::int32_t> labels;
  util::Rng rng(8);
  data.node_view(0).sample_batch(rng, 3, batch, labels);
  trained.zero_grad();
  const tensor::Tensor& logits = trained.forward(batch);
  tensor::Tensor grad_logits(logits.shape());
  nn::softmax_cross_entropy(logits, labels, grad_logits);
  trained.backward(batch, grad_logits);
  const std::vector<float> logits_before(logits.data().begin(),
                                         logits.data().end());
  std::vector<float> grads_before(trained.num_parameters());
  trained.get_gradients(grads_before);
  const std::size_t bytes_before = trained.workspace_bytes();
  ASSERT_GT(bytes_before, 0u);

  const metrics::EvalResult from_trained = evaluator.evaluate(trained);
  EXPECT_EQ(from_trained.accuracy, from_fresh.accuracy);
  EXPECT_EQ(from_trained.loss, from_fresh.loss);
  EXPECT_EQ(trained.workspace_bytes(), bytes_before);
  EXPECT_EQ(logits.shape(), (tensor::Shape{3, 10}));
  EXPECT_TRUE(bits_equal(logits.data(), logits_before));
  std::vector<float> grads_after(trained.num_parameters());
  trained.get_gradients(grads_after);
  EXPECT_TRUE(bits_equal(grads_after, grads_before));

  // The fleet path reports the same accuracies without the loss.
  std::vector<nn::Sequential*> models{&fresh, &trained};
  const auto fleet = evaluator.evaluate_fleet(models);
  EXPECT_EQ(fleet.per_node[0], from_fresh.accuracy);
  EXPECT_EQ(fleet.per_node[1], from_trained.accuracy);
  EXPECT_EQ(fresh.workspace_bytes(), 0u);
}

TEST(Executor, EngineModelsHoldOnlyParametersAfterRoundsAndEvaluation) {
  constexpr std::size_t kNodes = 8;
  const data::FederatedData data = small_cifar(kNodes);
  const nn::Sequential proto = initialized(nn::make_mlp(64, {16}, 10), 6);
  util::Rng topo_rng(2);
  const graph::Topology topology =
      graph::make_random_regular(kNodes, 3, topo_rng);
  const graph::MixingMatrix mixing =
      graph::MixingMatrix::metropolis_hastings(topology);
  const energy::Fleet fleet =
      energy::Fleet::even(kNodes, energy::Workload::kCifar10);
  std::vector<std::size_t> degrees(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) degrees[i] = topology.degree(i);
  const core::DpsgdScheduler scheduler;
  sim::RoundEngine engine(
      proto, data, mixing, scheduler,
      energy::EnergyAccountant(fleet, energy::CommModel{},
                               proto.num_parameters(), std::move(degrees)),
      sim::EngineConfig{});
  engine.run_rounds(3);
  const metrics::Evaluator evaluator(&data.test, 0, 64);
  std::vector<nn::Sequential*> models(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) models[i] = &engine.model(i);
  const auto fleet_eval = evaluator.evaluate_fleet(models);
  ASSERT_EQ(fleet_eval.per_node.size(), kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    EXPECT_EQ(engine.model(i).workspace_bytes(), 0u) << "node " << i;
    EXPECT_FALSE(engine.model(i).owns_parameter_arena());
    EXPECT_EQ(fleet_eval.per_node[i],
              evaluator.evaluate(engine.model(i)).accuracy);
  }
}

}  // namespace
}  // namespace skiptrain
