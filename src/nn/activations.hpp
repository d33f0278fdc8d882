// Element-wise activation layers. Parameter-free; backward uses the cached
// forward output (monotone activations let us recompute the mask cheaply).
#pragma once

#include <vector>

#include "nn/layer.hpp"

namespace skiptrain::nn {

class ReLU final : public Layer {
 public:
  std::string name() const override { return "ReLU"; }
  Shape output_shape(const Shape& input_shape) const override;
  void forward(const Tensor& input, Tensor& output) override;
  void backward(const Tensor& input, const Tensor& grad_output,
                Tensor* grad_input) override;
  std::unique_ptr<Layer> clone() const override;
};

class Tanh final : public Layer {
 public:
  std::string name() const override { return "Tanh"; }
  Shape output_shape(const Shape& input_shape) const override;
  void forward(const Tensor& input, Tensor& output) override;
  void backward(const Tensor& input, const Tensor& grad_output,
                Tensor* grad_input) override;
  std::unique_ptr<Layer> clone() const override;
};

}  // namespace skiptrain::nn
