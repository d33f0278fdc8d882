// Spatial pooling and shape adapters.
#pragma once

#include <vector>

#include "nn/layer.hpp"

namespace skiptrain::nn {

/// Max pooling over [B, C, H, W] with square window and stride == window.
/// The forward pass records argmax positions for the backward routing.
class MaxPool2d final : public Layer {
 public:
  explicit MaxPool2d(std::size_t window);

  std::string name() const override;
  Shape output_shape(const Shape& input_shape) const override;
  void forward(const Tensor& input, Tensor& output) override;
  void backward(const Tensor& input, const Tensor& grad_output,
                Tensor* grad_input) override;
  std::unique_ptr<Layer> clone() const override;
  std::size_t workspace_bytes() const override {
    return argmax_.capacity() * sizeof(std::size_t);
  }

 private:
  std::size_t window_;
  std::vector<std::size_t> argmax_;  // flat input index per output element
};

/// Collapses every per-sample dimension into one: [B, ...] -> [B, prod].
class Flatten final : public Layer {
 public:
  std::string name() const override { return "Flatten"; }
  Shape output_shape(const Shape& input_shape) const override;
  void forward(const Tensor& input, Tensor& output) override;
  void backward(const Tensor& input, const Tensor& grad_output,
                Tensor* grad_input) override;
  std::unique_ptr<Layer> clone() const override;
};

}  // namespace skiptrain::nn
