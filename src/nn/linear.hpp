// Fully connected layer: y = x W^T + b, with W stored row-major [out, in].
#pragma once

#include <vector>

#include "nn/layer.hpp"

namespace skiptrain::nn {

class Linear final : public ParamLayer {
 public:
  Linear(std::size_t in_features, std::size_t out_features);

  std::string name() const override;
  Shape output_shape(const Shape& input_shape) const override;
  void forward(const Tensor& input, Tensor& output) override;
  void backward(const Tensor& input, const Tensor& grad_output,
                Tensor* grad_input) override;

  std::unique_ptr<Layer> clone() const override;

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }

  /// Weight block view ([out, in], row-major) within the flat parameters.
  std::span<float> weights() { return {params_.data(), in_ * out_}; }
  std::span<float> bias() { return {params_.data() + in_ * out_, out_}; }

 private:
  std::size_t in_;
  std::size_t out_;
  // ParamLayer::params_ holds W (out*in) then b (out).
};

}  // namespace skiptrain::nn
