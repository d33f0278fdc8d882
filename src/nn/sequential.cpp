#include "nn/sequential.hpp"

#include <cassert>
#include <sstream>
#include <stdexcept>

namespace skiptrain::nn {

Sequential::Sequential(Sequential&& other) noexcept
    : layers_(std::move(other.layers_)),
      activations_(std::move(other.activations_)),
      grad_activations_(std::move(other.grad_activations_)),
      shaped_for_(std::move(other.shaped_for_)),
      owned_arena_(std::move(other.owned_arena_)),
      arena_(other.arena_),
      external_arena_(other.external_arena_),
      signature_(std::move(other.signature_)) {
  other.arena_ = {};
  other.external_arena_ = false;
}

Sequential& Sequential::operator=(Sequential&& other) noexcept {
  if (this != &other) {
    layers_ = std::move(other.layers_);
    activations_ = std::move(other.activations_);
    grad_activations_ = std::move(other.grad_activations_);
    shaped_for_ = std::move(other.shaped_for_);
    owned_arena_ = std::move(other.owned_arena_);
    arena_ = other.arena_;
    external_arena_ = other.external_arena_;
    signature_ = std::move(other.signature_);
    other.arena_ = {};
    other.external_arena_ = false;
  }
  return *this;
}

Sequential& Sequential::add(std::unique_ptr<Layer> layer) {
  if (external_arena_) {
    throw std::logic_error(
        "Sequential::add: model is bound to an external arena");
  }
  layers_.push_back(std::move(layer));
  signature_.clear();
  relayout_owned_arena();
  return *this;
}

const std::string& Sequential::signature() {
  if (signature_.empty()) {
    for (const auto& layer : layers_) {
      signature_ += layer->signature();
      signature_ += ';';
    }
  }
  return signature_;
}

std::size_t Sequential::workspace_bytes() const {
  std::size_t bytes = 0;
  for (const auto& layer : layers_) bytes += layer->workspace_bytes();
  for (const Tensor& t : activations_) bytes += t.numel() * sizeof(float);
  for (const Tensor& t : grad_activations_) {
    bytes += t.numel() * sizeof(float);
  }
  return bytes;
}

void Sequential::relayout_owned_arena() {
  std::size_t total = 0;
  for (const auto& layer : layers_) total += layer->parameter_count();
  // Migrate values layer by layer; the old arena (layer-owned storage or
  // the previous owned_arena_) stays alive until after the loop.
  std::vector<float> fresh(total);
  std::size_t offset = 0;
  for (auto& layer : layers_) {
    const std::size_t count = layer->parameter_count();
    layer->bind_parameters(std::span<float>(fresh).subspan(offset, count));
    offset += count;
  }
  owned_arena_ = std::move(fresh);
  arena_ = owned_arena_;
  external_arena_ = false;
}

void Sequential::bind_parameter_arena(std::span<float> arena) {
  if (arena.size() != num_parameters()) {
    throw std::invalid_argument("bind_parameter_arena: size mismatch");
  }
  std::size_t offset = 0;
  for (auto& layer : layers_) {
    const std::size_t count = layer->parameter_count();
    layer->bind_parameters(arena.subspan(offset, count));
    offset += count;
  }
  arena_ = arena;
  external_arena_ = true;
  owned_arena_.clear();
  owned_arena_.shrink_to_fit();
}

void Sequential::attach_parameter_arena(std::span<float> arena) {
  if (arena.size() != num_parameters()) {
    throw std::invalid_argument("attach_parameter_arena: size mismatch");
  }
  std::size_t offset = 0;
  for (auto& layer : layers_) {
    const std::size_t count = layer->parameter_count();
    layer->attach_parameters(arena.subspan(offset, count));
    offset += count;
  }
  arena_ = arena;
  external_arena_ = true;
  owned_arena_.clear();
  owned_arena_.shrink_to_fit();
}

const Tensor& Sequential::forward(const Tensor& input) {
  if (layers_.empty()) {
    throw std::logic_error("Sequential::forward: model has no layers");
  }
  // Shapes follow from the input shape alone, so they are derived (and
  // the buffers resized) only when it changes; a steady-state step
  // allocates nothing.
  if (!shaped_for_ || *shaped_for_ != input.shape() ||
      activations_.size() != layers_.size()) {
    shaped_for_.reset();  // stays unset if a layer rejects the shape
    activations_.resize(layers_.size());
    grad_activations_.resize(layers_.size());
    const Shape* current = &input.shape();
    for (std::size_t i = 0; i < layers_.size(); ++i) {
      const Shape out_shape = layers_[i]->output_shape(*current);
      if (activations_[i].shape() != out_shape) {
        activations_[i] = Tensor(out_shape);
      }
      current = &activations_[i].shape();
    }
    shaped_for_ = input.shape();
  }
  const Tensor* current = &input;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->forward(*current, activations_[i]);
    current = &activations_[i];
  }
  return activations_.back();
}

void Sequential::backward(const Tensor& input, const Tensor& grad_logits) {
  assert(activations_.size() == layers_.size());
  // Nothing consumes the input gradient of the lowest layer with
  // parameters: it gets no buffer (and skips that product), and the
  // parameter-free layers below it are not called at all. Gradients flow
  // through grad_activations_[i] (d loss / d activations_[i]), which are
  // sized once per input shape like the activations.
  std::size_t lowest = 0;
  while (lowest < layers_.size() && layers_[lowest]->parameter_count() == 0) {
    ++lowest;
  }
  const Tensor* grad_out = &grad_logits;
  for (std::size_t i = layers_.size(); i-- > lowest;) {
    Tensor* grad_in = nullptr;
    if (i > lowest) {
      grad_in = &grad_activations_[i - 1];
      if (grad_in->shape() != activations_[i - 1].shape()) {
        *grad_in = Tensor(activations_[i - 1].shape());
      }
    }
    const Tensor& layer_input = (i == 0) ? input : activations_[i - 1];
    layers_[i]->backward(layer_input, *grad_out, grad_in);
    grad_out = grad_in;
  }
}

void Sequential::zero_grad() {
  for (auto& layer : layers_) layer->zero_grad();
}

void Sequential::get_parameters(std::span<float> out) const {
  assert(out.size() == num_parameters());
  std::copy(arena_.begin(), arena_.end(), out.begin());
}

void Sequential::set_parameters(std::span<const float> in) {
  assert(in.size() == num_parameters());
  std::copy(in.begin(), in.end(), arena_.begin());
}

std::vector<float> Sequential::parameters_flat() const {
  return std::vector<float>(arena_.begin(), arena_.end());
}

void Sequential::get_gradients(std::span<float> out) const {
  assert(out.size() == num_parameters());
  std::size_t offset = 0;
  for (const auto& layer : layers_) {
    auto grads = const_cast<Layer&>(*layer).gradients();
    std::copy(grads.begin(), grads.end(), out.begin() + offset);
    offset += grads.size();
  }
}

void Sequential::apply_parameter_delta(std::span<const float> delta) {
  assert(delta.size() == num_parameters());
  for (std::size_t i = 0; i < arena_.size(); ++i) arena_[i] -= delta[i];
}

Sequential Sequential::clone() const {
  Sequential copy;
  for (const auto& layer : layers_) copy.layers_.push_back(layer->clone());
  copy.relayout_owned_arena();
  return copy;
}

std::string Sequential::summary() const {
  std::ostringstream out;
  std::size_t total = 0;
  for (const auto& layer : layers_) {
    const std::size_t count = layer->parameters().size();
    out << "  " << layer->name() << "  params=" << count << '\n';
    total += count;
  }
  out << "  total parameters: " << total << '\n';
  return out.str();
}

}  // namespace skiptrain::nn
