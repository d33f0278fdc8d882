// Fused softmax + cross-entropy, the training criterion used throughout the
// paper's evaluation ("trained with SGD and the Cross-Entropy loss").
#pragma once

#include <cstdint>
#include <span>

#include "tensor/tensor.hpp"

namespace skiptrain::nn {

struct LossResult {
  double loss = 0.0;      // mean over the batch
  double accuracy = 0.0;  // top-1 over the batch
};

/// Computes mean cross-entropy of `logits` [B, C] against integer labels
/// and writes d(loss)/d(logits) = (softmax - onehot)/B into `grad_logits`.
LossResult softmax_cross_entropy(const tensor::Tensor& logits,
                                 std::span<const std::int32_t> labels,
                                 tensor::Tensor& grad_logits);

/// Loss/accuracy only (no gradient); used by evaluation paths.
LossResult softmax_cross_entropy_eval(const tensor::Tensor& logits,
                                      std::span<const std::int32_t> labels);

/// Number of rows of `logits` [B, C] whose top-1 class is the label: the
/// accuracy softmax_cross_entropy_eval reports, times B, without the
/// log-sum-exp. Ties go to the lowest class index, as in both functions
/// above.
std::size_t count_top1_correct(const tensor::Tensor& logits,
                               std::span<const std::int32_t> labels);

}  // namespace skiptrain::nn
