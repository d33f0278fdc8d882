// Per-worker executors: the models that actually run forward/backward
// passes for a fleet of parameter-only models.
//
// A simulated node's nn::Sequential is a view of its plane row and keeps
// no gradient, activation or layer scratch storage. To train or evaluate
// it, a worker thread takes an executor from its ExecutorCache: a clone of
// the node's architecture that owns those buffers, attached zero-copy
// (Sequential::attach_parameter_arena) to the node's parameters. Every
// step then computes the same float operations on the same parameters as
// the node's own model would, so results are bit-identical; only where
// the buffers live changes — one set per worker instead of one per node.
//
// Executors are matched to a model by Sequential::signature(), which
// covers layer types, shapes and per-layer configuration, so two
// architectures with equal parameter counts never share an executor.
#pragma once

#include <string>
#include <vector>

#include "nn/sequential.hpp"

namespace skiptrain::nn {

class ExecutorCache {
 public:
  /// Returns this cache's executor for `model`'s architecture, attached
  /// to `model`'s parameter arena, so the executor's forward/backward
  /// passes and optimizer steps read and write `model`'s parameters. The
  /// executor is created (cloned from `model`) on the first use of an
  /// architecture. The reference is valid until the next attach().
  Sequential& attach(Sequential& model);

  std::size_t size() const { return entries_.size(); }

 private:
  // Architectures kept per cache; the least recently used is dropped
  // beyond this. Trials mixing more model types than this on one thread
  // stay correct and pay a clone per switch.
  static constexpr std::size_t kMaxEntries = 4;

  struct Entry {
    std::string signature;
    Sequential executor;
  };
  std::vector<Entry> entries_;  // least recently used first
};

}  // namespace skiptrain::nn
