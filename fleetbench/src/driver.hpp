// Hand-driven trial: the body of sim::run_experiment rebuilt from the
// layers' public functions, with a benchmark Span around every call into a
// layer (topology and mixing construction, engine construction, each
// RoundEngine::run_round, each evaluation, each checkpoint write and
// restore). The traced run uses it to attribute time to layers; the
// driver-equivalence test pins it bit-for-bit to sim::run_experiment, so
// the per-layer numbers describe the program the end-to-end run measures.
//
// Supported: dense and kregular topologies, the SkipTrain and
// SkipTrain-constrained schedulers, codecs, scenarios, fault plans,
// checkpoint writes with generations, and resume.
#pragma once

#include <cstdint>
#include <functional>

#include "fault/fault.hpp"
#include "graph/mixing.hpp"
#include "graph/sparse.hpp"
#include "sim/engine.hpp"
#include "sim/runner.hpp"
#include "sweep/dataset_cache.hpp"
#include "sweep/grid.hpp"

namespace fleetbench {

/// The gossip graph and its Metropolis–Hastings weights for a trial, built
/// exactly as sim::run_experiment builds them (dense or kregular).
struct TrialMixing {
  skiptrain::graph::MixingMatrix dense;
  skiptrain::graph::SparseMixing sparse;
  skiptrain::graph::MixingRef ref;  // points into this object: do not move
  std::vector<std::size_t> degrees;
  std::uint64_t topology_hash = 0;

  TrialMixing() = default;
  TrialMixing(const TrialMixing&) = delete;
  TrialMixing& operator=(const TrialMixing&) = delete;
};

/// Fills `out` for `options` over `nodes` nodes. Throws on csr topologies
/// and all-reduce mixing, which the hand driver does not cover.
void build_mixing(const skiptrain::sim::RunOptions& options,
                  std::size_t nodes, TrialMixing& out);

struct DriveOptions {
  /// Pin the trial's node loops to the calling thread, as SweepRunner
  /// does when its trial workers fill the machine.
  bool serial_nodes = false;

  /// Read gemm call/MAC counter deltas around every run_round.
  bool count_gemm = false;

  /// Called before (outcome == nullptr) and after every round. Used for
  /// invariant checks; its time lands inside the driver's wall time.
  std::function<void(const skiptrain::sim::RoundEngine& engine,
                     std::size_t round,
                     const skiptrain::sim::RoundEngine::RoundOutcome* outcome)>
      round_hook;
  /// The trial's mixing, for hooks that recompute per-link outcomes.
  std::function<void(const TrialMixing& mixing)> on_mixing;
};

struct DriveOutput {
  /// Every field sim::run_experiment fills, filled the same way.
  skiptrain::sim::ExperimentResult result;
  std::uint64_t plane_digest = 0;  // FNV-1a of the final plane bytes
  std::size_t start_round = 0;     // > 0 when resumed from an image
  std::uint64_t sgd_steps = 0;     // Σ nodes trained × local steps
  std::size_t train_rounds_run = 0;
  std::size_t sync_rounds_run = 0;
  skiptrain::fault::FaultStats fault_stats;
  std::size_t images_written = 0;
  std::uint64_t image_bytes = 0;   // size of the last image written
  std::uint64_t gemm_calls = 0;    // with count_gemm
  std::uint64_t gemm_macs = 0;
};

/// Runs `spec` on `workload` (the dataset and prototype the sweep's
/// dataset cache would hand out for spec.data).
[[nodiscard]] DriveOutput drive_trial(
    const skiptrain::sweep::TrialSpec& spec,
    const skiptrain::sweep::SharedWorkload& workload,
    const DriveOptions& options = {});

/// FNV-1a over the bytes of every node's parameters.
[[nodiscard]] std::uint64_t plane_digest(
    skiptrain::plane::ConstMatrixView view);

}  // namespace fleetbench
