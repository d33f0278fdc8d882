// The benchmark's three workloads, each a sweep grid built from a repo
// preset so the benchmark runs the path users run (sweep::SweepRunner ->
// sim::run_experiment).
//
//   fig3_dense          Training-bound. A slice of the Fig. 3 grid: 32
//                       nodes, dense d-regular graphs d in {6, 8, 10},
//                       Γtrain and Γsync in {1, 2}, E = 10, batch 16.
//                       Trials run in parallel, nodes serial inside a
//                       trial once trials fill the machine.
//   large_fleet_gossip  Sync-bound. 10k nodes on kregular:6, E = 1,
//                       batch 4, a sync-heavy schedule, one trial whose
//                       node loops use the global pool. Setup, the
//                       row-sharded mixing kernel and memory dominate.
//   chaotic_ckpt        Churn + the full fault plan + an int8 codec leg,
//                       checkpoints every 4 rounds with 3 generations,
//                       then a resume leg that restarts every trial from
//                       its newest in-flight image and finishes it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sweep/grid.hpp"

namespace fleetbench {

/// The seed the committed reference outputs were recorded at.
inline constexpr std::uint64_t kDefaultSeed = 42;

/// chaotic_ckpt's checkpoint cadence and retained generations.
inline constexpr std::size_t kCheckpointEvery = 4;
inline constexpr std::size_t kKeepGenerations = 3;

struct Workload {
  std::string name;
  skiptrain::sweep::SweepGrid grid;
  /// SweepOptions::threads for the end-to-end run.
  std::size_t sweep_threads = 1;
  /// chaotic_ckpt: trials checkpoint and a resume leg follows.
  bool checkpointed = false;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Builds `name` with every input derived from `seed`. Throws
/// std::invalid_argument on an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);

/// For checkpointed workloads: a copy of `grid` whose trials write
/// in-flight images under `dir` (one path per trial index) and, with
/// `resume`, restart from the newest image that validates.
[[nodiscard]] skiptrain::sweep::SweepGrid checkpointed_grid(
    const skiptrain::sweep::SweepGrid& grid, const std::string& dir,
    bool resume);

/// Round of the newest in-flight image an uninterrupted checkpointed run
/// of `total_rounds` leaves behind (the final round is never imaged).
[[nodiscard]] std::size_t newest_image_round(std::size_t total_rounds);

/// SweepRunner's rule for pinning each trial's node loops to its worker:
/// the trial workers fill the machine.
[[nodiscard]] bool sweep_pins_trials_serial(const Workload& workload);

}  // namespace fleetbench
