#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "quant/codec.hpp"
#include "sweep/config.hpp"

namespace fleetbench {

namespace sweep = skiptrain::sweep;

namespace {

std::size_t hardware_threads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "fig3_dense", "large_fleet_gossip", "chaotic_ckpt"};
  return kNames;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  sweep::PresetParams params;
  params.seed = seed;
  Workload workload;
  workload.name = name;
  if (name == "fig3_dense") {
    params.nodes = 32;
    params.rounds = 40;
    params.local_steps = 10;
    params.batch = 16;
    // Γtrain, Γsync in {1, 2}: twelve trials, enough to fill the sweep's
    // workers (and so pin each trial's nodes serial) on up to 12 threads.
    params.gamma_max = 2;
    workload.grid = sweep::make_preset("fig3", params);
    workload.sweep_threads =
        std::min(workload.grid.trial_count(), hardware_threads());
  } else if (name == "large_fleet_gossip") {
    params.rounds = 20;
    workload.grid = sweep::make_preset("large_fleet", params);
    workload.grid.gamma_trains = {1};
    workload.grid.gamma_syncs = {4};
    workload.sweep_threads = 1;
  } else if (name == "chaotic_ckpt") {
    params.rounds = 64;
    workload.grid = sweep::make_preset("chaotic_fleet", params);
    workload.grid.faults = {
        "drop:0.05,corrupt:0.01,dup:0.02,crash:0.004,io:0.1"};
    workload.grid.codecs = {skiptrain::quant::Codec::kIdentity,
                            skiptrain::quant::Codec::kInt8};
    workload.sweep_threads =
        std::min(workload.grid.trial_count(), hardware_threads());
    workload.checkpointed = true;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return workload;
}

sweep::SweepGrid checkpointed_grid(const sweep::SweepGrid& grid,
                                   const std::string& dir, bool resume) {
  sweep::SweepGrid out = grid;
  out.finalize = [previous = grid.finalize, dir,
                  resume](sweep::TrialSpec& spec) {
    if (previous) previous(spec);
    spec.options.checkpoint_path =
        dir + "/trial_" + std::to_string(spec.index) + ".ckpt";
    spec.options.checkpoint_every = kCheckpointEvery;
    spec.options.keep_generations = kKeepGenerations;
    spec.options.resume = resume;
  };
  return out;
}

std::size_t newest_image_round(std::size_t total_rounds) {
  return total_rounds == 0
             ? 0
             : (total_rounds - 1) / kCheckpointEvery * kCheckpointEvery;
}

bool sweep_pins_trials_serial(const Workload& workload) {
  if (workload.sweep_threads == 1) return false;
  const std::size_t workers = std::min(
      workload.sweep_threads,
      std::max<std::size_t>(workload.grid.trial_count(), 1));
  return workers >= hardware_threads();
}

}  // namespace fleetbench
