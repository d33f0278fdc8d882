// The traced run's hand-driven RoundEngine loop must reproduce
// sim::run_experiment bit-for-bit, or its per-layer numbers would describe
// a different program from the one the end-to-end run measures. Each
// workload runs here at a tiny size: same recorder rows, joules, fault
// tallies, and the same plane digest at the round before the last (read
// back from run_experiment's own checkpoint image).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "checks.hpp"
#include "driver.hpp"
#include "sim/runner.hpp"
#include "sweep/dataset_cache.hpp"
#include "workloads.hpp"

namespace {

using fleetbench::drive_trial;
using fleetbench::DriveOutput;
namespace sweep = skiptrain::sweep;

/// Shrinks a workload's trials so the whole suite runs in seconds.
sweep::TrialSpec tiny(sweep::TrialSpec spec) {
  spec.data.nodes = std::min<std::size_t>(spec.data.nodes, 24);
  spec.data.test_pool = std::min<std::size_t>(spec.data.test_pool, 200);
  spec.options.total_rounds = 12;
  spec.options.eval_every = 5;
  spec.options.eval_max_samples = 100;
  if (spec.options.topology.starts_with("kregular")) {
    spec.options.topology = "kregular:4";
  }
  return spec;
}

std::string temp_dir(const std::string& name) {
  const auto dir = std::filesystem::current_path() /
                   ("fleetbench_test_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

class DriverEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(DriverEquivalence, HandDrivenLoopMatchesRunExperiment) {
  const fleetbench::Workload workload =
      fleetbench::make_workload(GetParam(), fleetbench::kDefaultSeed);
  const std::string dir = temp_dir(GetParam());
  for (const sweep::TrialSpec& full : workload.grid.expand()) {
    sweep::TrialSpec spec = tiny(full);
    // Both runs image every round (except the last) so the plane at the
    // round before the last can be compared byte for byte.
    spec.options.checkpoint_every = 1;
    spec.options.keep_generations = 1;
    const auto shared = sweep::build_workload(spec.data);

    sweep::TrialSpec user = spec;
    user.options.checkpoint_path = dir + "/user.ckpt";
    const skiptrain::sim::ExperimentResult expected =
        skiptrain::sim::run_experiment(shared->data, shared->prototype,
                                       user.options);

    sweep::TrialSpec hand = spec;
    hand.options.checkpoint_path = dir + "/hand.ckpt";
    const DriveOutput actual = drive_trial(hand, *shared);

    std::string why;
    EXPECT_TRUE(fleetbench::same_outputs(expected, actual.result, &why))
        << GetParam() << " trial " << spec.index << ": " << why;
    EXPECT_EQ(actual.result.telemetry.rounds, spec.options.total_rounds);
    EXPECT_EQ(actual.images_written, spec.options.total_rounds - 1);
    // The newest images (round T-1) hold the whole plane, the joules and
    // every node's RNG and optimizer state.
    EXPECT_EQ(file_bytes(user.options.checkpoint_path),
              file_bytes(hand.options.checkpoint_path));

    // Plane digest: both images restored into fresh engines by the hand
    // driver's resume path and run to T.
    sweep::TrialSpec from_user = hand;
    from_user.options.checkpoint_path = user.options.checkpoint_path;
    from_user.options.checkpoint_every = 0;
    from_user.options.resume = true;
    sweep::TrialSpec from_hand = from_user;
    from_hand.options.checkpoint_path = hand.options.checkpoint_path;
    const DriveOutput resumed_user = drive_trial(from_user, *shared);
    const DriveOutput resumed_hand = drive_trial(from_hand, *shared);
    EXPECT_EQ(resumed_user.start_round, spec.options.total_rounds - 1);
    EXPECT_EQ(resumed_hand.start_round, spec.options.total_rounds - 1);
    EXPECT_EQ(resumed_user.plane_digest, resumed_hand.plane_digest);
    EXPECT_EQ(resumed_user.plane_digest, actual.plane_digest);
    EXPECT_TRUE(
        fleetbench::same_outputs(expected, resumed_user.result, &why))
        << why;
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Workloads, DriverEquivalence,
                         ::testing::ValuesIn(fleetbench::workload_names()));

}  // namespace
